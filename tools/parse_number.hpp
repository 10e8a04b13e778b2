#pragma once
/// \file parse_number.hpp
/// The one strict parser for numeric command-line arguments, shared by
/// neuroselect_solve and gen_cnf.

#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>
#include <system_error>
#include <type_traits>

namespace ns::tools {

/// The whole token must be an integer in T's range (integral T; no '+',
/// and '-' only for signed T) or a finite non-negative number
/// (floating-point T). Trailing text, overflow, inf and nan all yield
/// nullopt.
template <typename T>
std::optional<T> parse_number(const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value) || value < 0) return std::nullopt;
  }
  return value;
}

}  // namespace ns::tools
