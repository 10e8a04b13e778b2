#include "nn/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace ns::nn {
namespace {

/// `parameters_file_bound`: bytes allowed per value and per tensor, and
/// for the header.
constexpr std::size_t kBytesPerToken = 64;
constexpr std::size_t kSlackBytes = 4096;

bool refuse(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

/// The C locale's blanks: what `>>` skips before every token.
bool is_blank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// True when a decimal token that `from_chars` found outside the float
/// range lies below one in magnitude, so it underflowed (a stream reads it
/// as a zero) rather than overflowed (a stream refuses it): the decimal
/// exponent of its first nonzero digit is negative.
bool below_one(const char* p, const char* end) {
  if (*p == '-') ++p;
  std::int64_t order = 0;
  bool nonzero = false;
  for (; p != end && is_digit(*p); ++p) {
    if (nonzero) {
      ++order;
    } else {
      nonzero = *p != '0';
    }
  }
  if (p != end && *p == '.') {
    for (++p; p != end && is_digit(*p); ++p) {
      if (!nonzero) {
        --order;
        nonzero = *p != '0';
      }
    }
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    const bool negative = p != end && *p == '-';
    if (p != end && (*p == '+' || *p == '-')) ++p;
    std::int64_t exponent = 0;  // saturates: only its sign can matter
    for (; p != end && is_digit(*p); ++p) {
      if (exponent < 100'000'000'000'000'000) {
        exponent = exponent * 10 + (*p - '0');
      }
    }
    order += negative ? -exponent : exponent;
  }
  return order < 0;
}

/// One forward pass over the text, taking each token as `std::istream >>`
/// takes it in the C locale (see the reader contract in serialize.hpp).
class TokenReader {
 public:
  explicit TokenReader(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// `>> std::string`: the next run of non-blanks.
  bool word(std::string_view& out) {
    if (!start_token()) return false;
    while (p_ != end_ && !is_blank(*p_)) ++p_;
    out = std::string_view(token_, static_cast<std::size_t>(p_ - token_));
    return true;
  }

  /// `>> std::size_t`: an optional sign and decimal digits. A '-' negates
  /// modulo 2^64, as num_get does; `negative` reports it. A magnitude past
  /// SIZE_MAX fails.
  bool count(std::size_t& out, bool& negative) {
    if (!start_token()) return false;
    negative = *p_ == '-';
    if (*p_ == '+' || *p_ == '-') ++p_;
    const char* digits = p_;
    std::size_t magnitude = 0;
    bool overflow = false;
    for (; p_ != end_ && is_digit(*p_); ++p_) {
      const std::size_t d = static_cast<std::size_t>(*p_ - '0');
      overflow = overflow || magnitude > (SIZE_MAX - d) / 10;
      magnitude = magnitude * 10 + d;
    }
    if (p_ == digits || overflow) return false;
    out = negative ? 0 - magnitude : magnitude;
    return true;
  }

  /// `>> float`: the prefix num_get takes (a sign, digits with at most one
  /// '.', then 'e' or 'E' with an optional sign and digits), which must
  /// convert as a whole to a finite float. An underflow reads as a zero of
  /// the prefix's sign, as strtof gives it. (num_get takes the marker only
  /// after a digit; a prefix with no digit before it is refused either way.)
  bool value(float& out) {
    if (!start_token()) return false;
    if (*p_ == '+' || *p_ == '-') ++p_;
    bool point = false;
    for (; p_ != end_; ++p_) {
      if (*p_ == '.' && !point) {
        point = true;
      } else if (*p_ == 'e' || *p_ == 'E') {
        ++p_;
        if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
        while (p_ != end_ && is_digit(*p_)) ++p_;
        break;
      } else if (!is_digit(*p_)) {
        break;
      }
    }
    const char* first = *token_ == '+' ? token_ + 1 : token_;
    const auto [stop, ec] = std::from_chars(first, p_, out);
    // A marker the prefix took without exponent digits ("1e", "1.5e-")
    // stops from_chars early, as it stops strtof.
    if (stop != p_) return false;
    if (ec == std::errc::result_out_of_range && below_one(first, p_)) {
      out = *first == '-' ? -0.0f : 0.0f;
      return true;
    }
    return ec == std::errc();
  }

  /// What the last token began with, quoted for a refusal reason.
  std::string found() const {
    if (token_ == end_) return "the end of the text";
    std::string out = "'";
    const char* p = token_;
    for (int n = 0; p != end_ && *p != '\n' && n < 16; ++p, ++n) {
      out += *p >= ' ' && *p <= '~' ? *p : '?';
    }
    return out + "'";
  }

 private:
  /// Skips blanks; false at the end of the text, where a stream fails.
  bool start_token() {
    while (p_ != end_ && is_blank(*p_)) ++p_;
    token_ = p_;
    return p_ != end_;
  }

  const char* p_;
  const char* end_;
  const char* token_ = nullptr;
};

}  // namespace

std::string parameters_to_string(Module& module) {
  const std::vector<Parameter*> params = module.parameters();
  std::ostringstream os;
  os << "nsweights 1\n" << params.size() << "\n";
  char buf[32];
  for (const Parameter* p : params) {
    os << p->value.rows() << ' ' << p->value.cols();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %.9g",
                    static_cast<double>(p->value.data()[i]));
      os << buf;
    }
    os << '\n';
  }
  return os.str();
}

bool parameters_from_string(Module& module, const std::string& text,
                            std::string* why) {
  const std::vector<Parameter*> params = module.parameters();
  const std::string tensors = std::to_string(params.size());
  TokenReader in(text);
  std::string_view magic;
  std::size_t field = 0;
  bool negative = false;
  if (!in.word(magic) || magic != "nsweights") {
    return refuse(why, "expected the header 'nsweights 1', found " +
                           in.found());
  }
  if (!in.count(field, negative) || negative || field != 1) {
    return refuse(why, "expected nsweights version 1, found " + in.found());
  }
  if (!in.count(field, negative) || field != params.size()) {
    return refuse(why, "expected " + tensors + " tensors, found " +
                           in.found());
  }

  // Parse into a staging area first so a mid-stream failure cannot leave
  // the module half-loaded.
  std::vector<Matrix> staged;
  staged.reserve(params.size());
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Matrix& want = params[k]->value;
    const auto tensor = [&] {
      return "tensor " + std::to_string(k) + " of " + tensors;
    };
    if (!in.count(field, negative) || field != want.rows()) {
      return refuse(why, tensor() + ": expected " +
                             std::to_string(want.rows()) + " rows, found " +
                             in.found());
    }
    if (!in.count(field, negative) || field != want.cols()) {
      return refuse(why, tensor() + ": expected " +
                             std::to_string(want.cols()) + " columns, found " +
                             in.found());
    }
    Matrix m(want.rows(), want.cols());
    float* data = m.data();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!in.value(data[i])) {
        return refuse(why, tensor() + ", value " + std::to_string(i) + " of " +
                               std::to_string(m.size()) +
                               ": expected a finite float, found " +
                               in.found());
      }
    }
    staged.push_back(std::move(m));
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k]->value = std::move(staged[k]);
    params[k]->zero_grad();
  }
  return true;
}

std::size_t parameters_file_bound(Module& module) {
  const std::vector<Parameter*> params = module.parameters();
  std::size_t tokens = params.size();
  for (const Parameter* p : params) tokens += p->value.size();
  return kBytesPerToken * tokens + kSlackBytes;
}

bool save_parameters(Module& module, const std::string& path,
                     std::string* why) {
  const std::vector<Parameter*> params = module.parameters();
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Matrix& m = params[k]->value;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!std::isfinite(m.data()[i])) {
        return refuse(why, "tensor " + std::to_string(k) + " of " +
                               std::to_string(params.size()) + ", value " +
                               std::to_string(i) +
                               ": not finite, so no reader could load it");
      }
    }
  }
  std::ofstream out(path);
  if (!out) return refuse(why, "cannot open the file for writing");
  out << parameters_to_string(module);
  if (!out) return refuse(why, "cannot write the file");
  return true;
}

bool load_parameters(Module& module, const std::string& path,
                     std::string* why) {
  const std::size_t bound = parameters_file_bound(module);
  std::ifstream in(path, std::ios::binary);
  if (!in) return refuse(why, "cannot open the file");
  // A regular file is read in one call (its size plus one byte, to meet
  // the end); a device or pipe in doubling steps. Neither passes the bound.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::size_t step =
      ec ? std::size_t{1} << 16
         : static_cast<std::size_t>(std::min<std::uintmax_t>(size, bound)) + 1;
  std::string text;
  while (in && text.size() < bound) {
    const std::size_t used = text.size();
    text.resize(std::min(bound, used + step));
    in.read(text.data() + used, static_cast<std::streamsize>(text.size() - used));
    text.resize(used + static_cast<std::size_t>(in.gcount()));
    step = text.size();
  }
  if (in.bad()) return refuse(why, "cannot read the file");
  if (in && in.peek() != std::ifstream::traits_type::eof()) {
    return refuse(why, "the file is longer than the " + std::to_string(bound) +
                           "-byte bound for this model");
  }
  return parameters_from_string(module, text, why);
}

}  // namespace ns::nn
