#pragma once
/// \file deletion_policy.hpp
/// The two clause-deletion policies the paper selects between.
///
/// A policy maps per-clause features to a 64-bit retention score (see
/// score.hpp); the solver deletes the lowest-scoring fraction of the
/// reducible learned clauses at every reduction. Only the frequency policy
/// reads `ClauseFeatures::frequency` (Eq. 2, `SolverOptions::frequency_alpha`).

#include <cstdint>
#include <optional>
#include <string>

#include "policy/score.hpp"

namespace ns::policy {

/// Identifiers for the built-in policies (the classifier's two classes).
enum class PolicyKind : std::uint8_t {
  kDefault = 0,    ///< Kissat default: ~glue, ~size
  kFrequency = 1,  ///< propagation-frequency guided (paper Sec. 3)
};

/// The 64-bit retention score of `kind`; higher = kept longer.
inline constexpr std::uint64_t retention_score(PolicyKind kind,
                                               const ClauseFeatures& f) {
  return kind == PolicyKind::kFrequency ? pack_frequency_score(f)
                                        : pack_default_score(f);
}

/// Parses "default"/"frequency"; nullopt for any other name.
std::optional<PolicyKind> policy_kind_from_name(const std::string& name);

}  // namespace ns::policy
