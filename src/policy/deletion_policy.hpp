#pragma once
/// \file deletion_policy.hpp
/// The clause-deletion policy abstraction the paper selects between.
///
/// A policy maps per-clause features to a 64-bit retention score (see
/// score.hpp); the solver deletes the lowest-scoring half of the reducible
/// learned clauses at every reduction. Policies that use the propagation-
/// frequency criterion (Eq. 2) additionally expose the threshold factor
/// alpha so the solver can compute `c.frequency` from its per-variable
/// counters.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "policy/score.hpp"

namespace ns::policy {

/// Identifiers for the built-in policies (the classifier's two classes).
enum class PolicyKind : std::uint8_t {
  kDefault = 0,    ///< Kissat default: ~glue, ~size
  kFrequency = 1,  ///< propagation-frequency guided (paper Sec. 3)
};

/// Interface for clause-deletion scoring strategies.
class DeletionPolicy {
 public:
  virtual ~DeletionPolicy() = default;

  /// Stable human-readable identifier.
  virtual std::string_view name() const = 0;

  /// Which built-in kind this is (used for labelling and dispatch).
  virtual PolicyKind kind() const = 0;

  /// True when the solver must maintain per-variable propagation counters
  /// and fill ClauseFeatures::frequency.
  virtual bool needs_frequency() const { return false; }

  /// Eq. 2 threshold factor: a variable is "hot" when f_v > alpha * f_max.
  /// Only meaningful when needs_frequency().
  virtual double frequency_alpha() const { return 0.8; }

  /// The 64-bit retention score; higher = kept longer.
  virtual std::uint64_t retention_score(const ClauseFeatures& f) const = 0;
};

/// Kissat's default policy: glue primary, size secondary (both negated).
class DefaultPolicy final : public DeletionPolicy {
 public:
  std::string_view name() const override { return "default"; }
  PolicyKind kind() const override { return PolicyKind::kDefault; }
  std::uint64_t retention_score(const ClauseFeatures& f) const override {
    return pack_default_score(f);
  }
};

/// The paper's propagation-frequency guided policy (Sec. 3.2, Eq. 2, Fig. 5).
class FrequencyPolicy final : public DeletionPolicy {
 public:
  /// `alpha` defaults to the paper's empirically chosen 4/5.
  explicit FrequencyPolicy(double alpha = 0.8) : alpha_(alpha) {}

  std::string_view name() const override { return "frequency"; }
  PolicyKind kind() const override { return PolicyKind::kFrequency; }
  bool needs_frequency() const override { return true; }
  double frequency_alpha() const override { return alpha_; }
  std::uint64_t retention_score(const ClauseFeatures& f) const override {
    return pack_frequency_score(f);
  }

 private:
  double alpha_;
};

/// Factory for the built-in policies.
std::unique_ptr<DeletionPolicy> make_policy(PolicyKind kind);

/// Parses "default"/"frequency"; nullopt for any other name.
std::optional<PolicyKind> policy_kind_from_name(const std::string& name);

}  // namespace ns::policy
