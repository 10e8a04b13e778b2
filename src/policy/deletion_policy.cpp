#include "policy/deletion_policy.hpp"

namespace ns::policy {

std::unique_ptr<DeletionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFrequency:
      return std::make_unique<FrequencyPolicy>();
    case PolicyKind::kDefault:
    default:
      return std::make_unique<DefaultPolicy>();
  }
}

std::optional<PolicyKind> policy_kind_from_name(const std::string& name) {
  if (name == "default") return PolicyKind::kDefault;
  if (name == "frequency") return PolicyKind::kFrequency;
  return std::nullopt;
}

}  // namespace ns::policy
