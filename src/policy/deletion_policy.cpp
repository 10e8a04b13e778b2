#include "policy/deletion_policy.hpp"

namespace ns::policy {

std::optional<PolicyKind> policy_kind_from_name(const std::string& name) {
  if (name == "default") return PolicyKind::kDefault;
  if (name == "frequency") return PolicyKind::kFrequency;
  return std::nullopt;
}

}  // namespace ns::policy
