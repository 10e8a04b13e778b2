#pragma once
/// \file audit.hpp
/// Shared vocabulary of the `ns::audit` analysis layer: the violation
/// record every checker emits and the error type `enforce` raises.
///
/// Checkers never throw on their own — they return the full list of
/// violations they found so fault-injection tests can assert on precise
/// rule names and messages. `enforce` is the one throwing choke point the
/// auditor and the other call sites use. Every build compiles the same
/// checks; what runs is decided by who calls them (the engine auditor is a
/// listener, see solver_audit.hpp), never by a build flag.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ns::audit {

/// One broken invariant. `rule` is a stable dotted identifier
/// ("ir.def_before_use", "watch.twice", ...) tests key on; `message` is the
/// op- or subsystem-named human diagnostic; `index` locates the offender
/// (instruction index, trail position, watch-list code, ...; -1 when the
/// violation is structure-wide).
struct Violation {
  std::string rule;
  std::string message;
  std::int64_t index = -1;
};

/// Thrown by `enforce` when an audit found violations. Carries the whole
/// list; `what()` is "<where>: <first rule>: <first message> (+N more)".
class AuditError : public std::logic_error {
 public:
  AuditError(const char* where, std::vector<Violation> violations)
      : std::logic_error(format(where, violations)),
        violations_(std::move(violations)) {}

  const std::vector<Violation>& violations() const { return violations_; }

 private:
  static std::string format(const char* where,
                            const std::vector<Violation>& vs) {
    if (vs.empty()) return std::string(where) + ": audit failed";
    std::string s = std::string(where) + ": " + vs.front().rule + ": " +
                    vs.front().message;
    if (vs.size() > 1) {
      s += " (+" + std::to_string(vs.size() - 1) + " more violation" +
           (vs.size() > 2 ? "s" : "") + ")";
    }
    return s;
  }

  std::vector<Violation> violations_;
};

/// Throws AuditError when `violations` is nonempty; no-op otherwise.
inline void enforce(std::vector<Violation> violations, const char* where) {
  if (!violations.empty()) throw AuditError(where, std::move(violations));
}

}  // namespace ns::audit
