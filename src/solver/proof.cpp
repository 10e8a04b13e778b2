#include "solver/proof.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdlib>
#include <ostream>

namespace ns::solver {

void DratTextWriter::on_add(std::span<const Lit> lits) {
  for (const Lit l : lits) out_ << l.to_dimacs() << ' ';
  out_ << "0\n";
}

void DratTextWriter::on_delete(std::span<const Lit> lits) {
  out_ << "d ";
  for (const Lit l : lits) out_ << l.to_dimacs() << ' ';
  out_ << "0\n";
}

bool parse_drat_text(const std::string& text, std::vector<ProofStep>& out) {
  out.clear();
  std::size_t pos = 0;
  const std::size_t n = text.size();
  while (pos < n) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = n;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == 'c') continue;

    ProofStep step;
    std::size_t cursor = 0;
    if (line[0] == 'd') {
      step.is_delete = true;
      cursor = 1;
    }
    bool terminated = false;
    while (cursor < line.size()) {
      while (cursor < line.size() && line[cursor] == ' ') ++cursor;
      if (cursor >= line.size()) break;
      // One whole int token; INT_MIN has no int magnitude to negate.
      const char* token = line.c_str() + cursor;
      char* end = nullptr;
      const long long lit = std::strtoll(token, &end, 10);
      if (end == token || lit <= INT_MIN || lit > INT_MAX ||
          (*end != '\0' && !std::isspace(static_cast<unsigned char>(*end)))) {
        return false;
      }
      cursor = static_cast<std::size_t>(end - line.c_str());
      if (lit == 0) {
        terminated = true;
        break;
      }
      step.lits.push_back(Lit::from_dimacs(static_cast<int>(lit)));
    }
    if (!terminated) return false;
    out.push_back(std::move(step));
  }
  return true;
}

namespace {

/// Simple clause store for the RUP checker: active clauses as literal
/// vectors, deletions by multiset match.
class CheckerDb {
 public:
  explicit CheckerDb(const CnfFormula& f) {
    for (const Clause& c : f.clauses()) add(c);
  }

  void add(std::vector<Lit> lits) {
    std::sort(lits.begin(), lits.end());
    clauses_.push_back(std::move(lits));
  }

  bool remove(std::vector<Lit> lits) {
    std::sort(lits.begin(), lits.end());
    for (auto it = clauses_.begin(); it != clauses_.end(); ++it) {
      if (*it == lits) {
        clauses_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Checks that asserting the negation of `clause` and unit-propagating
  /// to fixpoint yields a conflict (clause is RUP).
  bool is_rup(const std::vector<Lit>& clause, std::size_t num_vars) const {
    std::vector<LBool> value(num_vars, LBool::kUndef);
    const auto assign = [&](Lit l) -> bool {  // false on conflict
      const LBool want = to_lbool(!l.negated());
      if (value[l.var()] == LBool::kUndef) {
        value[l.var()] = want;
        return true;
      }
      return value[l.var()] == want;
    };
    for (const Lit l : clause) {
      if (!assign(~l)) return true;  // negation already contradictory
    }
    // Naive propagation to fixpoint.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::vector<Lit>& c : clauses_) {
        Lit unit = Lit::undef();
        bool satisfied = false;
        std::size_t unassigned = 0;
        for (const Lit l : c) {
          const LBool v = value[l.var()];
          if (v == LBool::kUndef) {
            ++unassigned;
            unit = l;
          } else if ((v == LBool::kTrue) != l.negated()) {
            // literal true under current assignment
            satisfied = true;
            break;
          }
        }
        if (satisfied) continue;
        if (unassigned == 0) return true;  // conflict: clause falsified
        if (unassigned == 1) {
          if (!assign(unit)) return true;
          changed = true;
        }
      }
    }
    return false;  // fixpoint without conflict: not RUP
  }

 private:
  std::vector<std::vector<Lit>> clauses_;
};

}  // namespace

ProofCheckResult verify_unsat_proof(const CnfFormula& formula,
                                    const std::vector<ProofStep>& steps) {
  ProofCheckResult result;
  CheckerDb db(formula);
  bool derived_empty = false;

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const ProofStep& step = steps[i];
    for (const Lit l : step.lits) {
      if (l.var() >= formula.num_vars()) {
        result.error = "literal " + std::to_string(l.to_dimacs()) +
                       " names a variable the formula does not have";
        result.failed_step = i;
        return result;
      }
    }
    if (step.is_delete) {
      if (!db.remove(step.lits)) {
        result.error = "deletion of unknown clause";
        result.failed_step = i;
        return result;
      }
      continue;
    }
    if (!db.is_rup(step.lits, formula.num_vars())) {
      result.error = "added clause is not RUP";
      result.failed_step = i;
      return result;
    }
    if (step.lits.empty()) {
      derived_empty = true;
      break;  // proof complete
    }
    db.add(step.lits);
  }

  if (!derived_empty) {
    result.error = "proof does not derive the empty clause";
    result.failed_step = steps.size();
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace ns::solver
