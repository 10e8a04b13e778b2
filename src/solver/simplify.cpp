#include "solver/simplify.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace ns::solver {
namespace {

/// End of a clause chain in the occurrence index.
constexpr std::uint32_t kNoClause = UINT32_MAX;

/// 64-bit literal-set signature: one bit per literal code mod 64, so
/// small ⊆ big implies (signature(small) & ~signature(big)) == 0.
std::uint64_t signature(const Clause& c) {
  std::uint64_t sig = 0;
  for (const Lit l : c) sig |= std::uint64_t{1} << (l.code() & 63u);
  return sig;
}

/// True when `small` subsumes `big` (both sorted): small ⊆ big.
bool subsumes(const Clause& small, const Clause& big) {
  if (small.size() > big.size()) return false;
  std::size_t j = 0;
  for (const Lit l : small) {
    while (j < big.size() && big[j] < l) ++j;
    if (j == big.size() || big[j] != l) return false;
    ++j;
  }
  return true;
}

}  // namespace

Model SimplifyResult::complete_model(Model model) const {
  for (std::size_t v = 0; v < fixed.size(); ++v) {
    if (fixed[v] != LBool::kUndef) model[v] = fixed[v] == LBool::kTrue;
  }
  return model;
}

SimplifyResult simplify(const CnfFormula& input,
                        const SimplifyOptions& options) {
  SimplifyResult result;
  const std::size_t n = input.num_vars();
  result.fixed.assign(n, LBool::kUndef);

  // Working set of sorted clauses (CnfFormula stores clauses sorted).
  std::vector<Clause> clauses = input.clauses();
  std::vector<LBool>& value = result.fixed;

  const auto lit_value = [&](Lit l) {
    const LBool v = value[l.var()];
    if (v == LBool::kUndef) return LBool::kUndef;
    return l.negated() ? negate(v) : v;
  };

  bool changed = true;
  bool contradiction = input.has_empty_clause();
  while (changed && !contradiction) {
    changed = false;

    // 1. Strip falsified literals, drop satisfied clauses, find units.
    // Survivors are compacted in place, each keeping its relative order.
    std::size_t live = 0;
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      Clause& c = clauses[i];
      bool satisfied = false;
      std::size_t size = 0;
      for (const Lit l : c) {
        const LBool v = lit_value(l);
        if (v == LBool::kTrue) {
          satisfied = true;
          break;
        }
        if (v == LBool::kUndef) c[size++] = l;
      }
      if (satisfied) {
        ++result.removed_clauses;
        changed = true;
        continue;
      }
      result.removed_literals += c.size() - size;
      if (size != c.size()) changed = true;
      if (size == 0) {
        contradiction = true;
        break;
      }
      if (size == 1) {
        const Lit unit = c[0];
        value[unit.var()] = to_lbool(!unit.negated());
        ++result.fixed_units;
        ++result.removed_clauses;
        changed = true;
        continue;  // the unit is recorded in `fixed`, not kept as a clause
      }
      c.resize(size);
      if (live != i) clauses[live] = std::move(c);
      ++live;
    }
    if (contradiction) break;
    clauses.resize(live);

    // 2. Pure-literal elimination over the remaining clauses.
    if (!options.pure_literals) continue;
    std::vector<std::uint8_t> polarity(n, 0);  // bit0 positive, bit1 negative
    for (const Clause& c : clauses) {
      for (const Lit l : c) {
        polarity[l.var()] |= l.negated() ? 2 : 1;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (value[v] != LBool::kUndef) continue;
      if (polarity[v] == 1 || polarity[v] == 2) {
        value[v] = polarity[v] == 1 ? LBool::kTrue : LBool::kFalse;
        ++result.fixed_pures;
        changed = true;
      }
    }
  }

  result.consistent = !contradiction;
  result.formula = CnfFormula(n);
  if (contradiction) {
    result.formula.add_clause({});
    return result;
  }

  // 3. Forward subsumption over one-watch occurrence lists. Clauses are
  // visited in stable size order, so a clause can only be subsumed by an
  // earlier, not-larger one; a repeated clause is subsumed by its first
  // copy, or by whatever subsumed that copy. Each kept clause is chained
  // under its least frequent literal (head per literal, link per clause):
  // a kept k ⊆ c is chained under a literal of c, so walking the chains of
  // c's own literals meets every candidate subsumer.
  std::vector<std::uint32_t> order(clauses.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return clauses[a].size() < clauses[b].size();
                   });
  std::vector<std::uint32_t> occurrences(2 * n, 0);
  for (const Clause& c : clauses) {
    for (const Lit l : c) ++occurrences[l.code()];
  }
  std::vector<std::uint32_t> head(2 * n, kNoClause);
  std::vector<std::uint32_t> next(clauses.size(), kNoClause);
  std::vector<std::uint64_t> sig(clauses.size(), 0);
  std::size_t num_kept = 0;
  for (const std::uint32_t i : order) {
    const Clause& c = clauses[i];
    const std::uint64_t c_sig = signature(c);
    bool is_subsumed = false;
    for (std::size_t j = 0; j < c.size() && !is_subsumed; ++j) {
      for (std::uint32_t k = head[c[j].code()]; k != kNoClause; k = next[k]) {
        if ((sig[k] & ~c_sig) == 0 && subsumes(clauses[k], c)) {
          is_subsumed = true;
          break;
        }
      }
    }
    if (is_subsumed) {
      ++result.removed_clauses;
      continue;
    }
    Lit watch = c[0];
    for (const Lit l : c) {
      if (occurrences[l.code()] < occurrences[watch.code()]) watch = l;
    }
    sig[i] = c_sig;
    next[i] = head[watch.code()];
    head[watch.code()] = i;
    order[num_kept++] = i;  // survivors, in visit order, behind the scan
  }
  for (std::size_t j = 0; j < num_kept; ++j) {
    result.formula.add_clause(std::move(clauses[order[j]]));
  }
  return result;
}

}  // namespace ns::solver
