#include "solver/analyze.hpp"

#include <cassert>

namespace ns::solver {

void Analyzer::reset(std::size_t num_vars) {
  seen_.assign(num_vars, 0);
  analyze_clear_.clear();
  minimize_stack_.clear();
  level_stamp_.assign(num_vars + 1, 0);
  level_stamp_time_ = 0;
}

bool Analyzer::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  const Trail& trail = ctx_.trail;
  minimize_stack_.clear();
  // NS_SUPPRESS(allocation): persistent scratch — reaches its high-water
  // mark (bounded by trail depth) after warmup and never reallocates in
  // steady state.
  minimize_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!minimize_stack_.empty()) {
    const Lit x = minimize_stack_.back();
    minimize_stack_.pop_back();
    assert(trail.reason(x.var()) != kInvalidClause);
    ClauseView c = ctx_.db.view(trail.reason(x.var()));

    // Examines one antecedent literal; returns false when `l` is proven
    // non-redundant (scratch already unwound).
    const auto examine = [&](Lit q) -> bool {
      ++ctx_.stats.minimize_ticks;
      const Var v = q.var();
      if (seen_[v] || trail.level(v) == 0) return true;
      const bool expandable =
          trail.reason(v) != kInvalidClause &&
          ((1u << (trail.level(v) & 31)) & abstract_levels) != 0;
      if (!expandable) {
        for (std::size_t t = top; t < analyze_clear_.size(); ++t) {
          seen_[analyze_clear_[t].var()] = 0;
        }
        // NS_SUPPRESS(allocation): shrink-only resize (top <= size), which
        // never reallocates.
        analyze_clear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      // NS_SUPPRESS(allocation): persistent scratch, bounded by trail
      // depth; high-water capacity is reached after warmup.
      minimize_stack_.push_back(q);
      // NS_SUPPRESS(allocation): same persistent-scratch bound as above.
      analyze_clear_.push_back(q);
      return true;
    };

    if (c.size() == 2) {
      // Binary reasons are never normalized; find the other literal by var.
      const Lit q = c.lit(0).var() == x.var() ? c.lit(1) : c.lit(0);
      if (!examine(q)) return false;
    } else {
      for (std::uint32_t k = 1; k < c.size(); ++k) {
        if (!examine(c.lit(k))) return false;
      }
    }
  }
  return true;
}

// NS_HOT(runs once per conflict — the second-hottest solver loop after BCP)
void Analyzer::analyze(Decider& decider, ClauseRef conflict,
                       std::vector<Lit>& learned,
                       std::uint32_t& backjump_level, std::uint32_t& glue) {
  const Trail& trail = ctx_.trail;
  const std::uint32_t current_level = trail.decision_level();
  learned.clear();
  // NS_SUPPRESS(allocation): `learned` is the solver's reused conflict
  // buffer; capacity persists across conflicts (high-water mark).
  learned.push_back(Lit::undef());  // slot for the asserting (UIP) literal
  analyze_clear_.clear();

  std::uint32_t path_count = 0;
  Lit p = Lit::undef();
  std::size_t index = trail.size();
  ClauseRef cr = conflict;

  do {
    ClauseView c = ctx_.db.view(cr);
    if (c.learned()) {
      c.set_used(true);
      // Glucose-style dynamic LBD refresh: keep the smallest observed glue.
      // compute_glue scores the clause view in place — no copy.
      const std::uint32_t fresh = compute_glue(c);
      if (fresh < c.glue()) c.set_glue(fresh);
    }

    const auto examine = [&](Lit q) {
      ++ctx_.stats.analyze_ticks;
      const Var v = q.var();
      if (seen_[v] || trail.level(v) == 0) return;
      seen_[v] = 1;
      decider.bump(v);
      if (trail.level(v) >= current_level) {
        ++path_count;
      } else {
        // NS_SUPPRESS(allocation): reused conflict buffer (high-water mark).
        learned.push_back(q);
        // NS_SUPPRESS(allocation): persistent scratch (high-water mark).
        analyze_clear_.push_back(q);
      }
    };

    if (p.is_defined() && c.size() == 2) {
      // Binary reason: the implied literal sits at either index.
      examine(c.lit(0).var() == p.var() ? c.lit(1) : c.lit(0));
    } else {
      // Conflict clauses and long reasons keep the propagation-time
      // normalization, so the implied literal (when any) is at index 0.
      for (std::uint32_t j = p.is_defined() ? 1 : 0; j < c.size(); ++j) {
        examine(c.lit(j));
      }
    }
    // Walk the trail backwards to the next marked literal.
    while (!seen_[trail[index - 1].var()]) --index;
    p = trail[--index];
    cr = trail.reason(p.var());
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  learned[0] = ~p;

  // Recursive (deep) minimization of the non-UIP literals.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    abstract_levels |= 1u << (trail.level(learned[i].var()) & 31);
  }
  const std::size_t before = learned.size();
  std::size_t out = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    const Lit l = learned[i];
    if (trail.reason(l.var()) == kInvalidClause ||
        !lit_redundant(l, abstract_levels)) {
      learned[out++] = l;
    }
  }
  // NS_SUPPRESS(allocation): shrink-only resize (out <= size) after
  // minimization; never reallocates.
  learned.resize(out);
  ctx_.stats.minimized_literals += before - learned.size();

  // Determine backjump level and place the second watch.
  if (learned.size() == 1) {
    backjump_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learned.size(); ++i) {
      if (trail.level(learned[i].var()) > trail.level(learned[max_i].var())) {
        max_i = i;
      }
    }
    std::swap(learned[1], learned[max_i]);
    backjump_level = trail.level(learned[1].var());
  }
  glue = compute_glue(learned);

  for (Lit l : analyze_clear_) seen_[l.var()] = 0;
  analyze_clear_.clear();
}

void Analyzer::analyze_final(Lit failed, std::vector<Lit>& out) {
  const Trail& trail = ctx_.trail;
  out.clear();
  out.push_back(failed);
  if (trail.decision_level() == 0) return;
  seen_[failed.var()] = 1;
  for (std::size_t i = trail.size(); i-- > trail.level_begin(0);) {
    const Var v = trail[i].var();
    if (!seen_[v]) continue;
    if (trail.reason(v) == kInvalidClause) {
      // A decision in the assumption prefix: part of the failed core.
      out.push_back(trail[i]);
    } else {
      ClauseView c = ctx_.db.view(trail.reason(v));
      const auto mark = [&](Lit q) {
        const Var u = q.var();
        if (trail.level(u) > 0) seen_[u] = 1;
      };
      if (c.size() == 2) {
        mark(c.lit(0).var() == v ? c.lit(1) : c.lit(0));
      } else {
        for (std::uint32_t k = 1; k < c.size(); ++k) mark(c.lit(k));
      }
    }
    seen_[v] = 0;
  }
  seen_[failed.var()] = 0;
}

}  // namespace ns::solver
