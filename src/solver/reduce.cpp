#include "solver/reduce.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "policy/deletion_policy.hpp"

namespace ns::solver {

void ReduceScheduler::reduce(Propagator& propagator) {
  Statistics& stats = ctx_.stats;
  const SolverOptions& opt = *ctx_.options;
  ClauseDb& db = ctx_.db;
  const Trail& trail = ctx_.trail;
  ++stats.reductions;

  // Eq. 2 inputs: f_max over the per-variable counters since last reduce.
  std::uint64_t f_max = 0;
  const bool track_freq =
      opt.deletion_policy == policy::PolicyKind::kFrequency;
  if (track_freq) {
    for (std::uint64_t f : ctx_.freq) f_max = std::max(f_max, f);
  }
  const double threshold = opt.frequency_alpha * static_cast<double>(f_max);

  struct Candidate {
    ClauseRef ref;
    std::uint64_t score;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(ctx_.learned.size());

  for (ClauseRef ref : ctx_.learned) {
    ++stats.reduce_ticks;
    ClauseView c = db.view(ref);
    if (c.glue() <= opt.keep_glue) continue;  // core tier, never deleted
    // A clause that is the reason of a current assignment must survive.
    // Binary clauses are not re-normalized by propagation, so their
    // implied literal may sit at either index; check both.
    const Lit first = c.lit(0);
    bool is_reason =
        ctx_.value(first) == LBool::kTrue && trail.reason(first.var()) == ref;
    if (!is_reason && c.size() == 2) {
      const Lit second = c.lit(1);
      is_reason = ctx_.value(second) == LBool::kTrue &&
                  trail.reason(second.var()) == ref;
    }
    if (is_reason) continue;
    if (c.used()) {
      // Recently involved in conflict analysis: one round of grace.
      c.set_used(false);
      continue;
    }
    policy::ClauseFeatures feat;
    feat.glue = c.glue();
    feat.size = c.size();
    if (track_freq) {
      std::uint32_t hot = 0;
      for (const Lit l : c) {
        if (f_max > 0 &&
            static_cast<double>(ctx_.freq[l.var()]) > threshold) {
          ++hot;
        }
      }
      feat.frequency = hot;
    }
    candidates.push_back(
        Candidate{ref, policy::retention_score(opt.deletion_policy, feat)});
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.ref < b.ref;  // deterministic tie-break
            });
  const std::size_t to_delete = static_cast<std::size_t>(
      opt.reduce_fraction * static_cast<double>(candidates.size()));
  const bool deferred = opt.gc_frac > 0.0;
  for (std::size_t i = 0; i < to_delete; ++i) {
    const ClauseRef ref = candidates[i].ref;
    if (ctx_.proof != nullptr) {
      ClauseView c = db.view(ref);
      ctx_.proof->on_delete(std::span<const Lit>(c.begin(), c.end()));
    }
    if (deferred) propagator.detach(ref);
    db.mark_garbage(ref);
    ++stats.deleted_clauses;
  }

  if (deferred) {
    // Deferred collection: the dead clauses stay in the arena (detached
    // from the watch lists above) until the solver's check_garbage trigger
    // batches them into one compacting pass. The learned list must shed
    // them now — ns::audit's db.learned_refs invariant requires it to
    // track exactly the live learned clauses.
    std::erase_if(ctx_.learned, [&db](ClauseRef ref) {
      return db.view(ref).garbage();
    });
  } else {
    // Eager collection: compact immediately, then remap references held
    // outside the arena (reasons, learned list) and rebuild the watches.
    db.garbage_collect();
    ctx_.remap_after_gc();
    propagator.rebuild();
    if (ctx_.listener != nullptr) ctx_.listener->on_garbage_collect();
  }

  // Restart the Eq. 2 window. (The whole-run histogram, when anyone wants
  // it, is accumulated by a PropagationHistogram listener instead.)
  std::fill(ctx_.freq.begin(), ctx_.freq.end(), 0);

  next_reduce_conflicts_ = stats.conflicts + opt.reduce_interval +
                           stats.reductions * opt.reduce_interval_inc;

  if (ctx_.listener != nullptr) {
    ctx_.listener->on_reduce(stats.reductions, to_delete, ctx_.learned.size());
  }
}

}  // namespace ns::solver
