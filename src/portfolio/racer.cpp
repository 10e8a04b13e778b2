#include "portfolio/racer.hpp"

#include <algorithm>
#include <optional>

#include "audit/race_audit.hpp"
#include "runtime/annotations.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::portfolio {
namespace {

/// (ticks, config id) lexicographic race order: the candidate with the
/// smaller pair wins. Strictly-less; equal pairs never arise (ids unique).
struct Candidate {
  std::uint64_t ticks = 0;
  std::uint32_t id = 0;
};

bool beats(const Candidate& a, const Candidate& b) {
  return a.ticks < b.ticks || (a.ticks == b.ticks && a.id < b.id);
}

/// Per-engine race bookkeeping, owned by the barrier thread; during a
/// round each lane body writes only its own entry.
struct Lane {
  std::size_t engine = 0;           ///< index into engines_ / registry
  std::uint64_t base_ticks = 0;     ///< lifetime ticks at race start
  solver::SolveOutcome last;        ///< most recent slice outcome
  EngineRaceResult rec;
};

/// Mid-round eager-cancellation state: the best decided (ticks, id)
/// candidate seen so far this round. Lane bodies publish their decisions
/// here and interrupt rivals whose tick watermark proves them already
/// lost; the guard is the annotated runtime::Mutex so -Wthread-safety
/// proves every `best` access happens under the sweep lock.
struct Sweep {
  runtime::Mutex mutex;
  std::optional<Candidate> best NS_GUARDED_BY(mutex);
};

// NS_HOT(once per mid-round lane decision: publish winner, cancel losers)
/// Under the sweep lock, promotes `cand` (the deciding `lane`'s candidate)
/// to the round best and interrupts every rival whose tick watermark
/// already proves a worse (ticks, id) — the watermark only under-reports,
/// so a rival that still could win is never hit. Declared `root` + `slack`
/// in src/HOTPATHS.txt: the mutex here is the one sanctioned hot-path
/// lock, held for an O(lanes) flag sweep.
void sweep_decided(Sweep& sweep, const Candidate& cand,
                   std::vector<Lane>& lanes,
                   const std::vector<std::size_t>& active, const Lane& lane,
                   const std::vector<std::unique_ptr<solver::Solver>>& engines) {
  // NS_SUPPRESS(blocking): this is the slack-sanctioned sweep lock — held
  // for an O(lanes) flag pass, never across a solve slice.
  runtime::MutexLock lock(sweep.mutex);
  if (!sweep.best || beats(cand, *sweep.best)) sweep.best = cand;
  for (std::size_t j : active) {
    Lane& rival = lanes[j];
    if (&rival == &lane) continue;
    const solver::Solver& reng = *engines[rival.engine];
    const Candidate seen{reng.ticks_observed() - rival.base_ticks,
                         rival.rec.config_id};
    if (beats(*sweep.best, seen)) engines[rival.engine]->interrupt();
  }
}

}  // namespace

PortfolioRacer::PortfolioRacer(const EngineConfigRegistry& registry,
                               RacerOptions options)
    : registry_(registry), options_(options) {
  engines_.reserve(registry_.size());
  for (const EngineConfig& c : registry_.configs()) {
    engines_.push_back(std::make_unique<solver::Solver>(c.options));
  }
}

PortfolioRacer::~PortfolioRacer() = default;

void PortfolioRacer::load(const CnfFormula& formula) {
  for (auto& e : engines_) {
    e->clear_interrupt();
    e->load(formula);
  }
  loaded_ = true;
}

RaceResult PortfolioRacer::race() { return run_race(true, {}, {}); }

RaceResult PortfolioRacer::race(std::span<const Lit> assumptions) {
  return run_race(true, {}, assumptions);
}

RaceResult PortfolioRacer::race_subset(std::span<const std::uint32_t> ids,
                                       std::span<const Lit> assumptions) {
  return run_race(false, ids, assumptions);
}

RaceResult PortfolioRacer::run_race(bool all,
                                    std::span<const std::uint32_t> ids,
                                    std::span<const Lit> assumptions) {
  RaceResult out;
  out.engines.resize(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    out.engines[i].config_id = registry_[i].id;
  }
  if (!loaded_) return out;

  // Resolve the raced subset: all configs by default; explicit ids are
  // deduped and raced in ascending id order (order only affects reporting —
  // the winner rule is order-free).
  std::vector<std::uint32_t> subset(ids.begin(), ids.end());
  if (all) {
    subset.resize(engines_.size());
    for (std::size_t i = 0; i < subset.size(); ++i) {
      subset[i] = static_cast<std::uint32_t>(i);
    }
  }
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  std::erase_if(subset, [&](std::uint32_t id) {
    return static_cast<std::size_t>(id) >= engines_.size();
  });

  std::vector<Lane> lanes(subset.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Lane& lane = lanes[i];
    lane.engine = subset[i];
    solver::Solver& eng = *engines_[lane.engine];
    eng.clear_interrupt();
    lane.base_ticks = eng.stats().ticks;
    lane.rec.config_id = registry_[lane.engine].id;
    lane.rec.participated = true;
  }

  Sweep sweep;

  std::vector<std::size_t> active(lanes.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;

  // The race-level best over all decided lanes; barrier-maintained.
  std::optional<Candidate> best;
  std::optional<std::size_t> best_lane;

  while (!active.empty()) {
    ++out.rounds;

    auto body = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        Lane& lane = lanes[active[i]];
        solver::Solver& eng = *engines_[lane.engine];
        eng.set_budget({.conflicts = 0,
                        .propagations = 0,
                        .ticks = options_.slice_ticks});
        lane.last = eng.solve_with_assumptions(assumptions);
        ++lane.rec.slices;
        lane.rec.stats += lane.last.stats;  // fold the slice's query delta

        if (options_.eager_cancel &&
            lane.last.result != solver::SatResult::kUnknown) {
          // This lane decided mid-round: publish it through the sweep
          // mutex and eagerly cancel provably-lost rivals.
          sweep_decided(sweep,
                        Candidate{eng.stats().ticks - lane.base_ticks,
                                  lane.rec.config_id},
                        lanes, active, lane, engines_);
        }
      }
    };
    if (options_.pool != nullptr) {
      options_.pool->parallel_for(active.size(), body);
    } else {
      runtime::parallel_for(active.size(), body);
    }

    // Barrier bookkeeping: classify every active lane's slice, fold new
    // decisions into the race best, then retire lanes that are decided,
    // exhausted, or provably lost. Single-threaded and (absent mid-slice
    // interrupts) a pure function of deterministic per-engine tick counts.
    std::vector<std::size_t> decided_now;
    for (std::size_t li : active) {
      Lane& lane = lanes[li];
      lane.rec.ticks = engines_[lane.engine]->stats().ticks - lane.base_ticks;
      if (lane.last.result != solver::SatResult::kUnknown) {
        lane.rec.decided = true;
        lane.rec.result = lane.last.result;
        lane.rec.why = solver::StopReason::kNone;
        decided_now.push_back(li);
      } else if (lane.last.why == solver::StopReason::kInterrupted) {
        lane.rec.cancelled = true;  // eager cancellation landed mid-slice
        lane.rec.why = solver::StopReason::kInterrupted;
      }
    }
    for (std::size_t li : decided_now) {
      const Candidate cand{lanes[li].rec.ticks, lanes[li].rec.config_id};
      if (!best || beats(cand, *best)) {
        best = cand;
        best_lane = li;
      }
    }

    std::vector<std::size_t> still_active;
    for (std::size_t li : active) {
      Lane& lane = lanes[li];
      if (lane.rec.decided || lane.rec.cancelled) continue;
      if (lane.last.why != solver::StopReason::kTickBudget) {
        // A lifetime budget (options.max_*) tripped: the engine cannot
        // make further progress — it leaves exhausted, keeping its reason.
        lane.rec.why = lane.last.why;
        continue;
      }
      if (options_.max_ticks != 0 && lane.rec.ticks >= options_.max_ticks) {
        lane.rec.why = solver::StopReason::kTickBudget;  // race timeout
        continue;
      }
      if (best && beats(*best, Candidate{lane.rec.ticks,
                                         lane.rec.config_id})) {
        // Provably lost: even an instant decision next slice lands on a
        // (ticks, id) pair behind the current best. Cancel through the
        // sticky interrupt hook (the engine is idle; the flag simply
        // records the cancellation until the next race clears it).
        lane.rec.cancelled = true;
        lane.rec.why = solver::StopReason::kInterrupted;
        engines_[lane.engine]->interrupt();
        continue;
      }
      still_active.push_back(li);
    }
    active = std::move(still_active);
  }

  if (best_lane) {
    Lane& w = lanes[*best_lane];
    out.result = w.last.result;
    out.model = std::move(w.last.model);
    out.core = std::move(w.last.core);
    out.why = solver::StopReason::kNone;
    out.winner = static_cast<int>(w.rec.config_id);
    out.winner_ticks = w.rec.ticks;
  } else if (!lanes.empty()) {
    // Every raced engine exhausted a budget: report the lowest id's reason.
    out.why = lanes.front().rec.why;
  }
  for (const Lane& lane : lanes) out.engines[lane.engine] = lane.rec;

  audit::enforce(audit::check_race(out), "PortfolioRacer::race");
  return out;
}

}  // namespace ns::portfolio
