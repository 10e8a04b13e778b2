#pragma once
/// \file racer.hpp
/// Deterministic parallel portfolio racing (DESIGN.md §15): K long-lived
/// `Solver` engines — one per `EngineConfig` — race on one instance over
/// the runtime ThreadPool, with first-winner cancellation through the
/// sticky `Solver::interrupt()` hook.
///
/// The race is *round-based and tick-sliced*, not wall-clock: every active
/// engine runs `solve()` slices of `slice_ticks` per-query tick budget, a
/// barrier separates rounds, and the winner is the lexicographic minimum of
/// (completion ticks, config id) over engines that decided the instance.
/// Tick counts are deterministic engine properties, so the winner — and its
/// result, model/core, and per-query stats — is bit-reproducible at any
/// thread count (verify against `core::label_portfolio`, the serial replay
/// oracle).
///
/// Eager cancellation is proof-based: mid-round, a finished engine's
/// (ticks, id) candidate is compared against rivals' cross-thread tick
/// watermarks (`Solver::ticks_observed()`), and an engine is interrupted
/// only when the watermark *proves* it already raced past the candidate.
/// The watermark only under-reports, so the true winner is never
/// interrupted; eager cancellation can only change *when* already-lost
/// engines stop (their `cancelled`/`ticks` fields are timing-dependent),
/// never who wins. Set `eager_cancel = false` to make the entire
/// `RaceResult` — loser records included — bitwise deterministic.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/types.hpp"
#include "portfolio/engine_config.hpp"
#include "solver/solver.hpp"

namespace ns::runtime {
class ThreadPool;
}  // namespace ns::runtime

namespace ns::portfolio {

/// Race-wide knobs.
struct RacerOptions {
  /// Per-round, per-engine tick budget. Smaller slices cancel losers
  /// sooner but pay more solve() re-entries (each backtracks to root, like
  /// a restart); larger slices approach run-to-completion racing.
  std::uint64_t slice_ticks = 20'000;
  /// Per-engine race tick cap (0 = unlimited): an engine whose race ticks
  /// reach this without deciding leaves the race as *exhausted* (not
  /// cancelled), keeping its budget StopReason. The deterministic stand-in
  /// for a wall-clock timeout.
  std::uint64_t max_ticks = 0;
  /// Interrupt provably-lost engines mid-round (see file comment). Off:
  /// losers only leave at barriers, and the whole RaceResult is bitwise
  /// deterministic.
  bool eager_cancel = true;
  /// Pool to race on (nullptr = the global pool via runtime::parallel_for).
  /// Tests pass an unclamped pool to drive real cross-thread cancellation
  /// on machines with fewer cores than engines.
  runtime::ThreadPool* pool = nullptr;
};

/// Per-engine view of one race.
struct EngineRaceResult {
  std::uint32_t config_id = 0;
  bool participated = false;  ///< was in the raced subset
  bool decided = false;       ///< finished with kSat/kUnsat
  bool cancelled = false;     ///< lost the race; why == kInterrupted
  solver::SatResult result = solver::SatResult::kUnknown;
  /// kNone for the winner and other decided engines; kInterrupted for
  /// cancelled losers; the budget reason for exhausted engines.
  solver::StopReason why = solver::StopReason::kNone;
  std::uint64_t ticks = 0;   ///< lifetime tick delta burned in this race
  std::uint64_t slices = 0;  ///< solve() slices this engine ran
  /// Sum of the per-slice query deltas (== the lifetime delta; the
  /// race.stats audit rule checks the tick column of that identity).
  solver::Statistics stats;
};

/// Outcome of one race. `engines` always has one entry per registry
/// config, in id order; non-raced configs have `participated == false`.
struct RaceResult {
  solver::SatResult result = solver::SatResult::kUnknown;
  Model model;             ///< winner's model when kSat
  std::vector<Lit> core;   ///< winner's failed-assumption core when kUnsat
  solver::StopReason why = solver::StopReason::kNone;  ///< when kUnknown
  int winner = -1;         ///< winning config id; -1 when undecided
  std::uint64_t winner_ticks = 0;  ///< winner's race tick count (tie key)
  std::uint64_t rounds = 0;        ///< barrier rounds the race ran
  std::vector<EngineRaceResult> engines;
};

/// Races one instance across the registry's engines. The racer is a warm
/// multi-engine session: `load()` once, then `race()` repeatedly (with
/// different assumptions or subsets) — engines keep learned clauses and
/// heuristic state across races, exactly like PR 7's incremental streams.
/// Every race checks its result with `audit::check_race` before returning
/// it, and throws `audit::AuditError` on a violation.
class PortfolioRacer {
 public:
  explicit PortfolioRacer(const EngineConfigRegistry& registry,
                          RacerOptions options = {});
  ~PortfolioRacer();

  PortfolioRacer(const PortfolioRacer&) = delete;
  PortfolioRacer& operator=(const PortfolioRacer&) = delete;

  /// Loads `formula` into every engine and clears sticky interrupts.
  void load(const CnfFormula& formula);

  /// Races every config on the loaded formula.
  RaceResult race();

  /// Races every config under `assumptions` (incremental interface).
  RaceResult race(std::span<const Lit> assumptions);

  /// Races only `ids` (e.g. a classifier-chosen subset). Unknown ids are
  /// ignored; an empty subset yields an undecided result. Duplicate ids
  /// race once.
  RaceResult race_subset(std::span<const std::uint32_t> ids,
                         std::span<const Lit> assumptions = {});

  std::size_t size() const { return engines_.size(); }
  const EngineConfigRegistry& registry() const { return registry_; }
  const RacerOptions& options() const { return options_; }

  /// Engine introspection (tests, stats JSON).
  solver::Solver& engine(std::size_t i) { return *engines_[i]; }
  const solver::Solver& engine(std::size_t i) const { return *engines_[i]; }

 private:
  RaceResult run_race(bool all, std::span<const std::uint32_t> ids,
                      std::span<const Lit> assumptions);

  EngineConfigRegistry registry_;
  RacerOptions options_;
  std::vector<std::unique_ptr<solver::Solver>> engines_;
  bool loaded_ = false;
};

}  // namespace ns::portfolio
