#pragma once
/// \file options.hpp
/// Tunable solver parameters. Defaults follow mainstream CDCL practice
/// (MiniSat/Glucose/Kissat lineage); everything is overridable per run so
/// benches can sweep them.

#include <cstdint>

#include "policy/deletion_policy.hpp"

namespace ns::solver {

/// Restart scheduling strategies.
enum class RestartMode : std::uint8_t {
  kLuby,        ///< Luby sequence scaled by restart_interval
  kGlucoseEma,  ///< fast/slow LBD exponential moving averages
};

/// Decision-variable selection heuristics.
enum class DecisionMode : std::uint8_t {
  kEvsids,  ///< exponential VSIDS (activity heap)
  kVmtf,    ///< variable move-to-front queue (Kissat "focused" mode)
};

/// All knobs of the CDCL engine.
struct SolverOptions {
  // --- decision heuristic ------------------------------------------------
  DecisionMode decision_mode = DecisionMode::kEvsids;
  double var_decay = 0.95;  ///< EVSIDS activity decay per conflict

  // --- restarts ------------------------------------------------------------
  RestartMode restart_mode = RestartMode::kGlucoseEma;
  std::uint64_t restart_interval = 256;  ///< base for Luby; min gap for EMA

  // --- clause database reduction -------------------------------------------
  policy::PolicyKind deletion_policy = policy::PolicyKind::kDefault;
  /// Reduce cadence: tuned for the suite's instance scale (10²-10³ vars) so
  /// several reductions fire per solve; big-iron solvers use larger bases.
  std::uint64_t reduce_interval = 100;  ///< conflicts before first reduce
  std::uint64_t reduce_interval_inc = 50;  ///< added after every reduce
  double reduce_fraction = 0.65;  ///< fraction of reducible clauses deleted
  std::uint32_t keep_glue = 2;   ///< glue <= this is never reducible ("core")
  double frequency_alpha = 0.8;  ///< Eq. 2 threshold for kFrequency (4/5)

  // --- preprocessing ---------------------------------------------------------
  /// Run root-level simplification (unit propagation, pure literals,
  /// subsumption; see simplify.hpp) before the search.
  bool preprocess = false;

  // --- clause-arena garbage collection --------------------------------------
  /// 0 (default): eager — every reduce pass compacts the arena and rebuilds
  /// the watch lists immediately (the single-shot golden-trajectory path).
  /// > 0: deferred — reduce only detaches and marks deleted clauses; the
  /// solver batches them into one compacting collection (with in-place,
  /// order-preserving watch remapping) once the dead fraction of the arena
  /// reaches this value. Long-lived incremental engines want ~0.2–0.5.
  double gc_frac = 0.0;

  // --- budgets (the "timeout" proxy; 0 = unlimited) -------------------------
  // Lifetime budgets, checked against cumulative counters. Per-query
  // budgets for incremental use are set via Solver::set_budget instead.
  std::uint64_t max_conflicts = 0;
  std::uint64_t max_propagations = 0;

  // --- result materialization ----------------------------------------------
  /// true (default): every solve() hands back owning copies of the model
  /// and the failed-assumption core in its SolveOutcome — one heap
  /// allocation per decided query. false: SolveOutcome.model/.core stay
  /// empty and callers read the engine-owned buffers via
  /// Solver::last_model() / failed_assumptions() instead (valid until the
  /// next query) — the allocation-free steady state bench_micro_solver's
  /// counting-allocator window enforces for latency-critical streams.
  bool materialize_results = true;
};

}  // namespace ns::solver
