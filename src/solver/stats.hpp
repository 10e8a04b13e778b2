#pragma once
/// \file stats.hpp
/// Solver statistics and result vocabulary. Propagation count doubles as
/// the deterministic "runtime" proxy used throughout the evaluation (the
/// paper uses the same proxy to label training data, Sec. 5.1).
///
/// Multi-query semantics (incremental engine): the engine accumulates one
/// `Statistics` over its whole lifetime; each `solve()` call returns the
/// *per-query delta* computed with `delta_since` against a snapshot taken
/// when the previous query ended. For a freshly loaded solver the first
/// query's delta equals the lifetime counters (the snapshot is all-zero),
/// which keeps single-shot trajectories bit-identical to the golden suite.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace ns::solver {

/// Outcome of a solve() call. (Lives here rather than solver.hpp so the
/// engine hooks can report query results without a circular include.)
enum class SatResult : std::uint8_t { kSat, kUnsat, kUnknown };

/// Why a solve() call returned kUnknown (kNone for decided results).
enum class StopReason : std::uint8_t {
  kNone,               ///< result is kSat or kUnsat
  kConflictBudget,     ///< conflict budget (per-query or lifetime) exhausted
  kPropagationBudget,  ///< propagation budget exhausted
  kTickBudget,         ///< tick budget exhausted
  kInterrupted,        ///< interrupt() observed
};

/// Stable lowercase identifier for JSON output / logs.
inline const char* stop_reason_name(StopReason r) {
  switch (r) {
    case StopReason::kNone:
      return "none";
    case StopReason::kConflictBudget:
      return "conflict-budget";
    case StopReason::kPropagationBudget:
      return "propagation-budget";
    case StopReason::kTickBudget:
      return "tick-budget";
    case StopReason::kInterrupted:
      return "interrupt";
  }
  return "none";
}

/// Counters accumulated over an engine lifetime (see delta_since for the
/// per-query view).
struct Statistics {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;   ///< variable assignments made by BCP
  std::uint64_t ticks = 0;          ///< watch-list visits (finer time proxy)
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t reductions = 0;     ///< clause-DB reduce passes
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t minimized_literals = 0;  ///< removed by clause minimization
  std::uint64_t max_trail = 0;      ///< watermark; query-scoped (see below)

  // --- incremental lifecycle --------------------------------------------
  std::uint64_t queries = 0;              ///< solve() calls since load
  std::uint64_t garbage_collections = 0;  ///< deferred arena compactions

  // --- binary-vs-long propagation split ---------------------------------
  // Watch visits and BCP enqueues broken down by clause class. The splits
  // partition their parents exactly except for `propagations`: root-level
  // unit assignments (input units, preprocessing, level-0 learned units)
  // count toward `propagations` but come from no watch list.
  std::uint64_t ticks_binary = 0;  ///< watch visits of inline binary entries
  std::uint64_t ticks_long = 0;    ///< watch visits that dereference a clause
  std::uint64_t propagations_binary = 0;  ///< enqueues from binary watches
  std::uint64_t propagations_long = 0;    ///< enqueues from long clauses

  // --- per-subsystem work counters --------------------------------------
  // One counter per search subsystem, in the same "ticks" spirit: the
  // dominant inner-loop step of that phase, so profiles of where a run
  // spends its deterministic time can be read off the stats alone.
  std::uint64_t analyze_ticks = 0;  ///< literals examined in 1-UIP analysis
  std::uint64_t minimize_ticks = 0;  ///< reason literals examined minimizing
  std::uint64_t decide_ticks = 0;   ///< heap pops + VMTF walk steps
  std::uint64_t reduce_ticks = 0;   ///< learned clauses scored at reduce

  /// Per-query view: every counter minus its value in `base` (the snapshot
  /// taken when the previous query ended). `max_trail` is a watermark, not
  /// a counter — the engine re-arms it to the root-trail height at query
  /// begin, so the current value *is* the per-query maximum and is copied
  /// verbatim rather than subtracted.
  Statistics delta_since(const Statistics& base) const;

  /// Adds every counter of `d`; `max_trail` takes the larger watermark.
  Statistics& operator+=(const Statistics& d);

  /// Deterministic pseudo-seconds: proportional to ticks. The constant is
  /// calibrated so typical suite instances land in a 0..5000 "second" range
  /// mirroring the paper's 5000 s timeout scale.
  double proxy_seconds() const {
    return static_cast<double>(ticks) / 1.0e5;
  }

  std::string summary() const {
    return "conflicts=" + std::to_string(conflicts) +
           " decisions=" + std::to_string(decisions) +
           " propagations=" + std::to_string(propagations) +
           " restarts=" + std::to_string(restarts) +
           " reductions=" + std::to_string(reductions);
  }
};

/// One counter of `Statistics`: its `--stats-json` key and its member.
struct CounterField {
  const char* name;
  std::uint64_t Statistics::*member;
};

/// Every counter of `Statistics`, in `--stats-json` key order. The sums,
/// deltas and JSON views walk this one list.
inline constexpr CounterField kCounterFields[] = {
    {"queries", &Statistics::queries},
    {"garbage_collections", &Statistics::garbage_collections},
    {"decisions", &Statistics::decisions},
    {"propagations", &Statistics::propagations},
    {"propagations_binary", &Statistics::propagations_binary},
    {"propagations_long", &Statistics::propagations_long},
    {"ticks", &Statistics::ticks},
    {"ticks_binary", &Statistics::ticks_binary},
    {"ticks_long", &Statistics::ticks_long},
    {"analyze_ticks", &Statistics::analyze_ticks},
    {"minimize_ticks", &Statistics::minimize_ticks},
    {"decide_ticks", &Statistics::decide_ticks},
    {"reduce_ticks", &Statistics::reduce_ticks},
    {"conflicts", &Statistics::conflicts},
    {"restarts", &Statistics::restarts},
    {"reductions", &Statistics::reductions},
    {"learned_clauses", &Statistics::learned_clauses},
    {"learned_literals", &Statistics::learned_literals},
    {"deleted_clauses", &Statistics::deleted_clauses},
    {"minimized_literals", &Statistics::minimized_literals},
    {"max_trail", &Statistics::max_trail},
};

// Statistics holds only std::uint64_t counters, so distinct entries that
// fill its size name every one of them.
static_assert(std::size(kCounterFields) * sizeof(std::uint64_t) ==
              sizeof(Statistics));
static_assert([] {
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (kCounterFields[i].member == kCounterFields[j].member) return false;
    }
  }
  return true;
}());

inline Statistics Statistics::delta_since(const Statistics& base) const {
  Statistics d;
  for (const CounterField& c : kCounterFields) {
    d.*c.member = this->*c.member - base.*c.member;
  }
  d.max_trail = max_trail;  // watermark, see the declaration
  return d;
}

inline Statistics& Statistics::operator+=(const Statistics& d) {
  const std::uint64_t peak = std::max(max_trail, d.max_trail);
  for (const CounterField& c : kCounterFields) this->*c.member += d.*c.member;
  max_trail = peak;  // watermark: the larger, not the sum
  return *this;
}

}  // namespace ns::solver
