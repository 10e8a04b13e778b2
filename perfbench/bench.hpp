#pragma once
/// \file bench.hpp
/// Shared vocabulary of the perfbench runner: the span tracer, per-layer
/// accumulators, deterministic item fingerprints, and the Workload interface
/// the loop in main.cpp runs.
///
/// A workload is a closed loop with one client: the runner prepares item i
/// (untimed input generation), executes it (the timed region, DIMACS text or
/// query in, answer out), verifies the answer (untimed), and only then moves
/// on to item i + 1. A traced run executes every item twice — once with a
/// Probe recording spans and layer counters, once without — in alternating
/// order, so the paired latencies give the tracing overhead and the paired
/// fingerprints prove that observing a run does not change its search path.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solver/stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by this process so far (counting operator new,
/// defined in main.cpp).
std::size_t alloc_count();

/// Process CPU time in seconds (all threads).
double process_cpu_seconds();

/// The layer boundaries a span can mark. kItem is the root of one timed
/// item; kStream groups the per-stream front end of the incremental
/// workload.
enum class Layer : std::uint8_t {
  kItem,
  kStream,
  kParse,
  kSimplify,
  kVcBuild,
  kLcBuild,
  kTensors,
  kRecord,
  kExecute,
  kSelect,
  kLoad,
  kSolve,
  kAddClause,
  kQuery,
  kPortfolioLoad,
  kRace,
  kCount,
};

const char* layer_name(Layer layer);

/// One closed span: [t0, t1) on the steady clock, with its parent span
/// (-1 for a root) and the item it belongs to.
struct Span {
  Layer layer = Layer::kItem;
  std::int32_t parent = -1;
  std::uint64_t item = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Spans in recording order. A deque, so that recording never copies the
/// log inside a timed item the way a growing vector would.
using SpanLog = std::deque<Span>;

/// Sum and call count of one per-layer quantity.
struct Accum {
  double sum = 0.0;
  double calls = 0.0;
  double mean() const { return calls > 0.0 ? sum / calls : 0.0; }
};

/// Everything a traced execution records: spans kept in memory (written
/// out when the run ends) and per-layer counters.
class Probe {
 public:
  /// Adds one observation of a per-layer counter.
  void add(const std::string& name, double value) {
    Accum& a = counters_[name];
    a.sum += value;
    a.calls += 1.0;
  }

  void set_item(std::uint64_t item) { item_ = item; }

  std::int32_t open(Layer layer) {
    Span s;
    s.layer = layer;
    s.parent = open_;
    s.item = item_;
    spans_.push_back(s);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    spans_.back().t0 = now_ns();
    return open_;
  }

  void close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_ns();
    open_ = s.parent;
  }

  const SpanLog& spans() const { return spans_; }
  const std::map<std::string, Accum>& counters() const { return counters_; }

 private:
  SpanLog spans_;
  std::map<std::string, Accum> counters_;
  std::int32_t open_ = -1;
  std::uint64_t item_ = 0;
};

/// RAII span around one call into a layer; free when `probe` is null.
class Scope {
 public:
  Scope(Probe* probe, Layer layer)
      : probe_(probe), id_(probe ? probe->open(layer) : -1) {}
  ~Scope() {
    if (probe_ != nullptr) probe_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Probe* probe_;
  std::int32_t id_;
};

/// The deterministic counters of one item that must repeat exactly between
/// traced and untraced executions and between runs at the same seed.
struct Fingerprint {
  std::uint64_t ticks = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t winner_ticks = 0;
  int chosen = -1;  ///< binary_selection primary; -1 when no selection ran

  bool operator==(const Fingerprint&) const = default;
};

/// One execution of an item: the timed latency plus what the runner needs.
struct Exec {
  double latency_ms = 0.0;
  /// kUnknown when the budget ran out before an answer.
  ns::solver::SatResult result = ns::solver::SatResult::kUnknown;
  Fingerprint fp;
};

/// Known satisfiability of a generated instance.
enum class Status : std::uint8_t { kUnknown, kSat, kUnsat };

/// One workload of the benchmark.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Pool threads this workload runs with.
  virtual std::size_t threads() const = 0;

  /// Builds the serving state anew (classifier, engines) and warms
  /// it up on a few items of kWarmupSeed, so that set-up does the same work
  /// whatever the run seed. Called several times; the last state is used.
  virtual void setup() = 0;

  /// Untimed: generates the input of item `index` (deterministic in the
  /// seed and the index).
  virtual void prepare(std::uint64_t index) = 0;

  /// Runs the prepared item through the layers; only this is timed. With
  /// a probe, records spans and layer counters. A traced run calls this
  /// twice per item (probe and no probe); stateful workloads keep a twin
  /// engine per mode so both executions see the same state.
  virtual Exec execute(Probe* probe) = 0;

  /// Untimed: checks the answer of the last execute(). Returns an empty
  /// string when it is correct, else what is wrong.
  virtual std::string verify() = 0;

  /// Self-test hook: spoils the last answer's model so that verify() must
  /// report it. False when the last answer was not SAT.
  virtual bool corrupt_answer() = 0;
};

std::unique_ptr<Workload> make_triage(std::uint64_t seed,
                                      const std::string& model_path);
std::unique_ptr<Workload> make_hard_solve(std::uint64_t seed,
                                          const std::string& model_path);
std::unique_ptr<Workload> make_incremental(std::uint64_t seed,
                                           const std::string& model_path);
std::unique_ptr<Workload> make_race(std::uint64_t seed);

/// Seed of the warm-up items every workload's setup() runs.
inline constexpr std::uint64_t kWarmupSeed = 0x5eed;

/// SplitMix64 step: derives independent per-item seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Records the search counters of one solve call on the probe.
void add_search_counters(Probe& probe, const ns::solver::Statistics& s,
                         double solve_seconds);

}  // namespace perfbench
