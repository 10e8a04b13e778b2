/// \file main.cpp
/// perfbench runner: runs one workload for a fixed wall time, verifies
/// every answer, and writes a JSON report (end-to-end metrics, per-layer
/// metrics from the traced run, environment stamp, determinism fingerprint,
/// span integrity check). perfbench/run.py builds this binary and turns the
/// report into the benchmark's result line.
///
/// Usage:
///   perfbench --workload triage|hard_solve|incremental|race --seed N
///             --seconds S --trace 0|1 --model FILE --report FILE
///             [--trace-file FILE] [--min-items N] [--corrupt-check]

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "runtime/thread_pool.hpp"

// --- counting allocator (whole-program override) ---------------------------

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The replaced operator new above is malloc-backed, so free() IS the
// matching deallocation; GCC pairs the replaced `::operator new` symbol
// with free() and reports a false mismatch when vector destructors inline.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace perfbench {

std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[] = {
      "item",    "stream", "cnf.parse",  "solver.simplify", "graph.vc_build",
      "graph.lc_build",    "nn.tensors", "nn.record",       "nn.execute",
      "core.select",       "solver.load", "solver.solve",   "solver.add_clause",
      "solver.query",      "portfolio.load", "portfolio.race"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(Layer::kCount));
  return kNames[static_cast<std::size_t>(layer)];
}

namespace {

constexpr std::size_t kSetupReps = 5;
constexpr double kHardStopSeconds = 120.0;  // the run must end within 180 s
constexpr double kSpanGapMs = 0.05;  // item wall time outside the item span

/// How many timed items the determinism re-run repeats, per workload.
struct WorkloadSpec {
  const char* name;
  std::size_t repeat;
};

constexpr WorkloadSpec kSpecs[] = {
    {"triage", 16},
    {"hard_solve", 4},
    {"incremental", 200},
    {"race", 6},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model;
  std::string report;
  std::string trace_file;
  std::size_t min_items = 100;
  bool corrupt_check = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(next());
    } else if (arg == "--trace") {
      a.trace = next() != "0";
    } else if (arg == "--model") {
      a.model = next();
    } else if (arg == "--report") {
      a.report = next();
    } else if (arg == "--trace-file") {
      a.trace_file = next();
    } else if (arg == "--min-items") {
      a.min_items = std::stoull(next());
    } else if (arg == "--corrupt-check") {
      a.corrupt_check = true;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (a.workload.empty() || a.model.empty() || a.report.empty()) {
    throw std::runtime_error("--workload, --model and --report are required");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "triage") return make_triage(a.seed, a.model);
  if (a.workload == "hard_solve") return make_hard_solve(a.seed, a.model);
  if (a.workload == "incremental") return make_incremental(a.seed, a.model);
  if (a.workload == "race") return make_race(a.seed);
  throw std::runtime_error("unknown workload " + a.workload);
}

const WorkloadSpec& spec_of(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::runtime_error("unknown workload " + name);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run measured.
struct RunData {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;         ///< untraced executions
  std::vector<double> traced_latency_ms;  ///< traced executions (paired)
  std::size_t attempted = 0;
  std::size_t answers[3] = {};  ///< timed items by SatResult
  std::size_t errors = 0;
  std::vector<std::string> error_samples;
  std::vector<Fingerprint> fingerprints;  ///< first `repeat` timed items
  std::string span_check = "not traced";
  std::size_t span_gaps = 0;  ///< traced items with wall time off the span
  Probe probe;
  double loop_seconds = 0.0;
};

void record_error(RunData& run, const std::string& what) {
  ++run.errors;
  if (run.error_samples.size() < 8) run.error_samples.push_back(what);
}

/// Verifies the span tree of one traced execution (the spans appended
/// since `first`): well nested, with non-negative self times that add up to
/// the item span. Sets `gap_ms` to the item wall time not inside the item
/// span (harness time between the clock reads and the span edges).
std::string check_item_spans(const SpanLog& spans, std::size_t first,
                             double latency_ms, double& gap_ms) {
  std::int64_t item_dur = -1;
  std::int64_t self_sum = 0;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.t1 < s.t0) return "span ends before it starts";
    std::int64_t child = 0;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent != static_cast<std::int32_t>(i)) continue;
      if (spans[j].t0 < s.t0 || spans[j].t1 > s.t1) {
        return "child span escapes its parent";
      }
      child += spans[j].t1 - spans[j].t0;
    }
    const std::int64_t self = (s.t1 - s.t0) - child;
    if (self < 0) return "negative self time";
    if (s.layer == Layer::kItem && s.parent < 0) {
      item_dur = s.t1 - s.t0;
      self_sum = 0;
    }
    if (item_dur >= 0) self_sum += self;
  }
  if (item_dur < 0) return "no item span";
  if (self_sum != item_dur) return "self times do not add up to the item span";
  gap_ms = latency_ms - static_cast<double>(item_dur) * 1e-6;
  if (gap_ms < 0.0) return "item span is longer than the item wall time";
  return "ok";
}

/// One timed item: prepare, execute (twice, paired, when traced), verify.
void run_item(Workload& wl, std::uint64_t index, bool traced, RunData& run,
              std::size_t repeat) {
  wl.prepare(index);
  Exec plain;
  try {
    if (traced) {
      // Alternate which execution goes first so warm-cache effects cancel.
      const bool traced_first = index % 2 == 0;
      Exec with;
      const std::size_t first_span = run.probe.spans().size();
      if (traced_first) {
        with = wl.execute(&run.probe);
        plain = wl.execute(nullptr);
      } else {
        plain = wl.execute(nullptr);
        with = wl.execute(&run.probe);
      }
      if (!(with.fp == plain.fp)) {
        record_error(run, "traced and untraced executions of item " +
                              std::to_string(index) + " diverged");
      }
      run.traced_latency_ms.push_back(with.latency_ms);
      if (run.span_check == "not traced" || run.span_check == "ok") {
        // Only the traced execution appends spans.
        double gap_ms = 0.0;
        run.span_check = check_item_spans(run.probe.spans(), first_span,
                                          with.latency_ms, gap_ms);
        // A preempted vCPU can land between a clock read and a span edge;
        // such items are counted, and only a systematic gap fails the run.
        if (gap_ms > kSpanGapMs + 0.01 * with.latency_ms) ++run.span_gaps;
      }
    } else {
      plain = wl.execute(nullptr);
    }
  } catch (const std::exception& e) {
    ++run.attempted;
    if (run.fingerprints.size() < repeat) run.fingerprints.push_back({});
    record_error(run, std::string("item ") + std::to_string(index) +
                          " threw: " + e.what());
    return;
  }
  ++run.attempted;
  run.latency_ms.push_back(plain.latency_ms);
  if (run.fingerprints.size() < repeat) run.fingerprints.push_back(plain.fp);
  ++run.answers[static_cast<std::size_t>(plain.result)];
  if (const std::string why = wl.verify(); !why.empty()) {
    record_error(run, "item " + std::to_string(index) + ": " + why);
  }
}

RunData run_workload(const Args& args, Workload& wl, const WorkloadSpec& spec) {
  RunData run;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    ns::runtime::set_global_thread_count(wl.threads());
    wl.setup();
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto hard_stop =
      start + static_cast<std::int64_t>(kHardStopSeconds * 1e9);
  for (std::uint64_t index = 0;; ++index) {
    const std::int64_t now = now_ns();
    if (now >= hard_stop) break;
    if (now >= deadline && run.attempted >= args.min_items) break;
    run_item(wl, index, args.trace, run, spec.repeat);
  }
  run.loop_seconds = static_cast<double>(now_ns() - start) * 1e-9;

  // Determinism re-run: fresh state, the first timed items again; their
  // counters must repeat exactly.
  wl.setup();
  for (std::size_t k = 0; k < run.fingerprints.size(); ++k) {
    wl.prepare(k);
    Fingerprint fp;
    try {
      fp = wl.execute(nullptr).fp;
    } catch (const std::exception&) {
      fp = {};
    }
    if (!(fp == run.fingerprints[k])) {
      record_error(run, "re-run of timed item " + std::to_string(k) +
                            " changed its deterministic counters");
      break;
    }
  }
  return run;
}

/// Per-span-layer totals: duration, self time and call count.
struct LayerTotals {
  double dur_ms[static_cast<std::size_t>(Layer::kCount)] = {};
  double self_ms[static_cast<std::size_t>(Layer::kCount)] = {};
  double calls[static_cast<std::size_t>(Layer::kCount)] = {};
};

/// Self time of every span: its duration minus its children's.
std::vector<std::int64_t> self_times(const SpanLog& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].t1 - spans[i].t0;
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          spans[i].t1 - spans[i].t0;
    }
  }
  return self;
}

LayerTotals layer_totals(const SpanLog& spans) {
  LayerTotals t;
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto l = static_cast<std::size_t>(spans[i].layer);
    t.dur_ms[l] += static_cast<double>(spans[i].t1 - spans[i].t0) * 1e-6;
    t.self_ms[l] += static_cast<double>(self[i]) * 1e-6;
    t.calls[l] += 1.0;
  }
  return t;
}

std::vector<Metric> end_to_end_metrics(const RunData& run) {
  double busy_ms = 0.0;
  for (const double l : run.latency_ms) busy_ms += l;
  const double attempted =
      static_cast<double>(std::max<std::size_t>(run.attempted, 1));
  return {
      {"setup_s", "s", median(run.setup_s)},
      {"throughput_per_s", "1/s",
       busy_ms > 0.0
           ? 1000.0 * static_cast<double>(run.latency_ms.size()) / busy_ms
           : 0.0},
      {"latency_p50_ms", "ms", percentile(run.latency_ms, 0.5)},
      {"latency_p90_ms", "ms", percentile(run.latency_ms, 0.9)},
      {"solved_ratio", "ratio",
       static_cast<double>(run.answers[0] + run.answers[1]) / attempted},
      {"verified_ratio", "ratio",
       1.0 - static_cast<double>(run.errors) / attempted},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

std::vector<Metric> per_layer_metrics(const RunData& run) {
  const LayerTotals t = layer_totals(run.probe.spans());
  const auto span_ms = [&](Layer l) {
    const auto i = static_cast<std::size_t>(l);
    return t.calls[i] > 0.0 ? t.dur_ms[i] / t.calls[i] : 0.0;
  };
  const auto& c = run.probe.counters();
  const auto sum = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second.sum;
  };
  const auto mean = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second.mean();
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto item = static_cast<std::size_t>(Layer::kItem);
  const double untraced_p50 = percentile(run.latency_ms, 0.5);
  return {
      {"cnf.parse_ms", "ms", span_ms(Layer::kParse)},
      {"solver.simplify_ms", "ms", span_ms(Layer::kSimplify)},
      {"solver.simplify_removed_clauses", "count",
       mean("solver.simplify_removed_clauses")},
      {"solver.load_ms", "ms", span_ms(Layer::kLoad)},
      {"graph.vc_build_ms", "ms", span_ms(Layer::kVcBuild)},
      {"graph.lc_build_ms", "ms", span_ms(Layer::kLcBuild)},
      {"graph.edges", "count", mean("graph.edges")},
      {"nn.tensors_ms", "ms", span_ms(Layer::kTensors)},
      {"nn.record_ms", "ms", span_ms(Layer::kRecord)},
      {"nn.execute_ms", "ms", span_ms(Layer::kExecute)},
      {"nn.execute_allocs", "count", mean("nn.execute_allocs")},
      {"core.frequency_chosen_ratio", "ratio",
       mean("core.frequency_chosen_ratio")},
      {"solver.solve_ms", "ms", 1000.0 * mean("_search_seconds")},
      {"solver.ticks", "count", mean("solver.ticks")},
      {"solver.mticks_per_s", "Mticks/s",
       ratio(sum("solver.ticks"), sum("_search_seconds")) * 1e-6},
      {"solver.propagations", "count", mean("solver.propagations")},
      {"solver.conflicts", "count", mean("solver.conflicts")},
      {"solver.decisions", "count", mean("solver.decisions")},
      {"solver.ticks_binary", "count", mean("solver.ticks_binary")},
      {"solver.ticks_long", "count", mean("solver.ticks_long")},
      {"solver.analyze_ticks", "count", mean("solver.analyze_ticks")},
      {"solver.minimize_ticks", "count", mean("solver.minimize_ticks")},
      {"solver.decide_ticks", "count", mean("solver.decide_ticks")},
      {"solver.reduce_ticks", "count", mean("solver.reduce_ticks")},
      {"solver.restarts", "count", mean("solver.restarts")},
      {"solver.reductions", "count", mean("solver.reductions")},
      {"solver.learned_kept_ratio", "ratio",
       sum("_learned_clauses") > 0.0
           ? 1.0 - sum("_deleted_clauses") / sum("_learned_clauses")
           : 0.0},
      {"solver.add_clause_us", "us", 1000.0 * span_ms(Layer::kAddClause)},
      {"solver.query_ms", "ms", span_ms(Layer::kQuery)},
      {"solver.core_size", "count", mean("solver.core_size")},
      {"solver.query_allocs", "count", mean("solver.query_allocs")},
      {"solver.garbage_collections", "per_1k_queries",
       mean("solver.garbage_collections")},
      {"portfolio.load_ms", "ms", span_ms(Layer::kPortfolioLoad)},
      {"portfolio.race_ms", "ms", span_ms(Layer::kRace)},
      {"portfolio.rounds", "count", mean("portfolio.rounds")},
      {"portfolio.winner_ticks", "count", mean("portfolio.winner_ticks")},
      {"portfolio.work_ticks", "count", mean("portfolio.work_ticks")},
      {"portfolio.useful_work_ratio", "ratio",
       ratio(sum("_winner_ticks"), sum("_work_ticks"))},
      {"portfolio.cancelled", "count", mean("portfolio.cancelled")},
      {"runtime.cpu_utilization", "ratio",
       ratio(sum("_cpu_seconds"), sum("_pool_seconds"))},
      {"other.self_ms", "ms",
       t.calls[item] > 0.0 ? t.self_ms[item] / t.calls[item] : 0.0},
      {"trace.overhead_pct", "%",
       untraced_p50 > 0.0 && !run.traced_latency_ms.empty()
           ? 100.0 * (percentile(run.traced_latency_ms, 0.5) / untraced_p50 -
                      1.0)
           : 0.0},
  };
}

/// FNV-1a over the fingerprints of the first timed items: the value two
/// runs at the same seed (traced or not) must agree on.
std::string fingerprint_hash(const std::vector<Fingerprint>& fps) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Fingerprint& f : fps) {
    feed(f.ticks);
    feed(f.conflicts);
    feed(f.winner_ticks);
    feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.chosen)));
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void write_trace(const std::string& path, const Probe& probe) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const SpanLog& spans = probe.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().t0;
  out << "item\tspan\tparent\tlayer\tstart_us\tdur_us\tself_us\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.item << '\t' << i << '\t' << s.parent << '\t'
        << layer_name(s.layer) << '\t' << fmt((s.t0 - origin) * 1e-3) << '\t'
        << fmt((s.t1 - s.t0) * 1e-3) << '\t' << fmt(self[i] * 1e-3) << '\n';
  }
}

void write_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << fmt(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << '}';
}

int run_benchmark(const Args& args) {
  const WorkloadSpec& spec = spec_of(args.workload);
  std::unique_ptr<Workload> wl = make_workload(args);
  RunData run = run_workload(args, *wl, spec);
  if (args.trace && !args.trace_file.empty()) {
    write_trace(args.trace_file, run.probe);
  }
  if (args.trace && run.span_check == "ok" &&
      run.span_gaps * 100 > run.traced_latency_ms.size()) {
    run.span_check = "over 1% of item spans miss the item wall time";
  }
  if (args.trace && run.span_check != "ok") {
    record_error(run, "span check: " + run.span_check);
  }

  const std::vector<Metric> e2e = end_to_end_metrics(run);
  const std::vector<Metric> layers = per_layer_metrics(run);
  const bool comparable =
      std::string(PERFBENCH_BUILD_TYPE) == "Release" && NS_CHECK == 0;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  std::ofstream out(args.report);
  if (!out) throw std::runtime_error("cannot write report " + args.report);
  out << "{\n  \"workload\": \"" << args.workload << "\",\n"
      << "  \"seed\": " << args.seed << ",\n"
      << "  \"trace\": " << (args.trace ? 1 : 0) << ",\n"
      << "  \"seconds\": " << fmt(args.seconds) << ",\n"
      << "  \"env\": {\"nproc\": " << nproc
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"pool_threads\": " << wl->threads()
      << ", \"NS_CHECK\": " << NS_CHECK << ", \"NS_SIMD\": " << NS_SIMD
      << ", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"seed\": " << args.seed << "},\n"
      << "  \"comparable\": " << (comparable ? "true" : "false") << ",\n"
      << "  \"attempted\": " << run.attempted << ",\n"
      << "  \"failed\": " << run.errors << ",\n"
      << "  \"error_ratio\": "
      << fmt(static_cast<double>(run.errors) /
             static_cast<double>(std::max<std::size_t>(run.attempted, 1)))
      << ",\n"
      << "  \"latency_samples\": " << run.latency_ms.size() << ",\n"
      << "  \"answers\": {\"sat\": " << run.answers[0]
      << ", \"unsat\": " << run.answers[1]
      << ", \"unknown\": " << run.answers[2] << "},\n"
      << "  \"loop_seconds\": " << fmt(run.loop_seconds) << ",\n"
      << "  \"setup_samples_s\": [";
  for (std::size_t i = 0; i < run.setup_s.size(); ++i) {
    out << (i ? ", " : "") << fmt(run.setup_s[i]);
  }
  out << "],\n  \"fingerprint\": \"" << fingerprint_hash(run.fingerprints)
      << "\",\n  \"fingerprint_items\": " << run.fingerprints.size() << ",\n"
      << "  \"span_check\": \"" << json_escape(run.span_check) << "\",\n"
      << "  \"span_gap_items\": " << run.span_gaps << ",\n"
      << "  \"errors\": [";
  for (std::size_t i = 0; i < run.error_samples.size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(run.error_samples[i]) << '"';
  }
  out << "],\n  \"end_to_end\": ";
  write_metrics(out, e2e);
  out << ",\n  \"per_layer\": ";
  write_metrics(out, layers);
  out << "\n}\n";
  return run.errors == 0 ? 0 : 1;
}

/// Self-test: runs items until one answers SAT, spoils that model, and
/// checks that verification rejects it.
int run_corrupt_check(const Args& args) {
  std::unique_ptr<Workload> wl = make_workload(args);
  ns::runtime::set_global_thread_count(wl->threads());
  wl->setup();
  bool caught = false;
  std::uint64_t index = 0;
  for (; index < 200; ++index) {
    wl->prepare(index);
    wl->execute(nullptr);
    if (!wl->verify().empty()) break;  // a real error: not a corruption test
    if (wl->corrupt_answer()) {
      caught = !wl->verify().empty();
      break;
    }
  }
  std::ofstream out(args.report);
  out << "{\"workload\": \"" << args.workload << "\", \"item\": " << index
      << ", \"caught\": " << (caught ? "true" : "false") << "}\n";
  return caught ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.corrupt_check ? perfbench::run_corrupt_check(args)
                              : perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
