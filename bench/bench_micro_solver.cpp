/// \file bench_micro_solver.cpp
/// Google-benchmark microbenches of the CDCL substrate: end-to-end solve
/// throughput per family, and the overhead the frequency-guided policy adds
/// to a reduction pass (the paper claims the new criterion is cheap: one
/// counter per variable plus one extra pass at reduce time).
///
/// Also the solver-side twin of bench_inference_latency's zero-allocation
/// check: a counting-allocator window over a warm 100-query incremental
/// stream (`materialize_results = false`, results read through the
/// engine-owned buffers) must perform zero heap allocations — the dynamic
/// cross-check of the [allocation] closure ns::hotlint gates statically.
/// The count lands in BENCH_solver_hot_path.json as
/// `incremental/stream100_steady_allocs`, and a nonzero count fails the
/// process.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>

#include "bench_common.hpp"
#include "cnf/dimacs.hpp"
#include "gen/generators.hpp"
#include "solver/solver.hpp"

// --- counting allocator (whole-TU override) -------------------------------

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

namespace {

void solve_with(const ns::CnfFormula& f, ns::policy::PolicyKind kind,
                benchmark::State& state) {
  ns::solver::SolverOptions opts;
  opts.deletion_policy = kind;
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    const ns::solver::SolveOutcome out = ns::solver::solve_formula(f, opts);
    benchmark::DoNotOptimize(out.result);
    conflicts += out.stats.conflicts;
  }
  state.counters["conflicts"] =
      benchmark::Counter(static_cast<double>(conflicts),
                         benchmark::Counter::kIsRate);
}

void BM_SolvePigeonholeDefault(benchmark::State& state) {
  const ns::CnfFormula f = ns::gen::pigeonhole(8, 7);
  solve_with(f, ns::policy::PolicyKind::kDefault, state);
}
BENCHMARK(BM_SolvePigeonholeDefault)->Unit(benchmark::kMillisecond);

void BM_SolvePigeonholeFrequency(benchmark::State& state) {
  const ns::CnfFormula f = ns::gen::pigeonhole(8, 7);
  solve_with(f, ns::policy::PolicyKind::kFrequency, state);
}
BENCHMARK(BM_SolvePigeonholeFrequency)->Unit(benchmark::kMillisecond);

void BM_SolveRandom3SatDefault(benchmark::State& state) {
  const ns::CnfFormula f = ns::gen::random_ksat(120, 511, 3, 4);
  solve_with(f, ns::policy::PolicyKind::kDefault, state);
}
BENCHMARK(BM_SolveRandom3SatDefault)->Unit(benchmark::kMillisecond);

void BM_SolveRandom3SatFrequency(benchmark::State& state) {
  const ns::CnfFormula f = ns::gen::random_ksat(120, 511, 3, 4);
  solve_with(f, ns::policy::PolicyKind::kFrequency, state);
}
BENCHMARK(BM_SolveRandom3SatFrequency)->Unit(benchmark::kMillisecond);

void BM_SolveMiter(benchmark::State& state) {
  const ns::CnfFormula f =
      ns::gen::adder_equivalence(static_cast<std::size_t>(state.range(0)),
                                 /*inject_bug=*/false, 1);
  solve_with(f, ns::policy::PolicyKind::kDefault, state);
}
BENCHMARK(BM_SolveMiter)->Arg(6)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

// BCP throughput on a propagation-heavy instance (XOR chain: every decision
// triggers a long implication chain).
void BM_BcpThroughput(benchmark::State& state) {
  const ns::CnfFormula f = ns::gen::xor_chain(2000, false, 3);
  ns::solver::SolverOptions opts;
  std::uint64_t props = 0;
  for (auto _ : state) {
    const ns::solver::SolveOutcome out = ns::solver::solve_formula(f, opts);
    props += out.stats.propagations;
    benchmark::DoNotOptimize(out.result);
  }
  state.counters["props/s"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BcpThroughput)->Unit(benchmark::kMillisecond);

// Pure DIMACS parse throughput (I/O substrate).
void BM_DimacsRoundTrip(benchmark::State& state) {
  const ns::CnfFormula f = ns::gen::random_ksat(500, 2100, 3, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns::to_dimacs_string(f));
  }
}
BENCHMARK(BM_DimacsRoundTrip)->Unit(benchmark::kMillisecond);

// Checked-in BCP hot-path trajectory (BENCH_solver_hot_path.json): wall
// time and tick throughput of full deterministic solves on three
// propagation-bound instances. The "recorded_baseline_monolith/" rows are
// constants, not measurements: the Mticks/s the monolithic engine that
// preceded the layered solver (vector-of-vectors watchers, no binary
// specialization) reached once on this same suite. The "flat_arena/" rows
// are re-measured on every run, so the checked-in JSON tracks the hot path.
std::size_t run_hot_path_trajectory() {
  ns::bench::BenchJson json("solver_hot_path");
  json.record("recorded_baseline_monolith/xor_chain_2000_mticks_per_s", 1,
              9.91);
  json.record("recorded_baseline_monolith/php_9_8_mticks_per_s", 1, 45.21);
  json.record("recorded_baseline_monolith/ksat_150_645_mticks_per_s", 1,
              28.88);

  struct Case {
    const char* name;
    ns::CnfFormula f;
  };
  const Case cases[] = {
      {"xor_chain_2000", ns::gen::xor_chain(2000, false, 3)},
      {"php_9_8", ns::gen::pigeonhole(9, 8)},
      {"ksat_150_645", ns::gen::random_ksat(150, 645, 3, 4)},
  };
  std::printf("=== BCP hot path (deterministic solves, best of 3) ===\n");
  for (const Case& c : cases) {
    double best_ms = 1e300;
    std::uint64_t ticks = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const ns::solver::SolveOutcome out =
          ns::solver::solve_formula(c.f, ns::solver::SolverOptions{});
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      best_ms = std::min(best_ms, ms);
      ticks = out.stats.ticks;
    }
    const double mticks_s = static_cast<double>(ticks) / (best_ms * 1000.0);
    json.record(std::string("flat_arena/") + c.name + "_wall_ms", 1, best_ms);
    json.record(std::string("flat_arena/") + c.name + "_mticks_per_s", 1,
                mticks_s);
    std::printf("%-16s %10.3f ms  %12llu ticks  %7.2f Mticks/s\n", c.name,
                best_ms, static_cast<unsigned long long>(ticks), mticks_s);
  }
  // Incremental query streams: 100 assumption queries against one loaded
  // engine (decision heuristics and learned clauses stay warm), eager GC
  // vs deferred GC compacting at a 30% dead fraction. The same stream
  // solved with throwaway engines is the baseline the incremental API is
  // meant to beat.
  std::printf("=== incremental query stream (100 queries, best of 3) ===\n");
  const ns::CnfFormula sf = ns::gen::random_ksat(150, 630, 3, 21);
  struct Mode {
    const char* name;
    double gc_frac;
    bool fresh_per_query;
  };
  const Mode modes[] = {
      {"stream100_eager", 0.0, false},
      {"stream100_gc", 0.3, false},
      {"stream100_fresh", 0.0, true},
  };
  for (const Mode& m : modes) {
    double best_ms = 1e300;
    std::uint64_t conflicts = 0;
    std::uint64_t collections = 0;
    for (int rep = 0; rep < 3; ++rep) {
      ns::solver::SolverOptions opts;
      opts.reduce_interval = 10;
      opts.reduce_interval_inc = 0;
      opts.gc_frac = m.gc_frac;
      const auto t0 = std::chrono::steady_clock::now();
      ns::solver::Solver engine{opts};
      if (!m.fresh_per_query) engine.load(sf);
      for (int q = 0; q < 100; ++q) {
        const std::vector<ns::Lit> assume = {
            ns::Lit(static_cast<ns::Var>((q * 7 + 1) % sf.num_vars()),
                    q % 2 == 0),
            ns::Lit(static_cast<ns::Var>((q * 13 + 5) % sf.num_vars()),
                    q % 3 == 0)};
        if (m.fresh_per_query) engine.load(sf);
        benchmark::DoNotOptimize(engine.solve(assume).result);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      best_ms = std::min(best_ms, ms);
      conflicts = engine.stats().conflicts;
      collections = engine.stats().garbage_collections;
    }
    json.record(std::string("incremental/") + m.name + "_wall_ms", 1,
                best_ms);
    json.record(std::string("incremental/") + m.name + "_queries_per_s", 1,
                100.0 / (best_ms / 1000.0));
    std::printf("%-18s %10.3f ms  %8llu conflicts  %3llu collections\n",
                m.name, best_ms, static_cast<unsigned long long>(conflicts),
                static_cast<unsigned long long>(collections));
  }
  // Steady-state allocation window: re-run the warm stream with result
  // materialization off (model/core read through the engine-owned buffers)
  // and count global operator-new calls across one full 100-query pass.
  // Warm passes run first until the clause arena and every side buffer
  // reach their high-water capacity — the deterministic engine reaches an
  // allocation-free fixed point within a few passes — then the measured
  // window must be exactly zero.
  std::size_t steady_allocs = 0;
  {
    ns::solver::SolverOptions opts;
    opts.reduce_interval = 10;
    opts.reduce_interval_inc = 0;
    opts.materialize_results = false;
    ns::solver::Solver engine{opts};
    engine.load(sf);
    std::vector<ns::Lit> assume(2, ns::Lit(0, false));
    const auto stream = [&]() {
      const std::size_t before =
          g_alloc_count.load(std::memory_order_relaxed);
      for (int q = 0; q < 100; ++q) {
        assume[0] = ns::Lit(static_cast<ns::Var>((q * 7 + 1) % sf.num_vars()),
                            q % 2 == 0);
        assume[1] = ns::Lit(static_cast<ns::Var>((q * 13 + 5) % sf.num_vars()),
                            q % 3 == 0);
        benchmark::DoNotOptimize(engine.solve(assume).result);
      }
      return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    for (int warm = 0; warm < 8 && stream() != 0; ++warm) {
    }
    steady_allocs = stream();
  }
  json.record("incremental/stream100_steady_allocs", 1,
              static_cast<double>(steady_allocs));
  std::printf("stream100_steady_allocs %zu (0 expected)\n", steady_allocs);
  if (!json.write()) {
    std::fprintf(stderr, "failed to write BENCH_solver_hot_path.json\n");
  }
  std::printf("\n");
  return steady_allocs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t steady_allocs = run_hot_path_trajectory();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm incremental stream allocated %zu time(s) in "
                 "steady state\n",
                 steady_allocs);
    return 1;
  }
  return 0;
}
