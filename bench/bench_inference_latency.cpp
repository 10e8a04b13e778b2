/// \file bench_inference_latency.cpp
/// Inference latency of the program/executor split, one instance at a
/// time, and the allocation-free steady-state contract behind it.
///
/// For every Table-2 classifier the bench records the 16 instances of
/// `generate_split(2022, 16, 5)` (bench_parallel_scaling's classify_batch
/// workload) as 16 one-graph `InferenceSession`s, the per-query deployment
/// shape. A pass predicts all 16 graphs. After warm-up passes, the bench
/// (a) counts global operator-new calls across a window of passes — the
/// liveness-planned workspace must make that count exactly zero with a
/// single-thread kernel pool — and (b) reports the per-graph p50/p99, i.e.
/// pass latency / 16. Results land in BENCH_inference_latency.json;
/// `steady_allocs` entries carry the allocation count in the wall_ms field
/// (0 expected). The process exits non-zero if any model allocates in
/// steady state, so the contract is checkable in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/generators.hpp"
#include "nn/models.hpp"
#include "runtime/thread_pool.hpp"

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

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWarmupPasses = 4;
constexpr std::size_t kAllocPasses = 16;
constexpr std::size_t kLatencyPasses = 50;

double percentile(std::vector<double> sorted_ms, double p) {
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[idx];
}

/// Allocation window and per-graph latency of one model's sessions. `pass`
/// predicts every graph once and returns a checksum term.
template <typename Pass>
bool measure(ns::bench::BenchJson& json, const std::string& row,
             std::size_t graphs, const Pass& pass, float& sink) {
  for (std::size_t i = 0; i < kWarmupPasses; ++i) sink += pass();

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kAllocPasses; ++i) sink += pass();
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  std::vector<double> ms;
  ms.reserve(kLatencyPasses);
  for (std::size_t i = 0; i < kLatencyPasses; ++i) {
    const auto t0 = Clock::now();
    sink += pass();
    const auto t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count() /
                 static_cast<double>(graphs));
  }
  const double p50 = percentile(ms, 0.50);
  const double p99 = percentile(ms, 0.99);

  json.record(row + "_per_graph_p50", 1, p50);
  json.record(row + "_per_graph_p99", 1, p99);
  json.record(row + "_steady_allocs", 1, static_cast<double>(allocs));
  std::printf(
      "%-34s per graph p50 %8.4f ms  p99 %8.4f ms  steady-state allocs %zu\n",
      row.c_str(), p50, p99, allocs);
  return allocs == 0;
}

}  // namespace

int main() {
  // Single-thread pool: the zero-allocation contract holds for the inline
  // kernel path (multi-thread fan-out allocates inside pool dispatch).
  ns::runtime::set_global_thread_count(1);

  const std::vector<ns::gen::NamedInstance> split =
      ns::gen::generate_split(2022, 16, 5);
  std::vector<ns::nn::GraphBatch> graphs;
  graphs.reserve(split.size());
  for (const ns::gen::NamedInstance& inst : split) {
    graphs.push_back(ns::nn::GraphBatch::build(inst.formula));
  }

  struct Row {
    const char* name;
    ns::nn::ClassifierKind kind;
  };
  const Row rows[] = {
      {"NeuroSat", ns::nn::ClassifierKind::kNeuroSat},
      {"Gin", ns::nn::ClassifierKind::kGin},
      {"NeuroSelectNoAttention",
       ns::nn::ClassifierKind::kNeuroSelectNoAttention},
      {"NeuroSelect", ns::nn::ClassifierKind::kNeuroSelect},
  };

  ns::bench::BenchJson json("inference_latency");
  bool all_zero = true;
  float sink = 0.0f;

  for (const Row& row : rows) {
    auto model = ns::nn::make_classifier(row.kind, 7);

    std::vector<std::unique_ptr<ns::nn::InferenceSession>> singles;
    singles.reserve(graphs.size());
    for (const ns::nn::GraphBatch& g : graphs) {
      singles.push_back(std::make_unique<ns::nn::InferenceSession>(*model, g));
    }
    all_zero &= measure(
        json, std::string(row.name) + "_single", graphs.size(),
        [&] {
          float s = 0.0f;
          for (auto& session : singles) s += session->predict_probability();
          return s;
        },
        sink);
  }

  if (!json.write()) {
    std::fprintf(stderr, "failed to write BENCH_inference_latency.json\n");
    return 2;
  }
  std::printf("(checksum %g)\n", static_cast<double>(sink));
  if (!all_zero) {
    std::fprintf(stderr,
                 "FAIL: steady-state predictions allocated on the heap\n");
    return 1;
  }
  std::printf("PASS: zero steady-state heap allocations for all models\n");
  return 0;
}
