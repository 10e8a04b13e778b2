/// \file bench_micro_scaling.cpp
/// Google-benchmark validation of the paper's complexity claims (Sec. 4.3):
/// one HGT layer costs O(|E|) for the MPNN part plus O(|V1|) for linear
/// attention, i.e. the model scales linearly in the CNF size. The reported
/// per-iteration times should grow ~linearly with the instance scale, and
/// the Complexity() fit should come out close to oN.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>

#include "gen/generators.hpp"
#include "nn/models.hpp"

namespace {

ns::nn::GraphBatch make_batch(std::size_t num_vars) {
  // Fixed clause/variable ratio so |E| grows linearly with num_vars.
  return ns::nn::GraphBatch::build(ns::gen::random_ksat(
      num_vars, static_cast<std::size_t>(4.2 * num_vars), 3, 99));
}

void BM_LinearAttentionForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(1);
  ns::nn::LinearAttention attn(32, rng);
  const ns::nn::Matrix z = ns::nn::Matrix::xavier(n, 32, rng);
  // Record once, execute per iteration: what's timed is the attention
  // compute, not graph recording.
  ns::nn::Program prog;
  const ns::nn::TensorId out = attn.forward(prog, prog.constant(z));
  ns::nn::Executor exec(prog, ns::nn::ExecMode::kInference);
  for (auto _ : state) {
    exec.forward();
    benchmark::DoNotOptimize(exec.value(out).data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_LinearAttentionForward)
    ->RangeMultiplier(2)
    ->Range(256, 8192)
    ->Complexity(benchmark::oN);

void BM_MpnnLayerForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ns::nn::GraphBatch g = make_batch(n);
  std::mt19937_64 rng(2);
  ns::nn::MpnnLayer layer(32, rng);
  const ns::nn::Matrix xv = ns::nn::Matrix::xavier(g.vc.num_vars, 32, rng);
  const ns::nn::Matrix xc = ns::nn::Matrix::xavier(g.vc.num_clauses, 32, rng);
  ns::nn::Program prog;
  const auto [ov, oc] =
      layer.forward(prog, g.vc, prog.constant(xv), prog.constant(xc));
  ns::nn::Executor exec(prog, ns::nn::ExecMode::kInference);
  for (auto _ : state) {
    exec.forward();
    benchmark::DoNotOptimize(exec.value(ov).data());
    benchmark::DoNotOptimize(exec.value(oc).data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_MpnnLayerForward)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity(benchmark::oN);

void BM_NeuroSelectInference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ns::nn::GraphBatch g = make_batch(n);
  ns::nn::NeuroSelectModel model{ns::nn::NeuroSelectConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_probability(g));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_NeuroSelectInference)
    ->RangeMultiplier(4)
    ->Range(256, 4096)
    ->Complexity(benchmark::oN);

void BM_GraphConstruction(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ns::CnfFormula f = ns::gen::random_ksat(
      n, static_cast<std::size_t>(4.2 * n), 3, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns::nn::GraphBatch::build(f));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_GraphConstruction)
    ->RangeMultiplier(4)
    ->Range(256, 4096)
    ->Complexity(benchmark::oN);

}  // namespace

BENCHMARK_MAIN();
