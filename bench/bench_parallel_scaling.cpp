/// \file bench_parallel_scaling.cpp
/// Thread-scaling of the four pool-backed hot paths: dense GEMM, CSR SpMM,
/// dual-policy labelling, and batched classification. For each workload the
/// bench sweeps 1/2/4/8 threads, reports wall time and speedup over the
/// 1-thread run, and verifies that the results are bitwise identical across
/// thread counts (the runtime's determinism contract). Measurements — with
/// speedup_vs_1t per row — are also written to BENCH_parallel_scaling.json
/// (this bench is its only writer; the portfolio rows live in
/// BENCH_portfolio.json), and the bench exits nonzero if any multi-thread
/// run is more than 10% slower than its own 1-thread baseline.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>

#include "bench_common.hpp"
#include "core/neuroselect.hpp"
#include "nn/matrix.hpp"
#include "nn/models.hpp"
#include "nn/sparse.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using ns::nn::Matrix;
using ns::nn::SparseMatrix;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

double time_best_ms(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return Matrix::xavier(rows, cols, rng);
}

SparseMatrix random_csr(std::size_t rows, std::size_t cols,
                        std::size_t nnz_per_row, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> col(
      0, static_cast<std::uint32_t>(cols - 1));
  std::uniform_real_distribution<float> weight(-1.0f, 1.0f);
  std::vector<std::uint32_t> ri, ci;
  std::vector<float> v;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      ri.push_back(static_cast<std::uint32_t>(r));
      ci.push_back(col(rng));
      v.push_back(weight(rng));
    }
  }
  return SparseMatrix::from_coo(rows, cols, ri, ci, v);
}

/// Records one sweep point (with its speedup over the workload's 1-thread
/// run) and returns true when a multi-thread measurement regresses more
/// than 10% below the 1-thread baseline — the gate that fails the bench.
bool report(ns::bench::BenchJson& json, const char* name, std::size_t threads,
            double ms, double base_ms) {
  std::printf("  %-18s %2zu threads  %9.2f ms  speedup %.2fx\n", name,
              threads, ms, base_ms / ms);
  json.record(name, threads, ms, base_ms / ms);
  if (threads > 1 && ms > base_ms * 1.10) {
    std::printf("  !! %s regresses at %zu threads: %.2f ms vs %.2f ms "
                "1-thread (>10%%)\n",
                name, threads, ms, base_ms);
    return true;
  }
  return false;
}

}  // namespace

int main() {
  ns::bench::BenchJson json("parallel_scaling");
  int mismatches = 0;
  int regressions = 0;

  // --- dense GEMM --------------------------------------------------------
  {
    const Matrix a = random_matrix(384, 384, 11);
    const Matrix b = random_matrix(384, 384, 12);
    std::printf("GEMM 384x384x384\n");
    Matrix reference;
    double base_ms = 0.0;
    for (const std::size_t t : kThreadCounts) {
      ns::runtime::set_global_thread_count(t);
      Matrix c;
      const double ms = time_best_ms(5, [&] { c = ns::nn::matmul(a, b); });
      if (t == 1) {
        reference = c;
        base_ms = ms;
      } else if (!bitwise_equal(reference, c)) {
        std::printf("  !! GEMM result differs at %zu threads\n", t);
        ++mismatches;
      }
      if (report(json, "gemm", t, ms, base_ms)) ++regressions;
    }
  }

  // --- CSR SpMM -----------------------------------------------------------
  {
    const SparseMatrix s = random_csr(20000, 20000, 12, 21);
    const Matrix x = random_matrix(20000, 64, 22);
    std::printf("SpMM 20000x20000 (nnz %zu) x 64\n", s.nnz());
    Matrix reference;
    double base_ms = 0.0;
    for (const std::size_t t : kThreadCounts) {
      ns::runtime::set_global_thread_count(t);
      Matrix y;
      const double ms = time_best_ms(5, [&] { y = s.multiply(x); });
      if (t == 1) {
        reference = y;
        base_ms = ms;
      } else if (!bitwise_equal(reference, y)) {
        std::printf("  !! SpMM result differs at %zu threads\n", t);
        ++mismatches;
      }
      if (report(json, "spmm", t, ms, base_ms)) ++regressions;
    }
  }

  // --- dual-policy labelling ---------------------------------------------
  {
    std::printf("labelling 8 instances (dual-policy solves)\n");
    ns::core::LabelingOptions lopts;
    lopts.max_propagations = 200'000;
    std::vector<ns::core::LabeledInstance> reference;
    double base_ms = 0.0;
    for (const std::size_t t : kThreadCounts) {
      ns::runtime::set_global_thread_count(t);
      std::vector<ns::core::LabeledInstance> labeled;
      const double ms = time_best_ms(1, [&] {
        labeled = ns::core::label_dataset(
            ns::gen::generate_split(2022, 8, 3), lopts);
      });
      if (t == 1) {
        reference = std::move(labeled);
        base_ms = ms;
      } else {
        for (std::size_t i = 0; i < reference.size(); ++i) {
          if (labeled[i].label != reference[i].label ||
              labeled[i].propagations_default !=
                  reference[i].propagations_default ||
              labeled[i].propagations_frequency !=
                  reference[i].propagations_frequency) {
            std::printf("  !! labelling differs at %zu threads (inst %zu)\n",
                        t, i);
            ++mismatches;
            break;
          }
        }
      }
      if (report(json, "labeling", t, ms, base_ms)) ++regressions;
    }
  }

  // --- batched classification --------------------------------------------
  {
    std::printf("batched classification (16 instances)\n");
    const std::vector<ns::gen::NamedInstance> split =
        ns::gen::generate_split(2022, 16, 5);
    std::vector<ns::nn::GraphBatch> graphs;
    graphs.reserve(split.size());
    for (const ns::gen::NamedInstance& inst : split) {
      graphs.push_back(ns::nn::GraphBatch::build(inst.formula));
    }
    std::vector<const ns::nn::GraphBatch*> batch;
    for (const ns::nn::GraphBatch& g : graphs) batch.push_back(&g);
    ns::nn::NeuroSelectModel model;

    std::vector<float> reference;
    double base_ms = 0.0;
    for (const std::size_t t : kThreadCounts) {
      ns::runtime::set_global_thread_count(t);
      std::vector<float> probs;
      const double ms = time_best_ms(3, [&] {
        probs = ns::core::classify_batch(model, batch);
      });
      if (t == 1) {
        reference = probs;
        base_ms = ms;
      } else if (probs != reference) {
        std::printf("  !! classification differs at %zu threads\n", t);
        ++mismatches;
      }
      if (report(json, "classify_batch", t, ms, base_ms)) ++regressions;
    }
  }

  ns::runtime::set_global_thread_count(0);  // restore the default
  if (!json.write()) {
    std::printf("warning: could not write BENCH_parallel_scaling.json\n");
  }
  if (mismatches > 0 || regressions > 0) {
    std::printf("FAIL: %d determinism mismatches, %d multi-thread "
                "regressions (>10%% over 1-thread)\n",
                mismatches, regressions);
    return 1;
  }
  std::printf("all results bitwise identical across thread counts, "
              "no multi-thread regression\n");
  return 0;
}
