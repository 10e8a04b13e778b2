/// \file test_nn_batched.cpp
/// Many graphs at once (DESIGN.md §13): `core::classify_batch` runs one
/// `InferenceSession` per graph across the pool. The load-bearing property
/// is *bitwise* parity: for every classifier, each graph's probability must
/// be exactly the bits of `predict_probability` on that graph alone, for
/// any batch shape and any thread count. Sessions record and execute
/// concurrently on pool workers here, so the suite runs under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/neuroselect.hpp"
#include "gen/generators.hpp"
#include "nn/models.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::nn {
namespace {

std::uint32_t bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Ragged corpus: the degenerate single-clause instance first, then
/// differently sized random/structured formulas. Batches cycle through it.
std::vector<GraphBatch> build_corpus() {
  std::vector<CnfFormula> formulas;
  {
    CnfFormula degenerate(2);
    degenerate.add_clause({Lit(0, false), Lit(1, true)});
    formulas.push_back(std::move(degenerate));
  }
  formulas.push_back(gen::random_ksat(12, 40, 3, 77));
  formulas.push_back(gen::random_ksat(7, 19, 3, 5));
  formulas.push_back(gen::pigeonhole(4, 3));
  formulas.push_back(gen::random_ksat(16, 50, 3, 9));
  formulas.push_back(gen::random_ksat(5, 11, 3, 21));

  std::vector<GraphBatch> corpus;
  corpus.reserve(formulas.size());
  for (const CnfFormula& f : formulas) corpus.push_back(GraphBatch::build(f));
  return corpus;
}

std::vector<const GraphBatch*> make_batch(const std::vector<GraphBatch>& corpus,
                                          std::size_t size) {
  std::vector<const GraphBatch*> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    batch.push_back(&corpus[i % corpus.size()]);
  }
  return batch;
}

/// Opens every 1×1 parameter — the ReZero attention gates and the head
/// bias — at 0.5. Fresh models start the gates at exactly 0, where the
/// attention block adds 0 to the logit, so an attention bug would be
/// invisible.
void open_gates(SatClassifier& model) {
  for (Parameter* p : model.parameters()) {
    if (p->value.rows() == 1 && p->value.cols() == 1) p->value.fill(0.5f);
  }
}

/// Batch shapes of the parity sweep: singleton, pair, power of two, and a
/// ragged 17, more graphs than pool threads (every shape repeats the
/// degenerate single-clause instance).
constexpr std::size_t kBatchSizes[] = {1, 2, 8, 17};

class BatchedParityTest
    : public ::testing::TestWithParam<std::tuple<ClassifierKind, int>> {
 protected:
  void TearDown() override { runtime::set_global_thread_count(0); }
};

TEST_P(BatchedParityTest, SessionAndClassifyBatchMatchPerGraphProbability) {
  const auto [kind, threads] = GetParam();
  runtime::set_global_thread_count(static_cast<std::size_t>(threads));
  const auto model = make_classifier(kind, /*seed=*/5);
  open_gates(*model);
  const std::vector<GraphBatch> corpus = build_corpus();

  std::vector<float> expected;
  for (const GraphBatch& g : corpus) {
    expected.push_back(model->predict_probability(g));
    // Re-running a kept session must not change anything.
    InferenceSession session(*model, g);
    const float first = session.predict_probability();
    EXPECT_EQ(bits(expected.back()), bits(first)) << model->name();
    EXPECT_EQ(bits(first), bits(session.predict_probability()));
  }

  for (const std::size_t size : kBatchSizes) {
    const std::vector<const GraphBatch*> batch = make_batch(corpus, size);
    const std::vector<float> via_core = core::classify_batch(*model, batch);
    ASSERT_EQ(via_core.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(bits(expected[i % corpus.size()]), bits(via_core[i]))
          << model->name() << " batch=" << size << " graph=" << i
          << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, BatchedParityTest,
    ::testing::Combine(::testing::Values(ClassifierKind::kNeuroSat,
                                         ClassifierKind::kGin,
                                         ClassifierKind::kNeuroSelectNoAttention,
                                         ClassifierKind::kNeuroSelect),
                       ::testing::Values(1, 8)),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case ClassifierKind::kNeuroSat: name = "NeuroSat"; break;
        case ClassifierKind::kGin: name = "Gin"; break;
        case ClassifierKind::kNeuroSelectNoAttention:
          name = "NoAttention";
          break;
        default: name = "NeuroSelect"; break;
      }
      return name + "_" + std::to_string(std::get<1>(info.param)) + "t";
    });

}  // namespace
}  // namespace ns::nn
