/// \file test_nn_batched.cpp
/// Block-diagonal batched inference (DESIGN.md §13). The load-bearing
/// property is *bitwise* parity: for every classifier, a packed batch must
/// produce exactly the float bits of each of its graphs run alone as a
/// one-graph batch, for any batch shape and any thread count. A one-graph
/// program's segmented ops have an eager reference (they replay as seed ops
/// in tests/eager_reference.hpp, checked by test_nn_executor.cpp); a
/// multi-segment program has none, so the one-graph programs are its
/// forward oracle. The suite also gradchecks the four segmented ops over
/// several segments and pins the recorder's validation of malformed
/// segment descriptors.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/neuroselect.hpp"
#include "gen/generators.hpp"
#include "gradcheck.hpp"
#include "nn/models.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::nn {
namespace {

using ns::testing::mean_over_rows;

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
/// ragged 17 (every shape repeats the degenerate single-clause instance).
constexpr std::size_t kBatchSizes[] = {1, 2, 8, 17};

class BatchedParityTest
    : public ::testing::TestWithParam<std::tuple<ClassifierKind, int>> {
 protected:
  void TearDown() override { runtime::set_global_thread_count(0); }
};

TEST_P(BatchedParityTest, PackedLogitsBitwiseEqualPerGraph) {
  const auto [kind, threads] = GetParam();
  runtime::set_global_thread_count(static_cast<std::size_t>(threads));
  const auto model = make_classifier(kind, /*seed=*/5);
  open_gates(*model);
  const std::vector<GraphBatch> corpus = build_corpus();

  for (const std::size_t size : kBatchSizes) {
    const std::vector<const GraphBatch*> batch = make_batch(corpus, size);

    std::vector<float> expected;
    expected.reserve(size);
    for (const GraphBatch* g : batch) {
      Tape t;
      const TensorId logit = model->forward_logits(t, PackedGraphs(*g));
      expected.push_back(t.value(logit).at(0, 0));
    }

    const PackedGraphs packed = PackedGraphs::build(batch);
    Tape tb;
    const TensorId logits = model->forward_logits(tb, packed);
    ASSERT_EQ(tb.value(logits).rows(), size);
    ASSERT_EQ(tb.value(logits).cols(), 1u);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(bits(expected[i]), bits(tb.value(logits).at(i, 0)))
          << model->name() << " batch=" << size << " graph=" << i
          << " threads=" << threads;
    }
  }
}

TEST_P(BatchedParityTest, SessionAndClassifyBatchMatchPerGraphProbability) {
  const auto [kind, threads] = GetParam();
  runtime::set_global_thread_count(static_cast<std::size_t>(threads));
  const auto model = make_classifier(kind, /*seed=*/5);
  open_gates(*model);
  const std::vector<GraphBatch> corpus = build_corpus();
  const std::vector<const GraphBatch*> batch = make_batch(corpus, 6);

  std::vector<float> expected;
  for (const GraphBatch* g : batch) {
    expected.push_back(model->predict_probability(*g));
  }

  const PackedGraphs packed = PackedGraphs::build(batch);
  InferenceSession session(*model, packed);
  const std::vector<float>& probs = session.predict_probabilities();
  ASSERT_EQ(probs.size(), batch.size());
  // Re-running the session must not reallocate or change anything.
  const std::vector<float>& again = session.predict_probabilities();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(bits(expected[i]), bits(probs[i])) << model->name() << " " << i;
    EXPECT_EQ(bits(probs[i]), bits(again[i]));
  }

  const std::vector<float> via_core = core::classify_batch(*model, batch);
  ASSERT_EQ(via_core.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(bits(expected[i]), bits(via_core[i]));
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

// --- packing layer -----------------------------------------------------------

TEST(PackedGraphsTest, OffsetsAndOperatorsCoverEveryGraph) {
  const std::vector<GraphBatch> corpus = build_corpus();
  const std::vector<const GraphBatch*> batch = make_batch(corpus, 5);
  const PackedGraphs p = PackedGraphs::build(batch);

  EXPECT_EQ(p.num_graphs, 5u);
  ASSERT_EQ(p.var_offsets.size(), 6u);
  std::size_t vars = 0, clauses = 0, lits = 0, nnz = 0;
  for (std::size_t g = 0; g < batch.size(); ++g) {
    EXPECT_EQ(p.var_offsets[g + 1] - p.var_offsets[g],
              batch[g]->vc.num_vars);
    EXPECT_EQ(p.clause_offsets[g + 1] - p.clause_offsets[g],
              batch[g]->vc.num_clauses);
    EXPECT_EQ(p.lit_offsets[g + 1] - p.lit_offsets[g], batch[g]->lc.num_lits);
    vars += batch[g]->vc.num_vars;
    clauses += batch[g]->vc.num_clauses;
    lits += batch[g]->lc.num_lits;
    nnz += batch[g]->vc.svc.nnz();
  }
  const GraphBatch& packed = p.packed();
  EXPECT_EQ(packed.vc.num_vars, vars);
  EXPECT_EQ(packed.vc.num_clauses, clauses);
  EXPECT_EQ(packed.vc.svc.rows(), vars);
  EXPECT_EQ(packed.vc.svc.cols(), clauses);
  EXPECT_EQ(packed.vc.svc.nnz(), nnz);
  EXPECT_EQ(packed.lc.num_lits, lits);
  ASSERT_EQ(packed.lc.flip.size(), lits);
  // The packed flip must pair literals within their own block.
  for (std::size_t g = 0; g < batch.size(); ++g) {
    for (std::uint32_t i = p.lit_offsets[g]; i < p.lit_offsets[g + 1]; ++i) {
      EXPECT_EQ(packed.lc.flip[packed.lc.flip[i]], i);
      EXPECT_GE(packed.lc.flip[i], p.lit_offsets[g]);
      EXPECT_LT(packed.lc.flip[i], p.lit_offsets[g + 1]);
    }
  }
}

TEST(PackedGraphsTest, OneGraphBatchBorrowsItsOperators) {
  const std::vector<GraphBatch> corpus = build_corpus();
  const GraphBatch& g = corpus[1];
  const PackedGraphs p(g);

  EXPECT_EQ(p.num_graphs, 1u);
  EXPECT_EQ(p.var_offsets, (std::vector<std::uint32_t>{0, 12}));
  EXPECT_EQ(p.clause_offsets, (std::vector<std::uint32_t>{0, 40}));
  EXPECT_EQ(p.lit_offsets, (std::vector<std::uint32_t>{0, 24}));
  // No operator copy: the program binds the graph's own matrices.
  EXPECT_EQ(&p.packed(), &g);
}

TEST(PackedGraphsTest, BlockDiagonalSpmmMatchesPerBlockMultiply) {
  const std::vector<GraphBatch> corpus = build_corpus();
  const std::vector<const GraphBatch*> batch = make_batch(corpus, 3);
  const PackedGraphs p = PackedGraphs::build(batch);

  std::mt19937_64 rng(13);
  const Matrix x = Matrix::xavier(p.packed().vc.num_clauses, 4, rng);
  const Matrix packed_y = p.packed().vc.svc.multiply(x);

  for (std::size_t g = 0; g < batch.size(); ++g) {
    Matrix xg(batch[g]->vc.num_clauses, 4);
    for (std::size_t r = 0; r < xg.rows(); ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        xg.at(r, c) = x.at(p.clause_offsets[g] + r, c);
      }
    }
    const Matrix yg = batch[g]->vc.svc.multiply(xg);
    for (std::size_t r = 0; r < yg.rows(); ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(bits(yg.at(r, c)),
                  bits(packed_y.at(p.var_offsets[g] + r, c)))
            << "block " << g << " row " << r;
      }
    }
  }
}

// --- segmented ops: backward via the numeric checker -------------------------

TEST(SegmentedOpsTest, SegmentMeanRowsGradCheck) {
  std::mt19937_64 rng(11);
  Parameter a(Matrix::xavier(5, 3, rng));
  ns::testing::expect_gradients_match(
      {&a},
      [&](Tape& t) {
        const SegmentsId seg = t.add_segments({0, 2, 5});
        const TensorId m = t.segment_mean_rows(t.param(&a), seg);  // 2×3
        return t.matmul(mean_over_rows(t, m), t.constant(Matrix::ones(3, 1)));
      });
}

TEST(SegmentedOpsTest, SegmentFrobeniusNormalizeGradCheck) {
  std::mt19937_64 rng(19);
  Parameter a(Matrix::xavier(5, 3, rng));
  ns::testing::expect_gradients_match(
      {&a},
      [&](Tape& t) {
        const SegmentsId seg = t.add_segments({0, 1, 5});
        const TensorId n = t.segment_frobenius_normalize(t.param(&a), seg);
        // Weighted scalarization keeps the gradient direction-sensitive.
        Matrix w(5, 3);
        for (std::size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = 0.07f * static_cast<float>(i + 1);
        }
        const TensorId h = t.hadamard(n, t.constant(std::move(w)));
        return t.matmul(mean_over_rows(t, h), t.constant(Matrix::ones(3, 1)));
      },
      5e-3f, 6e-2f);
}

TEST(SegmentedOpsTest, SegmentMatmulAtBGradCheck) {
  std::mt19937_64 rng(23);
  Parameter a(Matrix::xavier(6, 2, rng));
  Parameter b(Matrix::xavier(6, 3, rng));
  ns::testing::expect_gradients_match(
      {&a, &b},
      [&](Tape& t) {
        const SegmentsId seg = t.add_segments({0, 2, 6});
        const TensorId y =
            t.segment_matmul_at_b(t.param(&a), t.param(&b), seg);  // 4×3
        Matrix w(4, 3);
        for (std::size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = 0.05f * static_cast<float>(i + 1);
        }
        const TensorId h = t.hadamard(y, t.constant(std::move(w)));
        return t.matmul(mean_over_rows(t, h), t.constant(Matrix::ones(3, 1)));
      },
      5e-3f, 6e-2f);
}

TEST(SegmentedOpsTest, SegmentBlockMatmulGradCheck) {
  std::mt19937_64 rng(29);
  Parameter a(Matrix::xavier(5, 2, rng));
  Parameter w(Matrix::xavier(4, 3, rng));  // two stacked 2×3 blocks
  ns::testing::expect_gradients_match(
      {&a, &w},
      [&](Tape& t) {
        const SegmentsId seg = t.add_segments({0, 2, 5});
        const TensorId y =
            t.segment_block_matmul(t.param(&a), t.param(&w), seg);  // 5×3
        Matrix m(5, 3);
        for (std::size_t i = 0; i < m.size(); ++i) {
          m.data()[i] = 0.05f * static_cast<float>(i + 1);
        }
        const TensorId h = t.hadamard(y, t.constant(std::move(m)));
        return t.matmul(mean_over_rows(t, h), t.constant(Matrix::ones(3, 1)));
      },
      5e-3f, 6e-2f);
}

TEST(SegmentedOpsTest, SegmentedAttentionGradCheck) {
  std::mt19937_64 rng(31);
  LinearAttention attn(3, rng);
  Parameter z(Matrix::xavier(5, 3, rng));
  std::vector<Parameter*> params = {&z};
  attn.collect_parameters(params);
  const std::vector<std::uint32_t> offsets = {0, 2, 5};
  ns::testing::expect_gradients_match(
      params,
      [&](Tape& t) {
        const SegmentsId seg = t.add_segments(offsets);
        const TensorId out = attn.forward(t, t.param(&z), seg);
        Matrix w(5, 3);
        for (std::size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = 0.05f * static_cast<float>(i + 1);
        }
        const TensorId h = t.hadamard(out, t.constant(std::move(w)));
        return t.matmul(mean_over_rows(t, h), t.constant(Matrix::ones(3, 1)));
      },
      5e-3f, 6e-2f);
}

// --- recorder validation ------------------------------------------------------

TEST(SegmentedOpsTest, RecorderRejectsMalformedSegments) {
  Program prog;
  EXPECT_THROW(prog.add_segments({0}), std::invalid_argument);
  EXPECT_THROW(prog.add_segments({1, 3}), std::invalid_argument);
  EXPECT_THROW(prog.add_segments({0, 3, 3}), std::invalid_argument);
  EXPECT_THROW(prog.add_segments({0, 4, 2}), std::invalid_argument);
}

TEST(SegmentedOpsTest, RecorderRejectsCoverageAndShapeMismatches) {
  Program prog;
  const TensorId a5 = prog.constant(Matrix(5, 3, 1.0f));
  const TensorId a4 = prog.constant(Matrix(4, 3, 1.0f));
  const SegmentsId seg = prog.add_segments({0, 2, 4});  // covers 4 rows

  EXPECT_THROW(prog.segment_mean_rows(a5, seg), std::invalid_argument);
  EXPECT_THROW(prog.segment_frobenius_normalize(a5, seg),
               std::invalid_argument);
  EXPECT_THROW(prog.segment_matmul_at_b(a4, a5, seg), std::invalid_argument);
  // Blocks operand must stack num_segments blocks of a.cols() rows: 2·3 = 6.
  const TensorId wbad = prog.constant(Matrix(5, 2, 1.0f));
  EXPECT_THROW(prog.segment_block_matmul(a4, wbad, seg),
               std::invalid_argument);
  // An unregistered SegmentsId must be rejected by every segmented recorder.
  EXPECT_THROW(prog.segment_mean_rows(a4, SegmentsId{}),
               std::invalid_argument);

  // The program must still record valid segmented ops after the failures.
  const TensorId ok = prog.segment_mean_rows(a4, seg);
  EXPECT_EQ(prog.rows(ok), 2u);
  EXPECT_EQ(prog.cols(ok), 3u);
}

}  // namespace
}  // namespace ns::nn
