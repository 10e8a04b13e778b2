#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.hpp"
#include "gradcheck.hpp"
#include "graph/graph.hpp"
#include "nn/models.hpp"

namespace ns::nn {
namespace {

using ns::testing::forward_value;

CnfFormula tiny_formula() {
  // c1 = ~x0 ∨ x1 ; c2 = ~x1 ∨ x2  (the Fig. 6 example)
  CnfFormula f(3);
  f.add_clause({Lit(0, true), Lit(1, false)});
  f.add_clause({Lit(1, true), Lit(2, false)});
  return f;
}

// --- graph tensor construction ----------------------------------------------

TEST(GraphTensorsTest, VcShapesAndWeights) {
  const GraphBatch b = GraphBatch::build(tiny_formula());
  EXPECT_EQ(b.vc.num_vars, 3u);
  EXPECT_EQ(b.vc.num_clauses, 2u);
  EXPECT_EQ(b.vc.avc.nnz(), 4u);
  // Clause 0 aggregating variable features [1, 2, 3] with weights
  // (-1 on x0, +1 on x1) sums to +1; mean halves it.
  Matrix xv(3, 1);
  xv.at(0, 0) = 1.0f;
  xv.at(1, 0) = 2.0f;
  xv.at(2, 0) = 3.0f;
  const Matrix raw = b.vc.acv.multiply(xv);
  EXPECT_FLOAT_EQ(raw.at(0, 0), -1.0f + 2.0f);
  EXPECT_FLOAT_EQ(raw.at(1, 0), -2.0f + 3.0f);
  const Matrix mean = b.vc.scv.multiply(xv);
  EXPECT_FLOAT_EQ(mean.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(mean.at(1, 0), 0.5f);
}

TEST(GraphTensorsTest, LcFlipPairsLiterals) {
  const GraphBatch b = GraphBatch::build(tiny_formula());
  EXPECT_EQ(b.lc.num_lits, 6u);
  for (std::uint32_t i = 0; i < b.lc.num_lits; ++i) {
    EXPECT_EQ(b.lc.flip[b.lc.flip[i]], i);
    EXPECT_NE(b.lc.flip[i], i);
  }
}

TEST(GraphTensorsTest, NodeCapFilter) {
  const CnfFormula f = tiny_formula();
  EXPECT_TRUE(graph::within_node_cap(f, 5));
  EXPECT_FALSE(graph::within_node_cap(f, 4));
}

// --- forward-pass sanity across all models ------------------------------------

class ModelForwardTest : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(ModelForwardTest, LogitIsFiniteScalarAndDeterministic) {
  const auto model_a = make_classifier(GetParam(), /*seed=*/5);
  const auto model_b = make_classifier(GetParam(), /*seed=*/5);
  const GraphBatch g =
      GraphBatch::build(gen::random_ksat(12, 40, 3, 77));

  Program pa, pb;
  const Matrix la = forward_value(pa, model_a->forward_logits(pa, g));
  const Matrix lb = forward_value(pb, model_b->forward_logits(pb, g));
  ASSERT_EQ(la.rows(), 1u);
  ASSERT_EQ(la.cols(), 1u);
  EXPECT_TRUE(std::isfinite(la.at(0, 0)));
  // Same seed, same instance → identical output.
  EXPECT_FLOAT_EQ(la.at(0, 0), lb.at(0, 0));

  const float p = model_a->predict_probability(g);
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
}

TEST_P(ModelForwardTest, DifferentSeedsGiveDifferentLogits) {
  const auto model_a = make_classifier(GetParam(), 5);
  const auto model_b = make_classifier(GetParam(), 6);
  const GraphBatch g = GraphBatch::build(gen::random_ksat(12, 40, 3, 77));
  EXPECT_NE(model_a->predict_probability(g), model_b->predict_probability(g));
}

TEST_P(ModelForwardTest, HasTrainableParameters) {
  const auto model = make_classifier(GetParam(), 1);
  const auto params = model->parameters();
  EXPECT_GT(params.size(), 4u);
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->value.size();
  EXPECT_GT(total, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelForwardTest,
    ::testing::Values(ClassifierKind::kNeuroSat, ClassifierKind::kGin,
                      ClassifierKind::kNeuroSelectNoAttention,
                      ClassifierKind::kNeuroSelect),
    [](const auto& info) {
      switch (info.param) {
        case ClassifierKind::kNeuroSat: return "NeuroSat";
        case ClassifierKind::kGin: return "Gin";
        case ClassifierKind::kNeuroSelectNoAttention: return "NoAttention";
        default: return "NeuroSelect";
      }
    });

// --- attention-specific behaviour -----------------------------------------------

TEST(LinearAttentionTest, OutputShapeMatchesInput) {
  std::mt19937_64 rng(3);
  LinearAttention attn(4, rng);
  Program prog;
  const TensorId z = prog.constant(Matrix::xavier(7, 4, rng));
  const Matrix out = forward_value(prog, attn.forward(prog, z));
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(LinearAttentionTest, GradCheck) {
  std::mt19937_64 rng(5);
  LinearAttention attn(3, rng);
  Parameter z(Matrix::xavier(5, 3, rng));
  std::vector<Parameter*> params = {&z};
  attn.collect_parameters(params);
  ns::testing::expect_gradients_match(
      params,
      [&](Program& t) {
        const TensorId out = attn.forward(t, t.param(&z));
        // weighted scalarization
        Matrix w(5, 3);
        for (std::size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = 0.05f * static_cast<float>(i + 1);
        }
        const TensorId h = t.hadamard(out, t.constant(std::move(w)));
        return t.matmul(t.mean_rows(h), t.constant(Matrix::ones(3, 1)));
      },
      5e-3f, 6e-2f);
}

TEST(LinearAttentionTest, AttentionMixesDistantNodes) {
  // With attention, changing node j's features must affect node i's output
  // even with no graph edge between them (global receptive field).
  std::mt19937_64 rng(7);
  LinearAttention attn(3, rng);
  Matrix z0 = Matrix::xavier(6, 3, rng);
  Matrix z1 = z0;
  z1.at(5, 0) += 1.0f;  // perturb the last node only

  Program prog;
  const TensorId o0 = attn.forward(prog, prog.constant(z0));
  const TensorId o1 = attn.forward(prog, prog.constant(z1));
  const Matrix v0 = forward_value(prog, o0);
  const Matrix v1 = forward_value(prog, o1);
  // Row 0's output must change even though only row 5's input changed.
  float diff = 0.0f;
  for (std::size_t c = 0; c < 3; ++c) {
    diff += std::abs(v0.at(0, c) - v1.at(0, c));
  }
  EXPECT_GT(diff, 1e-7f);
}

TEST(MpnnLayerTest, GradCheckOnTinyGraph) {
  std::mt19937_64 rng(17);
  MpnnLayer layer(3, rng);
  const GraphBatch g = GraphBatch::build(tiny_formula());
  Parameter xv(Matrix::xavier(3, 3, rng));
  Parameter xc(Matrix::xavier(2, 3, rng));
  std::vector<Parameter*> params = {&xv, &xc};
  layer.collect_parameters(params);
  ns::testing::expect_gradients_match(
      params,
      [&](Program& t) {
        auto [hv, hc] = layer.forward(t, g.vc, t.param(&xv), t.param(&xc));
        const TensorId cat = t.concat_cols(t.mean_rows(hv), t.mean_rows(hc));
        return t.matmul(cat, t.constant(Matrix::ones(6, 1)));
      },
      5e-3f, 6e-2f);
}

TEST(NeuroSelectModelTest, FullModelGradCheck) {
  NeuroSelectConfig cfg;
  cfg.hidden_dim = 4;
  cfg.num_hgt_layers = 1;
  cfg.mpnn_per_hgt = 1;
  cfg.seed = 23;
  NeuroSelectModel model(cfg);
  const GraphBatch g = GraphBatch::build(tiny_formula());
  ns::testing::expect_gradients_match(
      model.parameters(),
      [&](Program& t) {
        return t.bce_with_logits(model.forward_logits(t, g), 1.0f);
      },
      5e-3f, 8e-2f);
}

TEST(NeuroSelectModelTest, AblationTogglesParameterCount) {
  NeuroSelectConfig with;
  with.seed = 1;
  NeuroSelectConfig without = with;
  without.use_attention = false;
  NeuroSelectModel m_with(with);
  NeuroSelectModel m_without(without);
  EXPECT_GT(m_with.parameters().size(), m_without.parameters().size());
  EXPECT_EQ(m_with.name(), "NeuroSelect");
  EXPECT_EQ(m_without.name(), "NeuroSelect-w/o-attention");
}

// --- trainability: a model must fit a small separable task -----------------------

TEST(TrainabilityTest, NeuroSelectOverfitsTinyDataset) {
  NeuroSelectConfig cfg;
  cfg.hidden_dim = 8;
  cfg.num_hgt_layers = 1;
  cfg.mpnn_per_hgt = 2;
  cfg.seed = 3;
  NeuroSelectModel model(cfg);
  Adam opt(model.parameters(), 3e-3f);

  // Two clearly different instances with opposite labels.
  const GraphBatch g0 = GraphBatch::build(gen::random_ksat(10, 20, 3, 1));
  const GraphBatch g1 = GraphBatch::build(gen::pigeonhole(4, 3));
  struct Sample {
    const GraphBatch* g;
    float label;
  };
  const Sample samples[] = {{&g0, 0.0f}, {&g1, 1.0f}};

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 120; ++epoch) {
    float loss_sum = 0.0f;
    for (const Sample& s : samples) {
      Program prog;
      const TensorId loss = prog.bce_with_logits(
          model.forward_logits(prog, *s.g), s.label);
      Executor exec(prog, ExecMode::kTraining);
      exec.forward();
      loss_sum += exec.value(loss).at(0, 0);
      exec.backward(loss);
      opt.step();
    }
    if (epoch == 0) first_loss = loss_sum;
    last_loss = loss_sum;
  }
  EXPECT_LT(last_loss, first_loss * 0.5f);
  EXPECT_LT(model.predict_probability(g0), 0.5f);
  EXPECT_GT(model.predict_probability(g1), 0.5f);
}

}  // namespace
}  // namespace ns::nn
