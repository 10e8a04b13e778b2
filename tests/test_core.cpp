#include <gtest/gtest.h>

#include "core/labeling.hpp"
#include "core/neuroselect.hpp"
#include "core/trainer.hpp"
#include "gen/generators.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::core {
namespace {

gen::NamedInstance named(std::string name, CnfFormula f) {
  return gen::NamedInstance{std::move(name), "test", std::move(f)};
}

// --- labelling ------------------------------------------------------------

TEST(LabelingTest, MeasuresBothPolicies) {
  LabelingOptions opts;
  opts.max_propagations = 500'000;
  const LabeledInstance li =
      label_instance(named("php", gen::pigeonhole(7, 6)), opts);
  EXPECT_GT(li.propagations_default, 0u);
  EXPECT_GT(li.propagations_frequency, 0u);
  EXPECT_EQ(li.result_default, solver::SatResult::kUnsat);
  EXPECT_EQ(li.result_frequency, solver::SatResult::kUnsat);
  EXPECT_EQ(li.instance.name, "php");
  // Graph cache must be populated.
  EXPECT_EQ(li.graph.vc.num_vars, li.instance.formula.num_vars());
}

TEST(LabelingTest, LabelFollowsTwoPercentRule) {
  LabelingOptions opts;
  const LabeledInstance li =
      label_instance(named("x", gen::random_ksat(30, 126, 3, 5)), opts);
  const double d = static_cast<double>(li.propagations_default);
  const double f = static_cast<double>(li.propagations_frequency);
  const int expected = (d - f) / d >= 0.02 ? 1 : 0;
  EXPECT_EQ(li.label, expected);
}

TEST(LabelingTest, DeterministicAcrossCalls) {
  LabelingOptions opts;
  const auto mk = [] { return named("x", gen::random_ksat(25, 105, 3, 9)); };
  const LabeledInstance a = label_instance(mk(), opts);
  const LabeledInstance b = label_instance(mk(), opts);
  EXPECT_EQ(a.propagations_default, b.propagations_default);
  EXPECT_EQ(a.propagations_frequency, b.propagations_frequency);
  EXPECT_EQ(a.label, b.label);
}

TEST(LabelingTest, PositiveFractionCountsLabels) {
  std::vector<LabeledInstance> data(4);
  data[0].label = 1;
  data[2].label = 1;
  EXPECT_DOUBLE_EQ(positive_fraction(data), 0.5);
  EXPECT_DOUBLE_EQ(positive_fraction({}), 0.0);
}

// --- metrics ------------------------------------------------------------------

TEST(MetricsTest, PerfectClassifierScoresOne) {
  // Build a fake "classifier" via direct confusion-matrix math: train a
  // model is overkill here, so check evaluate_classifier end to end with a
  // constant model instead, and the formulas with hand counts below.
  ClassificationMetrics m;
  m.tp = 10;
  m.tn = 10;
  const double tp = 10;
  m.precision = tp / (m.tp + m.fp);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
}

TEST(MetricsTest, EvaluateComputesConfusionMatrix) {
  // A NeuroSelect model at initialization is an arbitrary but valid
  // classifier; metrics must be consistent with its own predictions.
  nn::NeuroSelectConfig cfg;
  cfg.hidden_dim = 4;
  cfg.num_hgt_layers = 1;
  nn::NeuroSelectModel model(cfg);

  LabelingOptions lopts;
  lopts.max_propagations = 100'000;
  std::vector<LabeledInstance> data;
  data.push_back(label_instance(named("a", gen::random_ksat(15, 60, 3, 1)), lopts));
  data.push_back(label_instance(named("b", gen::pigeonhole(5, 4)), lopts));
  data.push_back(label_instance(named("c", gen::xor_chain(30, true, 2)), lopts));

  const ClassificationMetrics m = evaluate_classifier(model, data);
  EXPECT_EQ(m.tp + m.fp + m.tn + m.fn, data.size());
  EXPECT_GE(m.accuracy, 0.0);
  EXPECT_LE(m.accuracy, 1.0);
  // accuracy == (tp+tn)/total by definition.
  EXPECT_DOUBLE_EQ(m.accuracy,
                   static_cast<double>(m.tp + m.tn) / data.size());
}

// --- training loop ----------------------------------------------------------------

TEST(TrainerTest, LossDecreasesOnLabelledData) {
  LabelingOptions lopts;
  lopts.max_propagations = 100'000;
  std::vector<LabeledInstance> data;
  data.push_back(label_instance(named("a", gen::random_ksat(12, 50, 3, 3)), lopts));
  data.push_back(label_instance(named("b", gen::pigeonhole(5, 4)), lopts));
  // Force distinct labels so the task is non-degenerate.
  data[0].label = 0;
  data[1].label = 1;

  nn::NeuroSelectConfig cfg;
  cfg.hidden_dim = 8;
  cfg.num_hgt_layers = 1;
  cfg.mpnn_per_hgt = 2;
  nn::NeuroSelectModel model(cfg);

  TrainOptions topts;
  topts.epochs = 80;
  topts.learning_rate = 3e-3f;
  const auto history = train_classifier(model, data, topts);
  ASSERT_EQ(history.size(), 80u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
  EXPECT_GE(history.back().train_accuracy, 0.99);
}

// --- end-to-end driver ---------------------------------------------------------------

TEST(EndToEndTest, RunInstanceWithoutModelUsesDefaultPolicy) {
  EndToEndOptions opts;
  opts.timeout_propagations = 200'000;
  const InstanceRun run =
      run_instance(nullptr, named("php", gen::pigeonhole(6, 5)), opts);
  EXPECT_EQ(run.chosen, policy::PolicyKind::kDefault);
  EXPECT_TRUE(run.kissat_solved);
  EXPECT_TRUE(run.neuroselect_solved);
  EXPECT_DOUBLE_EQ(run.inference_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.kissat_seconds + run.inference_seconds,
                   run.neuroselect_seconds);
}

TEST(EndToEndTest, TimeoutCountsAsUnsolvedAtTimeoutCost) {
  EndToEndOptions opts;
  opts.timeout_propagations = 100;  // everything times out
  const InstanceRun run =
      run_instance(nullptr, named("php", gen::pigeonhole(8, 7)), opts);
  EXPECT_FALSE(run.kissat_solved);
  EXPECT_DOUBLE_EQ(run.kissat_seconds, 100.0 / kProxyPropsPerSecond);
}

TEST(EndToEndTest, SummaryAggregatesRuns) {
  nn::NeuroSelectConfig cfg;
  cfg.hidden_dim = 4;
  cfg.num_hgt_layers = 1;
  nn::NeuroSelectModel model(cfg);

  std::vector<gen::NamedInstance> test;
  test.push_back(named("a", gen::random_ksat(15, 60, 3, 1)));
  test.push_back(named("b", gen::pigeonhole(5, 4)));
  test.push_back(named("c", gen::xor_chain(40, false, 2)));

  EndToEndOptions opts;
  opts.timeout_propagations = 500'000;
  const EndToEndSummary s = run_end_to_end(model, test, opts);
  ASSERT_EQ(s.runs.size(), 3u);
  EXPECT_EQ(s.solved_kissat, 3u);
  EXPECT_EQ(s.solved_neuroselect, 3u);
  EXPECT_GT(s.median_kissat, 0.0);
  EXPECT_GT(s.average_kissat, 0.0);
  for (const InstanceRun& r : s.runs) {
    if (r.within_cap) {
      EXPECT_GT(r.inference_seconds, 0.0);
    }
  }

  // Inference wall time is reported on its own (Fig. 7(b)); the proxy
  // columns and the Table 3 aggregates built from them repeat exactly.
  const EndToEndSummary again = run_end_to_end(model, test, opts);
  std::size_t default_runs = 0;
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const InstanceRun& r = s.runs[i];
    EXPECT_EQ(r.neuroselect_seconds, again.runs[i].neuroselect_seconds);
    if (r.chosen == policy::PolicyKind::kDefault) {
      ++default_runs;
      EXPECT_EQ(r.neuroselect_seconds, r.kissat_seconds) << r.name;
    }
  }
  EXPECT_GT(default_runs, 0u);
  EXPECT_EQ(s.median_neuroselect, again.median_neuroselect);
  EXPECT_EQ(s.average_neuroselect, again.average_neuroselect);
  EXPECT_EQ(s.median_kissat, again.median_kissat);
  EXPECT_EQ(s.average_kissat, again.average_kissat);
}

TEST(EndToEndTest, NodeCapBypassesInference) {
  nn::NeuroSelectConfig cfg;
  cfg.hidden_dim = 4;
  cfg.num_hgt_layers = 1;
  nn::NeuroSelectModel model(cfg);
  EndToEndOptions opts;
  opts.node_cap = 3;  // everything is "too large"
  opts.timeout_propagations = 200'000;
  const InstanceRun run =
      run_instance(&model, named("a", gen::pigeonhole(4, 3)), opts);
  EXPECT_FALSE(run.within_cap);
  EXPECT_EQ(run.chosen, policy::PolicyKind::kDefault);
  EXPECT_DOUBLE_EQ(run.inference_seconds, 0.0);
}

// --- empty-input guard -------------------------------------------------------

TEST(ClassifyFormulaTest, EmptyFormulasSkipInferenceUnderAModel) {
  // A formula with no variables or no clauses has no graph rows to pool.
  // With a model loaded, selection must still fall back to p = 0.5 (the
  // model-free ranking) instead of throwing from the recorder.
  nn::NeuroSelectModel model;
  std::vector<CnfFormula> formulas;
  formulas.emplace_back(5);  // p cnf 5 0
  formulas.emplace_back(0);  // p cnf 0 0
  formulas.emplace_back(0);  // p cnf 0 1 with its empty clause
  formulas.back().add_clause({});

  std::vector<solver::SolverOptions> configs(3);
  configs[1].deletion_policy = policy::PolicyKind::kFrequency;
  const PortfolioSelector with_model(&model, configs);
  const PortfolioSelector model_free(nullptr, configs);
  EndToEndOptions opts;
  opts.timeout_propagations = 1'000;
  for (const CnfFormula& f : formulas) {
    EXPECT_EQ(classify_formula(&model, f), 0.5f);
    PolicySelection sel;
    ASSERT_NO_THROW(sel = with_model.select(f));
    EXPECT_EQ(sel.p_frequency, 0.5f);
    EXPECT_EQ(sel.ranked, model_free.select(f).ranked);
    InstanceRun run;
    ASSERT_NO_THROW(run = run_instance(&model, named("empty", f), opts));
    EXPECT_EQ(run.chosen, policy::PolicyKind::kDefault);
  }

  // classify_batch applies the same rule per graph, on the caller or on a
  // pool worker, next to a non-empty graph that still runs the model.
  std::vector<nn::GraphBatch> graphs;
  for (const CnfFormula& f : formulas) {
    graphs.push_back(nn::GraphBatch::build(f));
  }
  graphs.push_back(nn::GraphBatch::build(gen::random_ksat(8, 30, 3, 4)));
  std::vector<const nn::GraphBatch*> batch;
  for (const nn::GraphBatch& g : graphs) batch.push_back(&g);
  const float nonempty = model.predict_probability(graphs.back());
  for (const std::size_t threads : {1, 4}) {
    runtime::set_global_thread_count(threads);
    std::vector<float> probs;
    ASSERT_NO_THROW(probs = classify_batch(model, batch));
    ASSERT_EQ(probs.size(), batch.size());
    for (std::size_t i = 0; i + 1 < probs.size(); ++i) {
      EXPECT_EQ(probs[i], 0.5f) << "graph " << i << ", " << threads << "t";
    }
    EXPECT_EQ(probs.back(), nonempty) << threads << "t";
  }
  runtime::set_global_thread_count(0);
}

}  // namespace
}  // namespace ns::core
