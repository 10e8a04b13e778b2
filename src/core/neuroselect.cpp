#include "core/neuroselect.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "graph/graph.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::core {
namespace {

/// Priority-head targets: decided within this factor of the winner's ticks.
constexpr float kNearBest = 1.25f;
/// Step size of the priority heads' gradient descent.
constexpr float kHeadLearningRate = 0.5f;

double proxy_seconds(std::uint64_t propagations) {
  return static_cast<double>(propagations) / kProxyPropsPerSecond;
}

struct MedianAvg {
  double median = 0.0;
  double average = 0.0;
  std::size_t count = 0;
};

MedianAvg median_avg(std::vector<double> values) {
  MedianAvg out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.median = (n % 2 == 1) ? values[n / 2]
                            : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  double sum = 0.0;
  for (double v : values) sum += v;
  out.average = sum / static_cast<double>(n);
  return out;
}

}  // namespace

void PortfolioSelector::set_heads(const std::vector<PriorityHead>& heads) {
  const std::size_t n = std::min(heads.size(), heads_.size());
  for (std::size_t i = 0; i < n; ++i) heads_[i] = heads[i];
}

PortfolioSelector::PortfolioSelector(nn::SatClassifier* model,
                                     std::vector<solver::SolverOptions> configs)
    : model_(model),
      configs_(std::move(configs)),
      heads_(analytic_heads(configs_)) {}

std::vector<PriorityHead> PortfolioSelector::analytic_heads(
    const std::vector<solver::SolverOptions>& configs) {
  std::vector<PriorityHead> heads;
  heads.reserve(configs.size());
  for (const solver::SolverOptions& o : configs) {
    // Logit 4p - 2 for frequency-deletion configs, 2 - 4p otherwise: the
    // paper's p > 0.5 rule, exact (see binary_selection), with head
    // magnitudes that trained GD can sharpen or flip per config.
    if (o.deletion_policy == policy::PolicyKind::kFrequency) {
      heads.push_back({4.0f, 0.0f, -2.0f});
    } else {
      heads.push_back({0.0f, 4.0f, -2.0f});
    }
  }
  return heads;
}

PolicySelection PortfolioSelector::select(const CnfFormula& formula) const {
  return select_from_probability(classify_formula(model_, formula));
}

PolicySelection PortfolioSelector::select_from_probability(float p) const {
  PolicySelection sel;
  sel.p_frequency = p;
  const std::array<float, 3> x{p, 1.0f - p, 1.0f};
  std::vector<float> logits(heads_.size());
  sel.priority.resize(heads_.size());
  sel.ranked.resize(heads_.size());
  for (std::size_t c = 0; c < heads_.size(); ++c) {
    logits[c] = heads_[c][0] * x[0] + heads_[c][1] * x[1] + heads_[c][2];
    sel.priority[c] = 1.0f / (1.0f + std::exp(-logits[c]));
    sel.ranked[c] = static_cast<std::uint32_t>(c);
  }
  // Rank by the raw logit, not the sigmoid: monotone-equivalent, but exact
  // where the sigmoid's float rounding could collapse near ties. stable_sort
  // keeps ascending id order on exact ties (the racer's tie-break).
  std::stable_sort(sel.ranked.begin(), sel.ranked.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return logits[a] > logits[b];
                   });
  if (!sel.ranked.empty()) sel.primary = sel.ranked.front();
  return sel;
}

PolicySelection binary_selection(float p_frequency) {
  // Config 0 = default deletion, config 1 = frequency deletion. With the
  // analytic heads the logits are 2 - 4p and 4p - 2; 4p is an exact float
  // (exponent shift) and 4p - 2 is exact by Sterbenz for p in [0.25, 1],
  // so primary == 1 exactly when p > 0.5 — the historical threshold.
  std::vector<solver::SolverOptions> configs(2);
  configs[1].deletion_policy = policy::PolicyKind::kFrequency;
  return PortfolioSelector(nullptr, std::move(configs))
      .select_from_probability(p_frequency);
}

PortfolioLabel label_portfolio(
    const CnfFormula& formula,
    const std::vector<solver::SolverOptions>& configs,
    std::uint64_t slice_ticks, std::uint64_t max_ticks) {
  PortfolioLabel label;
  label.ticks.resize(configs.size(), 0);
  label.decided.resize(configs.size(), false);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    solver::Solver engine(configs[c]);
    engine.load(formula);
    engine.set_budget({.conflicts = 0, .propagations = 0,
                       .ticks = slice_ticks});
    solver::SatResult result = solver::SatResult::kUnknown;
    for (;;) {
      const solver::SolveOutcome out = engine.solve();
      label.ticks[c] = engine.stats().ticks;
      if (out.result != solver::SatResult::kUnknown) {
        result = out.result;
        label.decided[c] = true;
        break;
      }
      if (out.why != solver::StopReason::kTickBudget) break;  // lifetime cap
      if (max_ticks != 0 && label.ticks[c] >= max_ticks) break;
    }
    if (label.decided[c] &&
        (label.best < 0 ||
         label.ticks[c] < label.ticks[static_cast<std::size_t>(label.best)])) {
      // Strict < keeps the lowest id on equal ticks (ascending scan).
      label.best = static_cast<int>(c);
      label.result = result;
    }
  }
  return label;
}

std::vector<PriorityHead> train_priority_heads(
    nn::SatClassifier* model, const std::vector<gen::NamedInstance>& train,
    const std::vector<solver::SolverOptions>& configs,
    const PriorityTrainOptions& options) {
  std::vector<PriorityHead> heads =
      PortfolioSelector::analytic_heads(configs);
  if (train.empty() || configs.empty()) return heads;

  // One deterministic labeling pass: per instance, the classifier
  // probability and the per-config near-best targets.
  std::vector<std::array<float, 3>> features(train.size());
  std::vector<std::vector<float>> targets(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    const float p = classify_formula(model, train[i].formula);
    features[i] = {p, 1.0f - p, 1.0f};
    const PortfolioLabel label = label_portfolio(
        train[i].formula, configs, options.slice_ticks, options.max_ticks);
    targets[i].resize(configs.size(), 0.0f);
    if (label.best >= 0) {
      const double cutoff =
          static_cast<double>(kNearBest) *
          static_cast<double>(label.ticks[static_cast<std::size_t>(label.best)]);
      for (std::size_t c = 0; c < configs.size(); ++c) {
        if (label.decided[c] && static_cast<double>(label.ticks[c]) <= cutoff) {
          targets[i][c] = 1.0f;
        }
      }
    }
  }

  // Full-batch logistic regression per config head (independent problems;
  // deterministic: fixed epochs, fixed iteration order, no RNG).
  const float inv_n = 1.0f / static_cast<float>(train.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    PriorityHead& w = heads[c];
    for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
      std::array<float, 3> grad{0.0f, 0.0f, 0.0f};
      for (std::size_t i = 0; i < train.size(); ++i) {
        const std::array<float, 3>& x = features[i];
        const float logit = w[0] * x[0] + w[1] * x[1] + w[2] * x[2];
        const float err = 1.0f / (1.0f + std::exp(-logit)) - targets[i][c];
        for (std::size_t k = 0; k < 3; ++k) grad[k] += err * x[k];
      }
      for (std::size_t k = 0; k < 3; ++k) {
        w[k] -= kHeadLearningRate * inv_n * grad[k];
      }
    }
  }
  return heads;
}

float classify_formula(nn::SatClassifier* model, const CnfFormula& formula) {
  if (model == nullptr || formula.num_vars() == 0 ||
      formula.num_clauses() == 0) {
    return 0.5f;
  }
  const nn::GraphBatch graph = nn::GraphBatch::build(formula);
  return model->predict_probability(graph);
}

std::vector<float> classify_batch(
    nn::SatClassifier& model,
    const std::vector<const nn::GraphBatch*>& batch) {
  std::vector<float> probs(batch.size(), 0.5f);
  // One session per graph, each index writing only its own slot. Nothing
  // in the body may throw on a pool worker, so empty graphs are screened
  // here with classify_formula's rule instead of failing to record.
  runtime::parallel_for(batch.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const nn::GraphBatch& g = *batch[i];
      if (g.vc.num_vars == 0 || g.vc.num_clauses == 0) continue;
      nn::InferenceSession session(model, g);
      probs[i] = session.predict_probability();
    }
  });
  return probs;
}

InstanceRun run_instance(nn::SatClassifier* model,
                         const gen::NamedInstance& inst,
                         const EndToEndOptions& options) {
  InstanceRun run;
  run.name = inst.name;
  run.within_cap = graph::within_node_cap(inst.formula, options.node_cap);

  solver::SolverOptions solver_options;
  solver_options.max_propagations = options.timeout_propagations;

  // Baseline: plain Kissat (default deletion policy).
  solver_options.deletion_policy = policy::PolicyKind::kDefault;
  const solver::SolveOutcome baseline =
      solver::solve_formula(inst.formula, solver_options);
  run.kissat_solved = baseline.result != solver::SatResult::kUnknown;
  run.kissat_seconds =
      proxy_seconds(run.kissat_solved ? baseline.stats.propagations
                                      : options.timeout_propagations);

  // NeuroSelect-Kissat: one inference picks the policy (Sec. 5.4). Large
  // instances bypass the model and keep the default policy.
  run.chosen = policy::PolicyKind::kDefault;
  if (model != nullptr && run.within_cap) {
    // NS_SUPPRESS(randomness): measurement only — the clock reads feed the
    // reported inference_seconds and never a decision; the policy choice
    // below depends solely on the deterministic model output p.
    const auto t0 = std::chrono::steady_clock::now();
    const float p = classify_formula(model, inst.formula);
    // NS_SUPPRESS(randomness): measurement only (see t0 above).
    const auto t1 = std::chrono::steady_clock::now();
    run.inference_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    // The binary decision is the 2-config portfolio selection (config 1 =
    // frequency); primary == 1 is bit-equivalent to the old p > 0.5 rule.
    if (binary_selection(p).primary == 1) {
      run.chosen = policy::PolicyKind::kFrequency;
    }
  }

  if (run.chosen == policy::PolicyKind::kDefault) {
    // Same configuration as the baseline: reuse the measurement.
    run.neuroselect_solved = run.kissat_solved;
    run.neuroselect_seconds = run.kissat_seconds;
    return run;
  }

  solver_options.deletion_policy = run.chosen;
  const solver::SolveOutcome guided =
      solver::solve_formula(inst.formula, solver_options);
  run.neuroselect_solved = guided.result != solver::SatResult::kUnknown;
  run.neuroselect_seconds =
      proxy_seconds(run.neuroselect_solved ? guided.stats.propagations
                                           : options.timeout_propagations);
  return run;
}

EndToEndSummary run_end_to_end(nn::SatClassifier& model,
                               const std::vector<gen::NamedInstance>& test,
                               const EndToEndOptions& options) {
  EndToEndSummary summary;
  summary.runs.resize(test.size());
  // Instance runs are independent; only the wall-clock inference timing
  // (reported, never branched on) varies with load, so the chosen policies
  // and proxy runtimes are deterministic.
  runtime::parallel_for(test.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      summary.runs[i] = run_instance(&model, test[i], options);
    }
  });

  std::vector<double> kissat_times, neuro_times;
  for (const InstanceRun& run : summary.runs) {
    if (run.kissat_solved) {
      ++summary.solved_kissat;
      kissat_times.push_back(run.kissat_seconds);
    }
    if (run.neuroselect_solved) {
      ++summary.solved_neuroselect;
      neuro_times.push_back(run.neuroselect_seconds);
    }
  }
  const MedianAvg k = median_avg(std::move(kissat_times));
  const MedianAvg n = median_avg(std::move(neuro_times));
  summary.median_kissat = k.median;
  summary.average_kissat = k.average;
  summary.median_neuroselect = n.median;
  summary.average_neuroselect = n.average;
  summary.median_improvement_percent =
      k.median > 0.0 ? 100.0 * (k.median - n.median) / k.median : 0.0;
  summary.average_improvement_percent =
      k.average > 0.0 ? 100.0 * (k.average - n.average) / k.average : 0.0;
  return summary;
}

}  // namespace ns::core
