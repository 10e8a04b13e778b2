#include "core/labeling.hpp"

#include "runtime/thread_pool.hpp"

namespace ns::core {

/// The paper's 2% rule (Sec. 5.1).
constexpr double kImprovementThreshold = 0.02;

LabeledInstance label_instance(gen::NamedInstance inst,
                               const LabelingOptions& options) {
  LabeledInstance out;

  solver::SolverOptions solver_options;
  solver_options.max_propagations = options.max_propagations;

  // The two policy runs are independent solves of the same formula; fan
  // them across the pool. When label_dataset already parallelizes over
  // instances this runs inline (nested regions serialize).
  const policy::PolicyKind kinds[2] = {policy::PolicyKind::kDefault,
                                       policy::PolicyKind::kFrequency};
  solver::SolveOutcome outcomes[2];
  runtime::parallel_for(2, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      solver::SolverOptions run_options = solver_options;
      run_options.deletion_policy = kinds[i];
      outcomes[i] = solver::solve_formula(inst.formula, run_options);
    }
  });
  const solver::SolveOutcome& def = outcomes[0];
  const solver::SolveOutcome& freq = outcomes[1];

  out.propagations_default = def.stats.propagations;
  out.propagations_frequency = freq.stats.propagations;
  out.result_default = def.result;
  out.result_frequency = freq.result;

  // Label 1 iff the frequency policy saves >= threshold of propagations
  // (Sec. 5.1). A budget-capped run simply contributes its capped count.
  const double d = static_cast<double>(out.propagations_default);
  const double f = static_cast<double>(out.propagations_frequency);
  out.label = (d > 0.0 && (d - f) / d >= kImprovementThreshold) ? 1 : 0;

  out.graph = nn::GraphBatch::build(inst.formula);
  out.instance = std::move(inst);
  return out;
}

std::vector<LabeledInstance> label_dataset(
    std::vector<gen::NamedInstance> split, const LabelingOptions& options) {
  std::vector<LabeledInstance> out(split.size());
  // Instances are independent (solve_formula is a pure function), and each
  // slot is written by exactly one thread, so the labels are identical to
  // the serial loop for any thread count.
  runtime::parallel_for(split.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      out[i] = label_instance(std::move(split[i]), options);
    }
  });
  return out;
}

double positive_fraction(const std::vector<LabeledInstance>& data) {
  if (data.empty()) return 0.0;
  std::size_t pos = 0;
  for (const LabeledInstance& d : data) pos += d.label;
  return static_cast<double>(pos) / static_cast<double>(data.size());
}

}  // namespace ns::core
