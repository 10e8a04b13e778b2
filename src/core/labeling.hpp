#pragma once
/// \file labeling.hpp
/// Ground-truth labelling of instances (paper Sec. 5.1): each instance is
/// solved once under each deletion policy with identical budgets; the label
/// is 1 when the frequency-guided policy reduces the total number of
/// propagations by at least 2% relative to the default policy. Propagation
/// counts — not wall-clock — are the measure, exactly as in the paper.

#include <cstdint>
#include <vector>

#include "gen/dataset.hpp"
#include "nn/models.hpp"
#include "solver/solver.hpp"

namespace ns::core {

/// Budget of labelling runs; otherwise both use `solver::SolverOptions{}`.
struct LabelingOptions {
  std::uint64_t max_propagations = 2'000'000;  ///< per-solve budget
};

/// One instance with its dual-policy measurements, graph cache, and label.
struct LabeledInstance {
  gen::NamedInstance instance;
  nn::GraphBatch graph;
  int label = 0;  ///< 1 = frequency policy preferred
  std::uint64_t propagations_default = 0;
  std::uint64_t propagations_frequency = 0;
  solver::SatResult result_default = solver::SatResult::kUnknown;
  solver::SatResult result_frequency = solver::SatResult::kUnknown;
};

/// Solves `inst` under both policies and assigns the 2%-rule label.
LabeledInstance label_instance(gen::NamedInstance inst,
                               const LabelingOptions& options);

/// Labels a whole split.
std::vector<LabeledInstance> label_dataset(std::vector<gen::NamedInstance> split,
                                           const LabelingOptions& options);

/// Fraction of instances with label 1 (for dataset-balance reporting).
double positive_fraction(const std::vector<LabeledInstance>& data);

}  // namespace ns::core
