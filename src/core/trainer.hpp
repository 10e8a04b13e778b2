#pragma once
/// \file trainer.hpp
/// Training loop and classification metrics for the Table-2 comparison.
/// Mirrors the paper's setup: Adam, lr 1e-4, batch size 1, binary
/// cross-entropy (Eq. 11).

#include <cstdint>
#include <vector>

#include "core/labeling.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"

namespace ns::core {

/// Knobs of the training loop. Every epoch reshuffles from `seed`, and the
/// positive BCE term is weighted with min(#neg/#pos, 8) to rebalance classes.
struct TrainOptions {
  std::size_t epochs = 400;
  float learning_rate = 1e-4f;
  std::uint64_t seed = 7;
  std::size_t log_every = 0;  ///< 0 = silent; otherwise print every k epochs
};

/// Per-epoch summary.
struct EpochStats {
  std::size_t epoch = 0;
  double mean_loss = 0.0;
  double train_accuracy = 0.0;
};

/// Confusion-matrix derived metrics (the Table-2 columns).
struct ClassificationMetrics {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double accuracy = 0.0;
};

/// Trains `model` in place; returns the per-epoch history.
std::vector<EpochStats> train_classifier(
    nn::SatClassifier& model, const std::vector<LabeledInstance>& train,
    const TrainOptions& options);

/// Evaluates `model` on `data` at the 0.5 decision threshold.
ClassificationMetrics evaluate_classifier(
    nn::SatClassifier& model, const std::vector<LabeledInstance>& data);

}  // namespace ns::core
