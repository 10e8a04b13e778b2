#include "core/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>

#include "core/neuroselect.hpp"

namespace ns::core {

/// Cap on the positive class weight min(#neg/#pos, kMaxPosWeight).
constexpr float kMaxPosWeight = 8.0f;

std::vector<EpochStats> train_classifier(
    nn::SatClassifier& model, const std::vector<LabeledInstance>& train,
    const TrainOptions& options) {
  nn::Adam optimizer(model.parameters(), options.learning_rate);
  std::mt19937_64 rng(options.seed);

  // Class rebalancing: weight the scarce positive class up.
  std::size_t pos = 0;
  for (const LabeledInstance& inst : train) pos += inst.label;
  const std::size_t neg = train.size() - pos;
  float pos_weight = 1.0f;
  if (pos > 0 && neg > pos) {
    pos_weight = std::min(kMaxPosWeight,
                          static_cast<float>(neg) / static_cast<float>(pos));
  }

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  // Compile-once cache: each instance's forward+loss graph is recorded on
  // its first visit and re-executed every epoch after that. Parameter
  // leaves bind live values, so re-running the same program after an
  // optimizer step is exactly the re-record-every-step computation, minus
  // the recording. Heap-allocated so Program addresses stay stable for the
  // executors.
  struct Compiled {
    nn::Program prog;
    nn::TensorId logit, loss;
    std::unique_ptr<nn::Executor> exec;
  };
  std::vector<std::unique_ptr<Compiled>> compiled(train.size());

  std::vector<EpochStats> history;
  history.reserve(options.epochs);
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (const std::size_t idx : order) {
      const LabeledInstance& inst = train[idx];
      if (!compiled[idx]) {
        auto c = std::make_unique<Compiled>();
        c->logit = model.forward_logits(c->prog, inst.graph);
        c->loss = c->prog.bce_with_logits(
            c->logit, static_cast<float>(inst.label), pos_weight);
        c->exec = nn::make_verified_executor(c->prog, nn::ExecMode::kTraining);
        compiled[idx] = std::move(c);
      }
      Compiled& c = *compiled[idx];
      c.exec->forward();
      loss_sum += c.exec->value(c.loss).at(0, 0);
      const bool predicted_pos = c.exec->value(c.logit).at(0, 0) > 0.0f;
      correct += (predicted_pos == (inst.label == 1)) ? 1 : 0;
      c.exec->backward(c.loss);
      optimizer.step();  // batch size 1, as in the paper
    }
    EpochStats st;
    st.epoch = epoch;
    st.mean_loss = train.empty() ? 0.0 : loss_sum / train.size();
    st.train_accuracy =
        train.empty() ? 0.0
                      : static_cast<double>(correct) / train.size();
    history.push_back(st);
    if (options.log_every != 0 && epoch % options.log_every == 0) {
      std::printf("[train %-24s] epoch %4zu  loss %.4f  acc %.3f\n",
                  std::string(model.name()).c_str(), epoch, st.mean_loss,
                  st.train_accuracy);
    }
  }
  return history;
}

ClassificationMetrics evaluate_classifier(
    nn::SatClassifier& model, const std::vector<LabeledInstance>& data) {
  // Batched inference over the epoch (parallel across instances); the
  // confusion counts reduce serially in instance order.
  std::vector<const nn::GraphBatch*> graphs;
  graphs.reserve(data.size());
  for (const LabeledInstance& inst : data) graphs.push_back(&inst.graph);
  const std::vector<float> probs = classify_batch(model, graphs);

  ClassificationMetrics m;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const LabeledInstance& inst = data[i];
    const bool predicted = probs[i] > 0.5f;
    const bool actual = inst.label == 1;
    if (predicted && actual) ++m.tp;
    if (predicted && !actual) ++m.fp;
    if (!predicted && actual) ++m.fn;
    if (!predicted && !actual) ++m.tn;
  }
  const double tp = static_cast<double>(m.tp);
  const std::size_t total = m.tp + m.fp + m.tn + m.fn;
  m.precision = (m.tp + m.fp) > 0 ? tp / (m.tp + m.fp) : 0.0;
  m.recall = (m.tp + m.fn) > 0 ? tp / (m.tp + m.fn) : 0.0;
  m.f1 = (m.precision + m.recall) > 0.0
             ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  m.accuracy =
      total > 0 ? static_cast<double>(m.tp + m.tn) / total : 0.0;
  return m;
}

}  // namespace ns::core
