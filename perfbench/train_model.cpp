/// \file train_model.cpp
/// One-off trainer for the classifier weights the benchmark loads
/// (perfbench/model/neuroselect.nsweights). It runs the in-repo pipeline —
/// build_dataset → dual-policy labelling (the 2% rule) → train_classifier
/// on the default NeuroSelectModel — and saves the parameters. An untrained
/// model reads p just under 0.5 on every instance, so the workloads would
/// only ever see the default deletion policy; trained weights make the
/// corpus exercise both.
///
/// Usage: perfbench_train <out.nsweights>
/// Deterministic: the same build writes the same file.

#include <cstdio>

#include "core/labeling.hpp"
#include "core/neuroselect.hpp"
#include "core/trainer.hpp"
#include "gen/dataset.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out.nsweights>\n", argv[0]);
    return 2;
  }
  ns::gen::Dataset ds = ns::gen::build_dataset(/*per_year=*/8, /*seed=*/29);
  ns::core::LabelingOptions lopts;
  lopts.max_propagations = 500'000;
  const auto train = ns::core::label_dataset(std::move(ds.train), lopts);
  const auto test = ns::core::label_dataset(std::move(ds.test), lopts);
  std::printf("labelled %zu train instances, %.0f%% prefer frequency\n",
              train.size(), 100.0 * ns::core::positive_fraction(train));

  ns::nn::NeuroSelectModel model;
  ns::core::TrainOptions topts;
  topts.epochs = 40;
  topts.learning_rate = 5e-4f;
  topts.seed = 6;
  ns::core::train_classifier(model, train, topts);

  const auto report = [&](const char* split,
                          const std::vector<ns::core::LabeledInstance>& data) {
    const ns::core::ClassificationMetrics m =
        ns::core::evaluate_classifier(model, data);
    std::size_t frequency = 0;
    for (const ns::core::LabeledInstance& inst : data) {
      if (ns::core::binary_selection(model.predict_probability(inst.graph))
              .primary == 1) {
        ++frequency;
      }
    }
    std::printf("%s: accuracy %.3f, f1 %.3f, frequency chosen on %zu/%zu\n",
                split, m.accuracy, m.f1, frequency, data.size());
  };
  report("train", train);
  report("test", test);

  if (!ns::nn::save_parameters(model, argv[1])) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}
