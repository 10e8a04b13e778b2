/// \file bench_fig7_table3_end_to_end.cpp
/// Reproduces paper Fig. 7 and Table 3: NeuroSelect-Kissat vs Kissat on the
/// test split.
///   Fig. 7(a): per-instance scatter of runtimes (CSV below).
///   Fig. 7(b): box statistics of model inference time and of per-instance
///              runtime improvement.
///   Table 3:   #solved, median and average runtime of both configurations.
/// Expected shape: equal #solved, NeuroSelect-Kissat median a few percent
/// lower (the paper reports 5.8%), inference cost negligible vs savings.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/neuroselect.hpp"
#include "nn/models.hpp"

namespace {

struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};

BoxStats box(std::vector<double> v) {
  BoxStats b;
  if (v.empty()) return b;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * (v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
  };
  b.min = v.front();
  b.q1 = at(0.25);
  b.median = at(0.5);
  b.q3 = at(0.75);
  b.max = v.back();
  return b;
}

void print_box(const char* label, const BoxStats& b, const char* unit) {
  std::printf("  %-26s min %.3f | q1 %.3f | median %.3f | q3 %.3f | max %.3f %s\n",
              label, b.min, b.q1, b.median, b.q3, b.max, unit);
}

}  // namespace

int main() {
  // Train NeuroSelect on the 2016-2021 splits.
  const ns::bench::LabeledDataset data =
      ns::bench::build_labeled_dataset(/*train_per_year=*/12, /*test_count=*/36, /*seed=*/17);
  std::printf("training NeuroSelect...\n");
  const auto model = ns::bench::train_with_restarts(
      ns::nn::ClassifierKind::kNeuroSelect, data.train,
      ns::bench::bench_train_options());
  const ns::core::ClassificationMetrics m =
      ns::core::evaluate_classifier(*model, data.test);
  std::printf("test accuracy of the selector: %.1f%%\n\n", 100.0 * m.accuracy);

  // Fresh (unlabelled) test instances for the end-to-end run.
  std::vector<ns::gen::NamedInstance> test =
      ns::gen::generate_split(2022, 36, 17);

  const ns::core::EndToEndOptions opts;
  const ns::core::EndToEndSummary summary =
      ns::core::run_end_to_end(*model, test, opts);

  std::printf("=== Figure 7(a): Kissat vs NeuroSelect-Kissat runtimes ===\n");
  std::printf("name,kissat_s,neuroselect_s,policy,inference_s\n");
  std::vector<double> inference_times, improvements;
  for (const ns::core::InstanceRun& r : summary.runs) {
    std::printf("%s,%.2f,%.2f,%s,%.4f\n", r.name.c_str(), r.kissat_seconds,
                r.neuroselect_seconds,
                r.chosen == ns::policy::PolicyKind::kFrequency ? "frequency"
                                                               : "default",
                r.inference_seconds);
    if (r.within_cap) inference_times.push_back(r.inference_seconds);
    improvements.push_back(r.kissat_seconds - r.neuroselect_seconds);
  }

  std::printf("\n=== Figure 7(b): box-and-whisker statistics ===\n");
  print_box("model inference time", box(inference_times), "s (wall clock)");
  print_box("runtime improvement", box(improvements), "proxy-s");

  std::printf("\n=== Table 3: runtime statistics on the 2022 test split ===\n");
  std::printf("%-22s %-8s %-12s %-12s\n", "", "solved", "median (s)",
              "average (s)");
  std::printf("%-22s %-8zu %-12.2f %-12.2f\n", "Kissat", summary.solved_kissat,
              summary.median_kissat, summary.average_kissat);
  std::printf("%-22s %-8zu %-12.2f %-12.2f\n", "NeuroSelect-Kissat",
              summary.solved_neuroselect, summary.median_neuroselect,
              summary.average_neuroselect);
  std::printf("\nruntime improvement: average %.1f%%, median %.1f%% "
              "(the paper's 5.8%% is its average: 713.28 -> 671.73 s)\n",
              summary.average_improvement_percent,
              summary.median_improvement_percent);
  return 0;
}
