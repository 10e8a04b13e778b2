#pragma once
/// Shared setup for the learning benches: builds the labelled dataset and
/// trains classifiers with one consistent configuration, so Table 2 and
/// Fig. 7/Table 3 are computed from the same experimental state.
///
/// Scale note: the paper trains 400 epochs at lr 1e-4 on GPU over 736
/// instances; these benches use fewer instances and epochs with a larger
/// learning rate so each bench finishes in minutes on a laptop CPU. The
/// pipeline (labelling rule, loss, optimizer, batch size 1) is unchanged.

#include <cstdio>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>  // getpid, for the temp-file suffix
#endif

#include "core/labeling.hpp"
#include "core/trainer.hpp"
#include "gen/dataset.hpp"
#include "runtime/annotations.hpp"

namespace ns::bench {

/// Accumulates (name, threads, wall ms) measurements and writes them as a
/// JSON array to `BENCH_<bench>.json`, so successive PRs can track the perf
/// trajectory from checked-in bench output.
///
/// Thread- and crash-safe: `record` may be called from pool workers (the
/// entry list is `NS_GUARDED_BY` the internal mutex), and every write goes
/// through a fresh temp file plus an atomic rename, so a reader — or an
/// interrupted bench run — can never observe a torn BENCH file. Each BENCH
/// file has exactly one writing bench.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : bench_(std::move(bench_name)) {}

  void record(const std::string& name, std::size_t threads, double wall_ms) {
    runtime::MutexLock lock(mutex_);
    entries_.push_back(Entry{name, threads, wall_ms, 0.0});
  }

  /// Variant for thread sweeps: also records the speedup over the same
  /// workload's 1-thread run (emitted as `speedup_vs_1t`).
  void record(const std::string& name, std::size_t threads, double wall_ms,
              double speedup_vs_1t) {
    runtime::MutexLock lock(mutex_);
    entries_.push_back(Entry{name, threads, wall_ms, speedup_vs_1t});
  }

  /// Writes `dir`/BENCH_<bench>.json; returns false if the file cannot be
  /// written. Safe to call repeatedly (rewrites the whole file).
  bool write(const std::string& dir = ".") const {
    runtime::MutexLock lock(mutex_);
    return write_file(dir);
  }

 private:
  struct Entry {
    std::string name;
    std::size_t threads = 0;
    double wall_ms = 0.0;
    double speedup_vs_1t = 0.0;  ///< 0 when the entry is not a thread sweep
  };

  std::string path_in(const std::string& dir) const {
    return dir + "/BENCH_" + bench_ + ".json";
  }

  /// Renders all rows into `<path>.tmp.<pid>` and renames it over the
  /// target: rename(2) is atomic within a filesystem, so the BENCH file is
  /// always either the old or the new content, never a torn mix — even if
  /// this run is interrupted mid-write or races another process.
  bool write_file(const std::string& dir) const NS_REQUIRES(mutex_) {
    const std::string path = path_in(dir);
    const std::string tmp =
        path + ".tmp." +
        std::to_string(
#ifdef _WIN32
            0
#else
            static_cast<long>(getpid())
#endif
        );
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<std::string> rows;
    rows.reserve(entries_.size());
    for (const Entry& e : entries_) {
      char buf[512];
      int n = std::snprintf(buf, sizeof buf,
                            "  {\"bench\": \"%s\", \"name\": \"%s\", "
                            "\"threads\": %zu, \"wall_ms\": %.3f",
                            bench_.c_str(), e.name.c_str(), e.threads,
                            e.wall_ms);
      std::string row(buf, static_cast<std::size_t>(n));
      if (e.speedup_vs_1t > 0.0) {
        n = std::snprintf(buf, sizeof buf, ", \"speedup_vs_1t\": %.3f",
                          e.speedup_vs_1t);
        row.append(buf, static_cast<std::size_t>(n));
      }
      row += '}';
      rows.push_back(std::move(row));
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows[i].c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }

  std::string bench_;
  mutable runtime::Mutex mutex_;
  std::vector<Entry> entries_ NS_GUARDED_BY(mutex_);
};

struct LabeledDataset {
  std::vector<core::LabeledInstance> train;
  std::vector<core::LabeledInstance> test;
};

inline LabeledDataset build_labeled_dataset(std::size_t train_per_year,
                                            std::size_t test_count,
                                            std::uint64_t seed) {
  gen::Dataset ds = gen::build_dataset(train_per_year, seed);
  std::vector<gen::NamedInstance> test = gen::generate_split(2022, test_count, seed);
  core::LabelingOptions lopts;
  lopts.max_propagations = 500'000;
  LabeledDataset out;
  std::printf("labelling %zu train + %zu test instances "
              "(dual-policy solves)...\n",
              ds.train.size(), test.size());
  out.train = core::label_dataset(std::move(ds.train), lopts);
  out.test = core::label_dataset(std::move(test), lopts);
  std::printf("label balance: train %.1f%% positive, test %.1f%% positive\n\n",
              100.0 * core::positive_fraction(out.train),
              100.0 * core::positive_fraction(out.test));
  return out;
}

inline core::TrainOptions bench_train_options() {
  core::TrainOptions topts;
  topts.epochs = 40;
  topts.learning_rate = 5e-4f;
  topts.seed = 6;
  return topts;
}

/// Trains a classifier with collapse restarts: when the run ends in a
/// degenerate optimum (train accuracy below `threshold` — i.e. at or below
/// the majority-class rate), reinitialize with a fresh seed and retrain, up
/// to `max_attempts` times, keeping the best run by train accuracy. This is
/// the plain "restart on bad initialization" practice; model selection uses
/// only training data, never the test split.
inline std::unique_ptr<nn::SatClassifier> train_with_restarts(
    nn::ClassifierKind kind, const std::vector<core::LabeledInstance>& train,
    core::TrainOptions topts, double threshold = 0.70,
    int max_attempts = 3) {
  std::unique_ptr<nn::SatClassifier> best;
  double best_acc = -1.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const std::uint64_t seed = topts.seed + 3ull * attempt;
    auto model = nn::make_classifier(kind, seed);
    core::TrainOptions t = topts;
    t.seed = seed;
    core::train_classifier(*model, train, t);
    const double acc = core::evaluate_classifier(*model, train).accuracy;
    if (acc > best_acc) {
      best_acc = acc;
      best = std::move(model);
    }
    if (best_acc >= threshold) break;
  }
  return best;
}

}  // namespace ns::bench
