/// Portfolio racing bench (DESIGN.md §15): races the default engine
/// portfolio over a generated corpus under equal per-engine tick budgets
/// and compares three race-planning strategies:
///
///   single-best  run only config 0 (the pre-portfolio baseline),
///   fixed        race every registry config,
///   classifier   one NeuroSelect inference ranks the configs with trained
///                priority heads; race only the top slice.
///
/// Quality is measured in the solver's deterministic time unit (ticks;
/// reported as proxy ms = ticks / 1000, matching the labelling benches'
/// propagation proxy). The bench hard-gates the acceptance ordering —
/// classifier-guided >= fixed >= single-best on solved count, and
/// classifier strictly cheaper than fixed on total work — plus bitwise
/// winner determinism of the racer across 1/2/8 global threads. Rows land
/// in BENCH_portfolio.json under the "portfolio/" name prefix; this bench
/// is that file's only writer.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/labeling.hpp"
#include "core/neuroselect.hpp"
#include "gen/dataset.hpp"
#include "portfolio/engine_config.hpp"
#include "portfolio/racer.hpp"
#include "portfolio/select.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSliceTicks = 20'000;
constexpr std::uint64_t kBudgetTicks = 150'000;  ///< per-engine race cap

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Aggregate race quality for one strategy over the whole corpus.
struct ModeTally {
  std::size_t solved = 0;
  std::uint64_t winner_ticks = 0;  ///< summed over solved instances
  std::uint64_t work_ticks = 0;    ///< summed over every raced engine
  std::size_t engines_raced = 0;   ///< summed subset sizes
  double wall_ms = 0.0;
};

/// Races `mode` over the corpus and tallies quality. The racer is reused
/// across instances (warm-race path: load() resets every engine).
ModeTally run_mode(ns::portfolio::SelectMode mode,
                   ns::nn::SatClassifier* model,
                   const ns::portfolio::EngineConfigRegistry& registry,
                   const std::vector<ns::core::PriorityHead>& heads,
                   const std::vector<ns::gen::NamedInstance>& corpus) {
  ns::portfolio::RacerOptions ropts;
  ropts.slice_ticks = kSliceTicks;
  ropts.max_ticks = kBudgetTicks;
  ns::portfolio::PortfolioRacer racer(registry, ropts);
  ModeTally tally;
  const auto t0 = Clock::now();
  for (const ns::gen::NamedInstance& inst : corpus) {
    const ns::portfolio::SelectionPlan plan = ns::portfolio::plan_race(
        mode, model, registry, inst.formula, /*subset_size=*/0, heads);
    racer.load(inst.formula);
    const ns::portfolio::RaceResult race = racer.race_subset(plan.subset_ids);
    tally.engines_raced += plan.subset_ids.size();
    if (race.winner >= 0) {
      ++tally.solved;
      tally.winner_ticks += race.winner_ticks;
    }
    for (const ns::portfolio::EngineRaceResult& e : race.engines) {
      tally.work_ticks += e.ticks;
    }
  }
  tally.wall_ms = ms_since(t0);
  return tally;
}

}  // namespace

int main() {
  ns::bench::BenchJson json("portfolio");
  const ns::portfolio::EngineConfigRegistry registry =
      ns::portfolio::EngineConfigRegistry::default_portfolio();

  // --- train the selector (model + priority heads) ------------------------
  // Same recipe as the other learning benches, at reduced scale: the
  // classifier learns P(frequency-deletion wins) from dual-policy labels,
  // then the per-config priority heads are fit to portfolio labels replayed
  // under this bench's exact slice/budget schedule.
  ns::gen::Dataset ds = ns::gen::build_dataset(/*per_year=*/4, /*seed=*/2);
  ns::core::LabelingOptions lopts;
  lopts.max_propagations = 500'000;
  std::printf("labelling %zu train instances (dual-policy solves)...\n",
              ds.train.size());
  const std::vector<ns::core::LabeledInstance> train_labeled =
      ns::core::label_dataset(std::move(ds.train), lopts);
  std::unique_ptr<ns::nn::SatClassifier> model = ns::bench::train_with_restarts(
      ns::nn::ClassifierKind::kNeuroSelect, train_labeled,
      ns::bench::bench_train_options());

  const std::vector<ns::gen::NamedInstance> heads_train =
      ns::gen::generate_split(2021, 8, 2);
  ns::core::PriorityTrainOptions hopts;
  hopts.slice_ticks = kSliceTicks;
  hopts.max_ticks = kBudgetTicks;
  std::printf("fitting priority heads on %zu instances "
              "(portfolio labelling, %zu configs)...\n\n",
              heads_train.size(), registry.size());
  const std::vector<ns::core::PriorityHead> heads =
      ns::core::train_priority_heads(model.get(), heads_train,
                                     registry.options_list(), hopts);

  const std::vector<ns::gen::NamedInstance> corpus =
      ns::gen::generate_split(2022, 20, 7);

  // --- strategy comparison ------------------------------------------------
  struct ModeRow {
    ns::portfolio::SelectMode mode;
    ModeTally tally;
  };
  std::vector<ModeRow> rows;
  for (ns::portfolio::SelectMode mode :
       {ns::portfolio::SelectMode::kSingleBest,
        ns::portfolio::SelectMode::kFixed,
        ns::portfolio::SelectMode::kClassifier}) {
    rows.push_back({mode, run_mode(mode, model.get(), registry, heads,
                                   corpus)});
  }

  std::printf("%-12s %8s %8s %16s %14s %10s\n", "mode", "solved", "engines",
              "winner_proxy_ms", "work_proxy_ms", "wall_ms");
  for (const ModeRow& r : rows) {
    const char* name = ns::portfolio::select_mode_name(r.mode);
    const ModeTally& t = r.tally;
    std::printf("%-12s %5zu/%zu %8zu %16.1f %14.1f %10.1f\n", name, t.solved,
                corpus.size(), t.engines_raced, t.winner_ticks / 1000.0,
                t.work_ticks / 1000.0, t.wall_ms);
    const std::size_t per_race = t.engines_raced / corpus.size();
    const std::string tag = std::string("(") + name + ")";
    json.record("portfolio/solved" + tag, per_race,
                static_cast<double>(t.solved));
    json.record("portfolio/winner_proxy_ms" + tag, per_race,
                t.winner_ticks / 1000.0);
    json.record("portfolio/work_proxy_ms" + tag, per_race,
                t.work_ticks / 1000.0);
  }

  // --- determinism: full-portfolio race across global thread counts -------
  int mismatches = 0;
  std::vector<std::pair<int, std::uint64_t>> golden;
  double base_ms = 0.0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ns::runtime::set_global_thread_count(threads);
    ns::portfolio::RacerOptions ropts;
    ropts.slice_ticks = kSliceTicks;
    ropts.max_ticks = kBudgetTicks;
    ns::portfolio::PortfolioRacer racer(registry, ropts);
    std::vector<std::pair<int, std::uint64_t>> winners;
    const auto t0 = Clock::now();
    for (const ns::gen::NamedInstance& inst : corpus) {
      racer.load(inst.formula);
      const ns::portfolio::RaceResult race = racer.race();
      winners.emplace_back(race.winner, race.winner_ticks);
    }
    const double ms = ms_since(t0);
    if (threads == 1) {
      golden = winners;
      base_ms = ms;
      json.record("portfolio/race(fixed)", threads, ms);
    } else {
      json.record("portfolio/race(fixed)", threads, ms, base_ms / ms);
      if (winners != golden) {
        ++mismatches;
        std::printf("FAIL: race winners at %zu threads differ from 1 "
                    "thread\n", threads);
      }
    }
    std::printf("race(fixed) %zu threads: %.1f ms\n", threads, ms);
  }
  ns::runtime::set_global_thread_count(0);  // restore the default

  if (!json.write()) {
    std::printf("warning: could not write BENCH_portfolio.json\n");
  }

  // --- acceptance gates ---------------------------------------------------
  const ModeTally& single = rows[0].tally;
  const ModeTally& fixed = rows[1].tally;
  const ModeTally& classifier = rows[2].tally;
  int violations = mismatches;
  // Racing a subset under the same per-engine budget can never solve more
  // than racing everything, so "classifier >= fixed on solved count" means
  // equality: the learned ranking must not drop any instance's only
  // within-budget winner.
  if (classifier.solved < fixed.solved) {
    ++violations;
    std::printf("FAIL: classifier-guided subset solved %zu < fixed %zu\n",
                classifier.solved, fixed.solved);
  }
  if (fixed.solved < single.solved) {
    ++violations;
    std::printf("FAIL: fixed portfolio solved %zu < single-best %zu\n",
                fixed.solved, single.solved);
  }
  if (classifier.work_ticks >= fixed.work_ticks) {
    ++violations;
    std::printf("FAIL: classifier work %llu ticks not below fixed %llu\n",
                static_cast<unsigned long long>(classifier.work_ticks),
                static_cast<unsigned long long>(fixed.work_ticks));
  }
  // Tick proxy (time to solution): racing every config can only find
  // earlier winners than running config 0 alone — the winner is the
  // (ticks, id)-minimum over a superset — and the learned subset must keep
  // enough of that advantage to also beat the single engine.
  if (fixed.solved == single.solved &&
      fixed.winner_ticks > single.winner_ticks) {
    ++violations;
    std::printf("FAIL: fixed winner ticks %llu above single-best %llu\n",
                static_cast<unsigned long long>(fixed.winner_ticks),
                static_cast<unsigned long long>(single.winner_ticks));
  }
  if (classifier.solved == single.solved &&
      classifier.winner_ticks > single.winner_ticks) {
    ++violations;
    std::printf("FAIL: classifier winner ticks %llu above single-best "
                "%llu\n",
                static_cast<unsigned long long>(classifier.winner_ticks),
                static_cast<unsigned long long>(single.winner_ticks));
  }
  if (violations > 0) {
    std::printf("\nFAIL: %d portfolio gate violations\n", violations);
    return 1;
  }
  std::printf("\nOK: classifier-guided >= fixed >= single-best on solved "
              "count and the winner-tick proxy; classifier beats fixed on "
              "total work; winners thread-count invariant\n");
  return 0;
}
