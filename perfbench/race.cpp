/// \file race.cpp
/// The race workload: PortfolioRacer over the six stock engine configs on a
/// smaller cut of hard_solve's corpus (random 3-SAT at the threshold over
/// 130–150 vars, scrambled PHP(7, 6)), with a per-engine race tick cap.
/// The only workload that exercises the portfolio layer and the runtime
/// pool under it.
///
/// The corpus is not the mixed test split: its families race in 1 ms
/// (parity) to 350 ms (capped PHP(9, 8)), and percentiles over such a
/// multi-modal mix move by more than the benchmark's bounds between seeds.

#include <stdexcept>

#include "cnf/dimacs.hpp"
#include "frontend.hpp"
#include "portfolio/racer.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSliceTicks = 20'000;
constexpr std::uint64_t kMaxTicks = 3'000'000;
constexpr std::uint64_t kWarmupRaces = 6;

class RaceWorkload final : public Workload {
 public:
  explicit RaceWorkload(std::uint64_t seed) : seed_(seed) {}

  // One pool thread, not nproc: on a 4-vCPU VM with steal time every round
  // barrier of a 4-thread race waits for the slowest vCPU. Run interleaved
  // with one-thread races, 4-thread medians jumped between 19 and 28 ms
  // from run to run while one-thread medians stayed within 46-50 ms.
  std::size_t threads() const override { return 1; }

  void setup() override {
    ns::portfolio::RacerOptions options;
    options.slice_ticks = kSliceTicks;
    options.max_ticks = kMaxTicks;
    racer_ = std::make_unique<ns::portfolio::PortfolioRacer>(
        ns::portfolio::EngineConfigRegistry::default_portfolio(6), options);
    // The first races on a fresh racer run ~40% slower.
    for (std::uint64_t i = 0; i < kWarmupRaces; ++i) {
      load(kWarmupSeed, i);
      execute(nullptr);
    }
  }

  void prepare(std::uint64_t index) override { load(seed_, index); }

  Exec execute(Probe* probe) override {
    if (probe != nullptr) probe->set_item(index_);
    Exec e;
    ns::portfolio::RaceResult race;
    double cpu = 0.0;
    double race_seconds = 0.0;
    const std::int64_t t0 = now_ns();
    {
      Scope item(probe, Layer::kItem);
      ns::CnfFormula formula;
      {
        Scope s(probe, Layer::kParse);
        ns::ParseResult parsed = ns::parse_dimacs_string(text_);
        if (!parsed.ok) throw std::runtime_error("DIMACS parse error");
        formula = std::move(parsed.formula);
      }
      {
        Scope s(probe, Layer::kPortfolioLoad);
        racer_->load(formula);
      }
      const double cpu0 = probe != nullptr ? process_cpu_seconds() : 0.0;
      const std::int64_t r0 = probe != nullptr ? now_ns() : 0;
      {
        Scope s(probe, Layer::kRace);
        race = racer_->race();
      }
      if (probe != nullptr) {
        race_seconds = static_cast<double>(now_ns() - r0) * 1e-9;
        cpu = process_cpu_seconds() - cpu0;
      }
    }
    e.latency_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    e.result = race.result;
    const auto winner = static_cast<std::size_t>(race.winner);
    const std::uint64_t winner_conflicts =
        race.winner >= 0 ? race.engines[winner].stats.conflicts : 0;
    e.fp = {race.winner_ticks, winner_conflicts, race.winner_ticks, -1};
    if (probe != nullptr) record(*probe, race, race_seconds, cpu);
    result_ = race.result;
    model_out_ = std::move(race.model);
    return e;
  }

  std::string verify() override {
    return check_answer(instance_.formula, instance_.status, result_,
                        model_out_);
  }

  bool corrupt_answer() override {
    return result_ == ns::solver::SatResult::kSat &&
           falsify_first_clause(instance_.formula, model_out_);
  }

 private:
  void load(std::uint64_t seed, std::uint64_t index) {
    index_ = index;
    instance_ = threshold_or_pigeonhole(seed, index, 130, 150, 6);
    text_ = ns::to_dimacs_string(instance_.formula);
  }

  void record(Probe& probe, const ns::portfolio::RaceResult& race,
              double race_seconds, double cpu) const {
    ns::solver::Statistics work;
    double cancelled = 0.0;
    std::uint64_t work_ticks = 0;
    for (const ns::portfolio::EngineRaceResult& eng : race.engines) {
      if (!eng.participated) continue;
      work_ticks += eng.ticks;
      cancelled += eng.cancelled ? 1.0 : 0.0;
      const ns::solver::Statistics& s = eng.stats;
      work.ticks += s.ticks;
      work.propagations += s.propagations;
      work.conflicts += s.conflicts;
      work.decisions += s.decisions;
      work.ticks_binary += s.ticks_binary;
      work.ticks_long += s.ticks_long;
      work.analyze_ticks += s.analyze_ticks;
      work.minimize_ticks += s.minimize_ticks;
      work.decide_ticks += s.decide_ticks;
      work.reduce_ticks += s.reduce_ticks;
      work.restarts += s.restarts;
      work.reductions += s.reductions;
      work.learned_clauses += s.learned_clauses;
      work.deleted_clauses += s.deleted_clauses;
    }
    add_search_counters(probe, work, race_seconds);
    probe.add("portfolio.rounds", static_cast<double>(race.rounds));
    probe.add("portfolio.winner_ticks", static_cast<double>(race.winner_ticks));
    probe.add("portfolio.work_ticks", static_cast<double>(work_ticks));
    probe.add("portfolio.cancelled", cancelled);
    probe.add("_winner_ticks", static_cast<double>(race.winner_ticks));
    probe.add("_work_ticks", static_cast<double>(work_ticks));
    probe.add("_cpu_seconds", cpu);
    probe.add("_pool_seconds", race_seconds * static_cast<double>(threads()));
  }

  std::uint64_t seed_;
  std::unique_ptr<ns::portfolio::PortfolioRacer> racer_;

  std::uint64_t index_ = 0;
  Instance instance_;
  std::string text_;
  ns::solver::SatResult result_ = ns::solver::SatResult::kUnknown;
  ns::Model model_out_;
};

}  // namespace

std::unique_ptr<Workload> make_race(std::uint64_t seed) {
  return std::make_unique<RaceWorkload>(seed);
}

}  // namespace perfbench
