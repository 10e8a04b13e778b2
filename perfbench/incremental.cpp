/// \file incremental.cpp
/// The incremental workload: one warm Solver (deferred GC, engine-owned
/// result buffers) serving a stream of writes and queries.
///
/// A stream is a random 3-SAT base of kBaseVars variables whose deletion
/// policy the classifier picks once (DIMACS → parse → graph → inference →
/// selection → load, no simplification: later clauses may mention the
/// variables it would fix). Step t of the stream writes one clause
/// (¬a_t ∨ l1 ∨ l2 ∨ l3) guarded by a fresh activation variable a_t and
/// retires a_{t-kWindow} with the unit (¬a_{t-kWindow}), then queries under
/// a_{t-kWindow+1..t} plus two random base literals.
///
/// Only the last kWindow clauses are ever active, so the stream stays
/// steady instead of drifting to root UNSAT or — through saved phases that
/// keep old activation variables true — towards the threshold. A base easy
/// enough to stay steady gives almost no UNSAT queries of its own, so every
/// kRefuteEvery-th step instead writes (¬a_t ∨ l1 ∨ l2) and assumes ¬l1, ¬l2
/// with it: that query is UNSAT with a failed core. After kStreamSteps steps
/// a new stream starts (the activation variables are preallocated).

#include <algorithm>
#include <optional>
#include <random>

#include "cnf/dimacs.hpp"
#include "frontend.hpp"
#include "gen/generators.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBaseVars = 150;
constexpr std::size_t kBaseClauses = 510;  // ratio 3.4
constexpr std::size_t kStreamSteps = 100;
constexpr std::size_t kWindow = 24;
constexpr std::size_t kRefuteEvery = 8;
constexpr std::uint64_t kQueryPropagationBudget = 2'000'000;
constexpr std::uint64_t kWarmupSteps = 50;

ns::Lit random_base_lit(std::mt19937_64& rng) {
  const auto v = static_cast<ns::Var>(
      std::uniform_int_distribution<std::size_t>(0, kBaseVars - 1)(rng));
  return ns::Lit(v, (rng() & 1u) != 0);
}

ns::Var activation_var(std::size_t step) {
  return static_cast<ns::Var>(kBaseVars + step);
}

/// The base formula widened to the stream's preallocated activation vars.
ns::CnfFormula widened(const ns::CnfFormula& base) {
  ns::CnfFormula f = base;
  f.ensure_var(activation_var(kStreamSteps - 1));
  return f;
}

ns::solver::SolverOptions engine_options(ns::policy::PolicyKind policy) {
  ns::solver::SolverOptions o;
  o.deletion_policy = policy;
  o.gc_frac = 0.3;
  o.materialize_results = false;
  return o;
}

class IncrementalWorkload final : public Workload {
 public:
  IncrementalWorkload(std::uint64_t seed, std::string model_path)
      : seed_(seed), model_path_(std::move(model_path)) {}

  std::size_t threads() const override { return 1; }

  void setup() override {
    model_ = load_model(model_path_);
    // Warm up on the first steps of a kWarmupSeed stream, then drop the
    // engines: the timed stream starts from a fresh load like every stream.
    stream_ = kNoStream;
    for (std::uint64_t i = 0; i < kWarmupSteps; ++i) {
      load(kWarmupSeed, i);
      execute(nullptr);
    }
    for (Lane& lane : lanes_) lane = Lane{};
    stream_ = kNoStream;
    reference_.reset();
    reference_stream_ = kNoStream;
    reference_added_ = 0;
  }

  void prepare(std::uint64_t index) override { load(seed_, index); }

  Exec execute(Probe* probe) override {
    if (probe != nullptr) probe->set_item(index_);
    Lane& lane = lanes_[probe != nullptr ? 1 : 0];
    if (lane.stream != stream_) start_stream(lane, probe);

    Exec e;
    ns::solver::SolveOutcome out;
    std::size_t allocs = 0;
    std::int64_t q0 = 0;
    std::int64_t q1 = 0;
    const std::int64_t t0 = now_ns();
    {
      Scope item(probe, Layer::kItem);
      {
        Scope s(probe, Layer::kAddClause);
        lane.solver->add_clause(added_.back());
      }
      if (!retire_.empty()) {
        Scope s(probe, Layer::kAddClause);
        lane.solver->add_clause(retire_);
      }
      const std::size_t before = alloc_count();
      if (probe != nullptr) q0 = now_ns();
      {
        Scope s(probe, Layer::kQuery);
        out = lane.solver->solve(assumptions_);
      }
      if (probe != nullptr) q1 = now_ns();
      allocs = alloc_count() - before;
    }
    e.latency_ms = static_cast<double>(now_ns() - t0) * 1e-6;

    result_ = out.result;
    if (result_ == ns::solver::SatResult::kSat) {
      model_out_ = lane.solver->last_model();
    } else if (result_ == ns::solver::SatResult::kUnsat) {
      core_ = lane.solver->failed_assumptions();
    }
    e.result = result_;
    e.fp = {out.stats.ticks, out.stats.conflicts, 0, lane.chosen};
    if (probe != nullptr) {
      add_search_counters(*probe, out.stats,
                          static_cast<double>(q1 - q0) * 1e-9);
      probe->add("solver.query_allocs", static_cast<double>(allocs));
      probe->add("solver.garbage_collections",
                 1000.0 * static_cast<double>(out.stats.garbage_collections));
      if (result_ == ns::solver::SatResult::kUnsat) {
        probe->add("solver.core_size", static_cast<double>(core_.size()));
      }
    }
    return e;
  }

  std::string verify() override {
    using ns::solver::SatResult;
    if (result_ == SatResult::kSat) {
      if (std::string why = check_model(base_, model_out_); !why.empty()) {
        return why;
      }
      for (std::size_t t = 0; t < added_.size(); ++t) {
        if (!ns::CnfFormula::clause_satisfied_by(added_[t], model_out_)) {
          return "model falsifies an added clause";
        }
        if (t + kWindow <= step_ && model_out_[activation_var(t)]) {
          return "model sets a retired activation variable";
        }
      }
      for (const ns::Lit a : assumptions_) {
        if (model_out_[a.var()] == a.negated()) {
          return "model violates an assumption";
        }
      }
      return {};
    }
    if (result_ != SatResult::kUnsat) return {};
    for (const ns::Lit l : core_) {
      if (std::find(assumptions_.begin(), assumptions_.end(), l) ==
          assumptions_.end()) {
        return "failed core is not a subset of the assumptions";
      }
    }
    // Independent confirmation: a differently configured warm engine that
    // mirrors the stream must find the core itself unsatisfiable.
    if (reference_stream_ != stream_) {
      reference_.emplace(reference_options());
      reference_->load(widened(base_));
      reference_stream_ = stream_;
      reference_added_ = 0;
    }
    for (; reference_added_ < added_.size(); ++reference_added_) {
      reference_->add_clause(added_[reference_added_]);
      if (reference_added_ >= kWindow) {
        const ns::Lit retire(activation_var(reference_added_ - kWindow), true);
        reference_->add_clause(std::span<const ns::Lit>(&retire, 1));
      }
    }
    if (reference_->solve(core_).result != SatResult::kUnsat) {
      return "failed core not confirmed UNSAT by the reference engine";
    }
    return {};
  }

  bool corrupt_answer() override {
    return result_ == ns::solver::SatResult::kSat &&
           falsify_first_clause(base_, model_out_);
  }

 private:
  static constexpr std::uint64_t kNoStream = ~0ull;

  void load(std::uint64_t seed, std::uint64_t index) {
    index_ = index;
    const std::uint64_t stream = index / kStreamSteps;
    step_ = static_cast<std::size_t>(index % kStreamSteps);
    if (stream != stream_) {
      stream_ = stream;
      base_ = ns::gen::random_ksat(kBaseVars, kBaseClauses, 3,
                                   mix_seed(seed, ~stream));
      base_text_ = ns::to_dimacs_string(base_);
      added_.clear();
    }
    // Steps are generated in order within a stream, so added_ holds the
    // clauses of steps 0..step_-1 here.
    std::mt19937_64 rng(mix_seed(seed, index));
    const bool refute = step_ % kRefuteEvery == kRefuteEvery - 1;
    ns::Clause clause{ns::Lit(activation_var(step_), true)};
    while (clause.size() < (refute ? 3u : 4u)) {
      const ns::Lit l = random_base_lit(rng);
      const bool fresh =
          std::none_of(clause.begin(), clause.end(),
                       [&](ns::Lit x) { return x.var() == l.var(); });
      if (fresh) clause.push_back(l);
    }
    added_.push_back(std::move(clause));
    retire_.clear();
    if (step_ >= kWindow) {
      retire_.push_back(ns::Lit(activation_var(step_ - kWindow), true));
    }
    assumptions_.clear();
    for (std::size_t s = step_ + 1 > kWindow ? step_ + 1 - kWindow : 0;
         s <= step_; ++s) {
      assumptions_.push_back(ns::Lit(activation_var(s), false));
    }
    if (refute) {
      assumptions_.push_back(~added_.back()[1]);
      assumptions_.push_back(~added_.back()[2]);
    }
    while (assumptions_.size() < std::min(step_ + 1, kWindow) + 2) {
      const ns::Lit l = random_base_lit(rng);
      const bool fresh =
          std::none_of(assumptions_.begin(), assumptions_.end(),
                       [&](ns::Lit x) { return x.var() == l.var(); });
      if (fresh) assumptions_.push_back(l);
    }
  }

  /// One measured engine; a traced run keeps a twin per mode so the traced
  /// and untraced executions of an item see identical engine state.
  struct Lane {
    std::unique_ptr<ns::solver::Solver> solver;
    std::uint64_t stream = kNoStream;
    int chosen = -1;
  };

  void start_stream(Lane& lane, Probe* probe) {
    Scope s(probe, Layer::kStream);
    const FrontEnd fe = run_front_end(base_text_, *model_, false, probe);
    lane.solver =
        std::make_unique<ns::solver::Solver>(engine_options(fe.policy));
    lane.solver->set_budget({.conflicts = 0,
                             .propagations = kQueryPropagationBudget,
                             .ticks = 0});
    {
      Scope l(probe, Layer::kLoad);
      lane.solver->load(widened(fe.parsed));
    }
    lane.stream = stream_;
    lane.chosen = fe.chosen;
  }

  std::uint64_t seed_;
  std::string model_path_;
  std::unique_ptr<ns::nn::NeuroSelectModel> model_;
  Lane lanes_[2];

  std::uint64_t index_ = 0;
  std::uint64_t stream_ = kNoStream;
  std::size_t step_ = 0;
  ns::CnfFormula base_;
  std::string base_text_;
  std::vector<ns::Clause> added_;
  std::vector<ns::Lit> retire_;  ///< this step's unit, once the window is full
  std::vector<ns::Lit> assumptions_;

  ns::solver::SatResult result_ = ns::solver::SatResult::kUnknown;
  ns::Model model_out_;
  std::vector<ns::Lit> core_;

  std::optional<ns::solver::Solver> reference_;
  std::uint64_t reference_stream_ = kNoStream;
  std::size_t reference_added_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_incremental(std::uint64_t seed,
                                           const std::string& model_path) {
  return std::make_unique<IncrementalWorkload>(seed, model_path);
}

}  // namespace perfbench
