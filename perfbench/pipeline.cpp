/// \file pipeline.cpp
/// The shared front end and the two single-shot pipeline workloads:
///
///   triage      small, fast-deciding instances; the front end (parse,
///               simplify, graph, inference) dominates each item.
///   hard_solve  random3sat_xl and scrambled pigeonhole instances under a
///               propagation budget; CDCL search dominates each item.
///
/// Every item is a fresh instance generated from (seed, index), rendered to
/// DIMACS text outside the timed region, then driven text → verified answer.

#include <random>
#include <stdexcept>

#include "cnf/dimacs.hpp"
#include "core/neuroselect.hpp"
#include "frontend.hpp"
#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "nn/serialize.hpp"

namespace perfbench {

std::unique_ptr<ns::nn::NeuroSelectModel> load_model(const std::string& path) {
  auto model = std::make_unique<ns::nn::NeuroSelectModel>();
  if (!ns::nn::load_parameters(*model, path)) {
    throw std::runtime_error("cannot load classifier weights from " + path);
  }
  return model;
}

FrontEnd run_front_end(const std::string& dimacs, ns::nn::SatClassifier& model,
                       bool simplify, Probe* probe) {
  FrontEnd fe;
  {
    Scope s(probe, Layer::kParse);
    ns::ParseResult parsed = ns::parse_dimacs_string(dimacs);
    if (!parsed.ok) {
      throw std::runtime_error("DIMACS parse error at line " +
                               std::to_string(parsed.line) + ": " +
                               parsed.error);
    }
    fe.parsed = std::move(parsed.formula);
  }
  const ns::CnfFormula* input = &fe.parsed;
  if (simplify) {
    {
      Scope s(probe, Layer::kSimplify);
      fe.simplified = ns::solver::simplify(fe.parsed);
    }
    if (probe != nullptr) {
      probe->add("solver.simplify_removed_clauses",
                 static_cast<double>(fe.simplified.removed_clauses));
    }
    input = &fe.simplified.formula;
    if (!fe.simplified.consistent) return fe;
  }
  if (input->num_clauses() == 0) return fe;

  ns::graph::VcGraph vc;
  ns::graph::LcGraph lc;
  {
    Scope s(probe, Layer::kVcBuild);
    vc = ns::graph::build_vc_graph(*input);
  }
  {
    Scope s(probe, Layer::kLcBuild);
    lc = ns::graph::build_lc_graph(*input);
  }
  ns::nn::GraphBatch tensors;
  {
    Scope s(probe, Layer::kTensors);
    tensors.vc = ns::nn::VcGraphTensors::build(vc);
    tensors.lc = ns::nn::LcGraphTensors::build(lc);
  }
  std::unique_ptr<ns::nn::InferenceSession> session;
  {
    Scope s(probe, Layer::kRecord);
    session = std::make_unique<ns::nn::InferenceSession>(model, tensors);
  }
  float p_frequency = 0.5f;
  const std::size_t allocs_before = alloc_count();
  {
    Scope s(probe, Layer::kExecute);
    p_frequency = session->predict_probability();
  }
  const std::size_t allocs_after = alloc_count();
  {
    Scope s(probe, Layer::kSelect);
    fe.chosen =
        static_cast<int>(ns::core::binary_selection(p_frequency).primary);
  }
  if (fe.chosen == 1) fe.policy = ns::policy::PolicyKind::kFrequency;
  if (probe != nullptr) {
    probe->add("graph.edges", static_cast<double>(vc.num_edges()));
    probe->add("nn.execute_allocs",
               static_cast<double>(allocs_after - allocs_before));
    probe->add("core.frequency_chosen_ratio", fe.chosen == 1 ? 1.0 : 0.0);
  }
  return fe;
}

std::string check_model(const ns::CnfFormula& f, const ns::Model& model) {
  if (model.size() < f.num_vars()) return "model is shorter than the formula";
  for (std::size_t c = 0; c < f.num_clauses(); ++c) {
    if (!ns::CnfFormula::clause_satisfied_by(f.clause(c), model)) {
      return "model falsifies clause " + std::to_string(c);
    }
  }
  return {};
}

bool falsify_first_clause(const ns::CnfFormula& f, ns::Model& model) {
  if (f.num_clauses() == 0 || f.clause(0).empty()) return false;
  for (const ns::Lit l : f.clause(0)) {
    if (l.var() < model.size()) model[l.var()] = l.negated();
  }
  return true;
}

ns::solver::SolverOptions reference_options() {
  ns::solver::SolverOptions o;
  o.restart_mode = ns::solver::RestartMode::kLuby;
  o.deletion_policy = ns::policy::PolicyKind::kFrequency;
  o.var_decay = 0.9;
  return o;
}

ns::solver::SatResult reference_status(const ns::CnfFormula& f) {
  return ns::solver::solve_formula(f, reference_options()).result;
}

std::string check_answer(const ns::CnfFormula& original, Status known,
                         ns::solver::SatResult result, const ns::Model& model) {
  using ns::solver::SatResult;
  if (result == SatResult::kSat) {
    if (known == Status::kUnsat) return "SAT answer on a known-UNSAT instance";
    return check_model(original, model);
  }
  if (result == SatResult::kUnsat) {
    if (known == Status::kSat) return "UNSAT answer on a known-SAT instance";
    if (known == Status::kUnknown &&
        reference_status(original) != SatResult::kUnsat) {
      return "UNSAT answer not confirmed by the reference engine";
    }
  }
  return {};
}

void add_search_counters(Probe& probe, const ns::solver::Statistics& s,
                         double solve_seconds) {
  const auto add = [&](const char* name, std::uint64_t v) {
    probe.add(name, static_cast<double>(v));
  };
  add("solver.ticks", s.ticks);
  add("solver.propagations", s.propagations);
  add("solver.conflicts", s.conflicts);
  add("solver.decisions", s.decisions);
  add("solver.ticks_binary", s.ticks_binary);
  add("solver.ticks_long", s.ticks_long);
  add("solver.analyze_ticks", s.analyze_ticks);
  add("solver.minimize_ticks", s.minimize_ticks);
  add("solver.decide_ticks", s.decide_ticks);
  add("solver.reduce_ticks", s.reduce_ticks);
  add("solver.restarts", s.restarts);
  add("solver.reductions", s.reductions);
  add("_learned_clauses", s.learned_clauses);
  add("_deleted_clauses", s.deleted_clauses);
  probe.add("_search_seconds", solve_seconds);
}

namespace {

std::size_t uniform(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

}  // namespace

Instance threshold_or_pigeonhole(std::uint64_t seed, std::uint64_t index,
                                 std::size_t min_vars, std::size_t max_vars,
                                 std::size_t holes) {
  const std::uint64_t s = mix_seed(seed, index);
  std::mt19937_64 rng(s);
  Instance inst;
  if (index % 2 == 0) {
    const std::size_t n = uniform(rng, min_vars, max_vars);
    inst.formula = ns::gen::random_ksat(n, (n * 426) / 100, 3, s);
  } else {
    inst.formula = ns::gen::scramble(ns::gen::pigeonhole(holes + 1, holes), s);
    inst.status = Status::kUnsat;
  }
  return inst;
}

namespace {

/// A generator of the item stream: instance `index` of run seed `seed`.
using InstanceMaker = Instance (*)(std::uint64_t seed, std::uint64_t index);

/// triage: parity and adder miters (status fixed by the bug flag),
/// community-structured and small random 3-SAT (status unknown).
Instance make_triage_instance(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t s = mix_seed(seed, index);
  std::mt19937_64 rng(s);
  const bool bug = (index / 4) % 2 == 1;
  Instance inst;
  switch (index % 4) {
    case 0:
      inst.formula = ns::gen::parity_equivalence(uniform(rng, 12, 20), bug, s);
      inst.status = bug ? Status::kSat : Status::kUnsat;
      break;
    case 1:
      inst.formula = ns::gen::scramble(
          ns::gen::adder_equivalence(uniform(rng, 8, 16), bug, s),
          s ^ 0x9e3779b97f4a7c15ull);
      inst.status = bug ? Status::kSat : Status::kUnsat;
      break;
    case 2: {
      const std::size_t n = uniform(rng, 260, 400);
      inst.formula = ns::gen::community_sat(n, (n * 425) / 100, 10, 0.8, s);
      break;
    }
    default: {
      const std::size_t n = uniform(rng, 100, 150);
      inst.formula = ns::gen::random_ksat(n, (n * 426) / 100, 3, s);
      break;
    }
  }
  return inst;
}

/// hard_solve: the random3sat_xl regime (the threshold) at 150-170 vars, so
/// a run holds a few hundred items, alternating with PHP(8, 7).
Instance make_hard_instance(std::uint64_t seed, std::uint64_t index) {
  return threshold_or_pigeonhole(seed, index, 150, 170, 7);
}

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(std::uint64_t seed, std::string model_path,
                   InstanceMaker maker, std::uint64_t budget_propagations,
                   std::size_t warmup)
      : seed_(seed),
        model_path_(std::move(model_path)),
        maker_(maker),
        budget_(budget_propagations),
        warmup_(warmup) {}

  std::size_t threads() const override { return 1; }

  void setup() override {
    model_ = load_model(model_path_);
    for (std::uint64_t i = 0; i < warmup_; ++i) {
      load(kWarmupSeed, i);
      execute(nullptr);
    }
  }

  void prepare(std::uint64_t index) override { load(seed_, index); }

  Exec execute(Probe* probe) override {
    if (probe != nullptr) probe->set_item(index_);
    Exec e;
    const std::int64_t t0 = now_ns();
    {
      Scope item(probe, Layer::kItem);
      const FrontEnd fe = run_front_end(text_, *model_, true, probe);
      ns::solver::SolverOptions options;
      options.deletion_policy = fe.policy;
      options.max_propagations = budget_;
      ns::solver::Solver solver(options);
      {
        Scope s(probe, Layer::kLoad);
        solver.load(fe.simplified.formula);
      }
      ns::solver::SolveOutcome out;
      const std::int64_t s0 = probe != nullptr ? now_ns() : 0;
      {
        Scope s(probe, Layer::kSolve);
        out = solver.solve();
      }
      if (probe != nullptr) {
        add_search_counters(*probe, out.stats, (now_ns() - s0) * 1e-9);
      }
      result_ = out.result;
      if (result_ == ns::solver::SatResult::kSat) {
        model_out_ = fe.simplified.complete_model(std::move(out.model));
      }
      e.fp = {out.stats.ticks, out.stats.conflicts, 0, fe.chosen};
    }
    e.latency_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    e.result = result_;
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
    instance_ = maker_(seed, index);
    text_ = ns::to_dimacs_string(instance_.formula);
  }

  std::uint64_t seed_;
  std::string model_path_;
  InstanceMaker maker_;
  std::uint64_t budget_;
  std::size_t warmup_;
  std::unique_ptr<ns::nn::NeuroSelectModel> model_;

  std::uint64_t index_ = 0;
  Instance instance_;
  std::string text_;
  ns::solver::SatResult result_ = ns::solver::SatResult::kUnknown;
  ns::Model model_out_;
};

}  // namespace

std::unique_ptr<Workload> make_triage(std::uint64_t seed,
                                      const std::string& model_path) {
  return std::make_unique<PipelineWorkload>(seed, model_path,
                                            &make_triage_instance, 2'000'000,
                                            /*warmup=*/8);
}

std::unique_ptr<Workload> make_hard_solve(std::uint64_t seed,
                                          const std::string& model_path) {
  return std::make_unique<PipelineWorkload>(seed, model_path,
                                            &make_hard_instance, 20'000'000,
                                            /*warmup=*/2);
}

}  // namespace perfbench
