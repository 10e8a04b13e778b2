/// \file neuroselect_solve.cpp
/// Command-line SAT solver front end.
///
/// Usage:
///   neuroselect_solve [options] <input.cnf>
///     --policy default|frequency   clause-deletion policy (default: default)
///     --alpha <f>                  Eq. 2 threshold for the frequency policy
///     --proof <file>               write a DRAT proof (UNSAT certificates)
///     --assume "l1 l2 ..."         solve under these assumptions (DIMACS
///                                  literals; repeatable, sets accumulate).
///                                  On UNSAT the failed assumption core is
///                                  printed as a "c core" line
///     --budget-conflicts <n>       per-query conflict budget (0 = unlimited)
///     --budget-propagations <n>    per-query propagation budget
///     --budget-ticks <n>           per-query tick budget
///     --gc-frac <f>                deferred clause-DB garbage collection
///                                  once the dead arena fraction reaches f
///                                  (0 = eager collection at each reduce)
///     --max-conflicts <n>          lifetime conflict budget (0 = unlimited)
///     --max-propagations <n>       lifetime propagation budget (0 = unlimited)
///     --preprocess                 root-level simplification before search
///     --vmtf                       use VMTF decisions instead of EVSIDS
///     --luby                       use Luby restarts instead of Glucose EMA
///     --portfolio <k>              race k engine configurations (the stock
///                                  portfolio over the base options) with
///                                  deterministic first-winner cancellation;
///                                  --budget-ticks becomes the per-engine
///                                  race cap. Incompatible with --proof,
///                                  --budget-conflicts,
///                                  --budget-propagations and --progress
///     --portfolio-select <mode>    classifier | fixed | single-best: race
///                                  the classifier-ranked subset, the whole
///                                  portfolio, or only config 0
///     --portfolio-slice <n>        racer tick-slice size (default 20000)
///     --model <file>               classifier parameters (nsweights) for
///                                  --portfolio-select classifier (untrained
///                                  analytic ranking when omitted). This flag
///                                  and the two above need --portfolio
///     --stats-json <file>          write the full counter set as JSON
///                                  ("-" for stdout); when racing, a
///                                  "portfolio" object nests winner id,
///                                  rounds, and one per-engine entry
///                                  (config, stop reason, tick count, full
///                                  per-race counters)
///     --audit                      attach the engine invariant auditor
///                                  (audit::RuntimeAuditor); a violation
///                                  prints the broken invariant, dumps
///                                  --stats-json if requested, exit 1
///     --progress                   print "c" lines on restarts/reductions
///     --quiet                      suppress the model ("v ...") lines
///
/// Output follows SAT-competition conventions: a "s SATISFIABLE" /
/// "s UNSATISFIABLE" / "s UNKNOWN" status line, "v" model lines on SAT,
/// and "c" comment lines with statistics. On UNKNOWN the JSON stats carry
/// a "why" field naming the exhausted budget. Exit code: 10 SAT, 20 UNSAT,
/// 0 unknown, 1 usage/parse error. Numeric flag values must be a whole
/// unsigned integer (<n>, <k>) or a finite non-negative number (<f>).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "audit/solver_audit.hpp"
#include "cnf/dimacs.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "parse_number.hpp"
#include "portfolio/racer.hpp"
#include "portfolio/select.hpp"
#include "solver/proof.hpp"
#include "solver/solver.hpp"

namespace {

using ns::Lit;
using ns::tools::parse_number;

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--policy default|frequency] [--alpha f] [--preprocess] "
               "[--proof file] [--assume \"l1 l2 ...\"] [--budget-conflicts n] "
               "[--budget-propagations n] [--budget-ticks n] [--gc-frac f] "
               "[--max-conflicts n] [--max-propagations n] "
               "[--vmtf] [--luby] [--portfolio k] "
               "[--portfolio-select classifier|fixed|single-best] "
               "[--portfolio-slice n] [--model file] "
               "[--stats-json file] [--audit] [--progress] "
               "[--quiet] <input.cnf>\n",
               prog);
}

/// Engine-hook consumer: live search progress as "c" comment lines.
struct ProgressPrinter final : ns::solver::EngineListener {
  void on_restart(std::uint64_t restarts, std::uint64_t conflicts) override {
    std::printf("c restart %llu at %llu conflicts\n",
                static_cast<unsigned long long>(restarts),
                static_cast<unsigned long long>(conflicts));
  }
  void on_reduce(std::uint64_t reductions, std::size_t deleted,
                 std::size_t live_learned) override {
    std::printf("c reduce %llu: deleted %zu clauses, %zu learned live\n",
                static_cast<unsigned long long>(reductions), deleted,
                live_learned);
  }
};

const char* result_name(ns::solver::SatResult r) {
  switch (r) {
    case ns::solver::SatResult::kSat:
      return "SAT";
    case ns::solver::SatResult::kUnsat:
      return "UNSAT";
    default:
      return "UNKNOWN";
  }
}

/// The counter block shared by the aggregate and per-engine JSON views.
void write_counter_fields(std::FILE* f, const ns::solver::Statistics& s,
                          const char* indent) {
  for (const ns::solver::CounterField& c : ns::solver::kCounterFields) {
    std::fprintf(f, "%s\"%s\": %llu,\n", indent, c.name,
                 static_cast<unsigned long long>(s.*c.member));
  }
  std::fprintf(f, "%s\"proxy_seconds\": %.6f\n", indent, s.proxy_seconds());
}

/// The opening both JSON views share: result, why and, under --assume,
/// the failed-assumption core.
void write_json_head(std::FILE* f, ns::solver::SatResult result,
                     ns::solver::StopReason why, const std::vector<Lit>* core) {
  std::fprintf(f, "{\n  \"result\": \"%s\",\n", result_name(result));
  std::fprintf(f, "  \"why\": \"%s\",\n", ns::solver::stop_reason_name(why));
  if (core != nullptr) {
    std::fprintf(f, "  \"core\": [");
    for (std::size_t i = 0; i < core->size(); ++i) {
      std::fprintf(f, "%s%d", i ? ", " : "", (*core)[i].to_dimacs());
    }
    std::fprintf(f, "],\n");
  }
}

void write_stats_json(std::FILE* f, const ns::solver::SatResult result,
                      const ns::solver::Statistics& s,
                      ns::solver::StopReason why = ns::solver::StopReason::kNone,
                      const std::vector<Lit>* core = nullptr) {
  write_json_head(f, result, why, core);
  write_counter_fields(f, s, "  ");
  std::fprintf(f, "}\n");
}

/// Race view: the aggregate result plus a "portfolio" object with one
/// nested entry per engine (winner id and per-config tick counts included).
void write_race_json(std::FILE* f, const ns::portfolio::PortfolioRacer& racer,
                     const ns::portfolio::RaceResult& race,
                     const char* mode_name,
                     const std::vector<Lit>* core) {
  write_json_head(f, race.result, race.why, core);
  std::fprintf(f, "  \"portfolio\": {\n");
  std::fprintf(f, "    \"mode\": \"%s\",\n", mode_name);
  std::fprintf(f, "    \"k\": %zu,\n", racer.size());
  std::fprintf(f, "    \"winner\": %d,\n", race.winner);
  std::fprintf(f, "    \"winner_ticks\": %llu,\n",
               static_cast<unsigned long long>(race.winner_ticks));
  std::fprintf(f, "    \"rounds\": %llu,\n",
               static_cast<unsigned long long>(race.rounds));
  std::fprintf(f, "    \"engines\": [\n");
  for (std::size_t i = 0; i < race.engines.size(); ++i) {
    const ns::portfolio::EngineRaceResult& e = race.engines[i];
    std::fprintf(f, "      {\n");
    std::fprintf(f, "        \"id\": %u,\n", e.config_id);
    std::fprintf(f, "        \"name\": \"%s\",\n",
                 racer.registry()[i].name.c_str());
    std::fprintf(f, "        \"participated\": %s,\n",
                 e.participated ? "true" : "false");
    std::fprintf(f, "        \"decided\": %s,\n",
                 e.decided ? "true" : "false");
    std::fprintf(f, "        \"cancelled\": %s,\n",
                 e.cancelled ? "true" : "false");
    std::fprintf(f, "        \"why\": \"%s\",\n",
                 ns::solver::stop_reason_name(e.why));
    std::fprintf(f, "        \"ticks\": %llu,\n",
                 static_cast<unsigned long long>(e.ticks));
    std::fprintf(f, "        \"slices\": %llu,\n",
                 static_cast<unsigned long long>(e.slices));
    std::fprintf(f, "        \"stats\": {\n");
    write_counter_fields(f, e.stats, "          ");
    std::fprintf(f, "        }\n");
    std::fprintf(f, "      }%s\n", i + 1 < race.engines.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
}

/// Runs `write` on the --stats-json target (`path`; "-" is stdout, empty
/// means no JSON was asked for). False, with a diagnostic, when the file
/// cannot be opened.
template <typename Write>
bool write_stats_file(const std::string& path, Write&& write) {
  if (path.empty()) return true;
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "c cannot open stats file %s\n", path.c_str());
    return false;
  }
  write(f);
  if (f != stdout) std::fclose(f);
  return true;
}

/// Prints an audit violation report (the run then exits 1).
void report_audit_failure(const ns::audit::AuditError& e) {
  std::printf("c AUDIT FAILURE: %s\n", e.what());
  for (const ns::audit::Violation& v : e.violations()) {
    std::printf("c   violated invariant %s: %s\n", v.rule.c_str(),
                v.message.c_str());
  }
}

/// The answer, single engine or race: the "s" status line plus the "v"
/// model line on SAT, the "c core" line on UNSAT under --assume (`core`
/// non-null), or the "c stopped:" line on UNKNOWN. Returns the exit code.
int print_answer(ns::solver::SatResult result, const ns::Model& model,
                 const std::vector<Lit>* core, ns::solver::StopReason why,
                 bool quiet) {
  switch (result) {
    case ns::solver::SatResult::kSat: {
      std::printf("s SATISFIABLE\n");
      if (!quiet) {
        std::printf("v");
        for (std::size_t v = 0; v < model.size(); ++v) {
          std::printf(" %s%zu", model[v] ? "" : "-", v + 1);
        }
        std::printf(" 0\n");
      }
      return 10;
    }
    case ns::solver::SatResult::kUnsat:
      if (core != nullptr) {
        // Failed assumption core: a subset of --assume whose conjunction
        // with the formula is already unsatisfiable (empty when the
        // formula is unsatisfiable on its own).
        std::printf("c core");
        for (const Lit l : *core) std::printf(" %d", l.to_dimacs());
        std::printf(" 0\n");
      }
      std::printf("s UNSATISFIABLE\n");
      return 20;
    default:
      std::printf("c stopped: %s\n", ns::solver::stop_reason_name(why));
      std::printf("s UNKNOWN\n");
      return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ns::solver::SolverOptions options;
  ns::solver::Solver::Budget budget;
  std::vector<Lit> assumptions;
  std::string input_path;
  std::string proof_path;
  std::string stats_json_path;
  bool audit = false;
  bool progress = false;
  bool quiet = false;
  std::size_t portfolio_k = 0;
  ns::portfolio::SelectMode portfolio_mode = ns::portfolio::SelectMode::kFixed;
  std::uint64_t portfolio_slice = 20'000;
  std::string model_path;
  bool portfolio_select_given = false;
  bool portfolio_slice_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    // Numeric flag value: the whole next token, or a diagnostic and exit 1.
    const auto number = [&](auto& out) {
      using T = std::remove_reference_t<decltype(out)>;
      const char* text = next();
      const std::optional<T> value = parse_number<T>(text);
      if (!value) {
        std::fprintf(stderr, "c %s expects %s, got '%s'\n", arg.c_str(),
                     std::is_floating_point_v<T>
                         ? "a finite non-negative number"
                         : "an unsigned integer",
                     text);
        std::exit(1);
      }
      out = *value;
    };
    if (arg == "--policy") {
      const std::string name = next();
      const auto kind = ns::policy::policy_kind_from_name(name);
      if (!kind) {
        std::fprintf(stderr, "unknown --policy name: %s\n", name.c_str());
        return 1;
      }
      options.deletion_policy = *kind;
    } else if (arg == "--alpha") {
      number(options.frequency_alpha);
    } else if (arg == "--proof") {
      proof_path = next();
    } else if (arg == "--assume") {
      std::istringstream in(next());
      std::string token;
      while (in >> token) {
        // Each whitespace token is one whole int; a leading '+' is allowed.
        const char* text = token.c_str();
        if (text[0] == '+' && text[1] != '-') ++text;
        const std::optional<int> dimacs = parse_number<int>(text);
        if (!dimacs) {
          std::fprintf(stderr, "c --assume expects int literals, got '%s'\n",
                       token.c_str());
          return 1;
        }
        if (*dimacs == 0) continue;  // tolerate a trailing DIMACS terminator
        // INT_MIN has no int magnitude, so no literal can be built from it.
        if (*dimacs == std::numeric_limits<int>::min()) {
          std::fprintf(stderr, "c --assume literal %d is out of range\n",
                       *dimacs);
          return 1;
        }
        assumptions.push_back(Lit::from_dimacs(*dimacs));
      }
    } else if (arg == "--budget-conflicts") {
      number(budget.conflicts);
    } else if (arg == "--budget-propagations") {
      number(budget.propagations);
    } else if (arg == "--budget-ticks") {
      number(budget.ticks);
    } else if (arg == "--gc-frac") {
      number(options.gc_frac);
    } else if (arg == "--max-conflicts") {
      number(options.max_conflicts);
    } else if (arg == "--max-propagations") {
      number(options.max_propagations);
    } else if (arg == "--preprocess") {
      options.preprocess = true;
    } else if (arg == "--vmtf") {
      options.decision_mode = ns::solver::DecisionMode::kVmtf;
    } else if (arg == "--luby") {
      options.restart_mode = ns::solver::RestartMode::kLuby;
    } else if (arg == "--portfolio") {
      number(portfolio_k);
    } else if (arg == "--portfolio-select") {
      portfolio_select_given = true;
      const std::string mode = next();
      if (mode == "classifier") {
        portfolio_mode = ns::portfolio::SelectMode::kClassifier;
      } else if (mode == "fixed") {
        portfolio_mode = ns::portfolio::SelectMode::kFixed;
      } else if (mode == "single-best") {
        portfolio_mode = ns::portfolio::SelectMode::kSingleBest;
      } else {
        std::fprintf(stderr, "unknown --portfolio-select mode: %s\n",
                     mode.c_str());
        return 1;
      }
    } else if (arg == "--portfolio-slice") {
      portfolio_slice_given = true;
      number(portfolio_slice);
    } else if (arg == "--model") {
      model_path = next();
    } else if (arg == "--stats-json") {
      stats_json_path = next();
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
      return 1;
    } else {
      input_path = arg;
    }
  }
  if (input_path.empty()) {
    usage(argv[0]);
    return 1;
  }

  const ns::ParseResult parsed = ns::parse_dimacs_file(input_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "c parse error (%s:%zu): %s\n", input_path.c_str(),
                 parsed.line, parsed.error.c_str());
    return 1;
  }
  std::printf("c %s\n", parsed.formula.summary().c_str());

  if (portfolio_k > 0) {
    // The racer runs every lane on its own tick slices with no listener, so
    // flags it would drop are refused instead of ignored.
    const struct {
      bool given;
      const char* flag;
      const char* why;
    } refused[] = {
        {!proof_path.empty(), "--proof",
         "only the single-engine path traces DRAT"},
        {budget.conflicts != 0, "--budget-conflicts",
         "racing budgets each engine in ticks only"},
        {budget.propagations != 0, "--budget-propagations",
         "racing budgets each engine in ticks only"},
        {progress, "--progress", "no engine reports progress while racing"},
    };
    for (const auto& r : refused) {
      if (r.given) {
        std::fprintf(stderr, "c %s is incompatible with --portfolio (%s)\n",
                     r.flag, r.why);
        return 1;
      }
    }
    for (const Lit a : assumptions) {
      if (a.var() >= parsed.formula.num_vars()) {
        std::fprintf(stderr, "c --assume literal %d is out of range\n",
                     a.to_dimacs());
        return 1;
      }
    }
    std::unique_ptr<ns::nn::NeuroSelectModel> model;
    if (!model_path.empty()) {
      model = std::make_unique<ns::nn::NeuroSelectModel>();
      std::string why;
      if (!ns::nn::load_parameters(*model, model_path, &why)) {
        std::fprintf(stderr, "c cannot load model parameters from %s: %s\n",
                     model_path.c_str(), why.c_str());
        return 1;
      }
    }

    const ns::portfolio::EngineConfigRegistry registry =
        ns::portfolio::EngineConfigRegistry::default_portfolio(portfolio_k,
                                                               options);
    ns::portfolio::RacerOptions racer_options;
    racer_options.slice_ticks = portfolio_slice;
    racer_options.max_ticks = budget.ticks;  // per-engine race cap
    ns::portfolio::PortfolioRacer racer(registry, racer_options);

    ns::portfolio::RaceResult race;
    const char* mode_name = select_mode_name(portfolio_mode);
    try {
      const ns::portfolio::SelectionPlan plan = ns::portfolio::plan_race(
          portfolio_mode, model.get(), registry, parsed.formula);
      mode_name = select_mode_name(plan.mode);
      std::printf("c portfolio mode=%s k=%zu racing ids:", mode_name,
                  registry.size());
      for (const std::uint32_t id : plan.subset_ids) std::printf(" %u", id);
      std::printf("\n");
      racer.load(parsed.formula);
      // The racer checks every race result (audit::check_race) itself.
      race = racer.race_subset(plan.subset_ids, assumptions);
    } catch (const ns::audit::AuditError& e) {
      report_audit_failure(e);
      return 1;
    }
    if (audit) std::printf("c race invariants clean (--audit)\n");

    if (race.winner >= 0) {
      std::printf("c winner config %d (%s): %llu ticks, %llu rounds\n",
                  race.winner,
                  registry[static_cast<std::size_t>(race.winner)].name.c_str(),
                  static_cast<unsigned long long>(race.winner_ticks),
                  static_cast<unsigned long long>(race.rounds));
    }
    const std::vector<Lit>* core = assumptions.empty() ? nullptr : &race.core;
    if (!write_stats_file(stats_json_path, [&](std::FILE* f) {
          write_race_json(f, racer, race, mode_name, core);
        })) {
      return 1;
    }
    return print_answer(race.result, race.model, core, race.why, quiet);
  }

  // The single-engine path runs no classifier and no racer, so the flags
  // only a race reads are refused instead of ignored.
  const struct {
    bool given;
    const char* flag;
  } race_only[] = {
      {!model_path.empty(), "--model"},
      {portfolio_select_given, "--portfolio-select"},
      {portfolio_slice_given, "--portfolio-slice"},
  };
  for (const auto& r : race_only) {
    if (r.given) {
      std::fprintf(stderr, "c %s needs --portfolio\n", r.flag);
      return 1;
    }
  }

  ns::solver::Solver solver(options);
  ProgressPrinter progress_printer;
  ns::solver::ListenerChain listeners;
  std::unique_ptr<ns::audit::RuntimeAuditor> auditor;
  if (audit) {
    auditor = std::make_unique<ns::audit::RuntimeAuditor>(
        solver.context(), solver.propagator(), solver.decider());
    listeners.add(auditor.get());
    std::printf("c runtime invariant audits enabled (--audit)\n");
  }
  if (progress) listeners.add(&progress_printer);
  if (audit || progress) solver.set_listener(&listeners);

  std::ofstream proof_stream;
  ns::solver::DratTextWriter proof_writer(proof_stream);

  for (const Lit a : assumptions) {
    if (a.var() >= parsed.formula.num_vars()) {
      std::fprintf(stderr, "c --assume literal %d is out of range\n",
                   a.to_dimacs());
      return 1;
    }
  }

  ns::solver::SolveOutcome out;
  try {
    solver.load(parsed.formula);
    solver.set_budget(budget);
    if (!proof_path.empty()) {
      proof_stream.open(proof_path);
      if (!proof_stream) {
        std::fprintf(stderr, "c cannot open proof file %s\n",
                     proof_path.c_str());
        return 1;
      }
      solver.set_proof_tracer(&proof_writer);
    }
    // The auditor checks the whole engine again as the query ends.
    out = solver.solve(assumptions);
  } catch (const ns::audit::AuditError& e) {
    report_audit_failure(e);
    write_stats_file(stats_json_path, [&](std::FILE* f) {
      write_stats_json(f, ns::solver::SatResult::kUnknown, solver.stats());
    });
    return 1;
  }
  std::printf("c %s\n", out.stats.summary().c_str());
  const std::vector<Lit>* core = assumptions.empty() ? nullptr : &out.core;
  if (!write_stats_file(stats_json_path, [&](std::FILE* f) {
        write_stats_json(f, out.result, out.stats, out.why, core);
      })) {
    return 1;
  }
  return print_answer(out.result, out.model, core, out.why, quiet);
}
