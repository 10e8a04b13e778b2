#pragma once
/// \file simplify_corpus.hpp
/// The simplify-oracle corpus: a fixed list of generated instances used to
/// pin the root simplifier's exact output. `tests/golden_simplify.inc` holds,
/// per (instance, pure_literals) pair, the verdict, the four counters and a
/// digest of `fixed` plus the surviving clauses in order, as the seed
/// simplifier produced them; SimplifyTest.MatchesGolden asserts the current
/// simplifier reproduces every row, and `gen_trajectory_golden simplify`
/// regenerates the table (only legitimate after an intentional change to
/// what `simplify` keeps, or in which order).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/dataset.hpp"
#include "gen/generators.hpp"
#include "solver/simplify.hpp"
#include "trajectory_corpus.hpp"

namespace ns::testing {

inline std::vector<std::pair<std::string, CnfFormula>> simplify_instances() {
  std::vector<std::pair<std::string, CnfFormula>> out = trajectory_instances();
  // The competition-style splits: every generate_split family, every year.
  for (int year = 2016; year <= 2022; ++year) {
    for (gen::NamedInstance& inst : gen::generate_split(year, 24, 1)) {
      out.emplace_back(inst.name, std::move(inst.formula));
    }
  }
  // The perfbench triage mix at its own sizes: parity and adder miters,
  // community-structured and random 3-SAT.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    const bool bug = s % 2 == 0;
    const std::string tag = std::to_string(s);
    out.emplace_back("triage_parity_" + tag,
                     gen::parity_equivalence(12 + s, bug, s));
    out.emplace_back("triage_adder_" + tag,
                     gen::scramble(gen::adder_equivalence(8 + s, bug, s),
                                   s ^ 0x9e3779b97f4a7c15ull));
    const std::size_t nc = 260 + 17 * s;
    out.emplace_back("triage_community_" + tag,
                     gen::community_sat(nc, (nc * 425) / 100, 10, 0.8, s));
    const std::size_t nr = 100 + 6 * s;
    out.emplace_back("triage_ksat_" + tag,
                     gen::random_ksat(nr, (nr * 426) / 100, 3, s));
  }
  // Duplicate- and subsumption-heavy mixes: dense 2-SAT repeats clauses
  // many times over, and a 2/3/4-width mix over few variables gives long
  // clauses many shorter subsumers.
  for (std::uint64_t s = 1; s <= 6; ++s) {
    const std::string tag = std::to_string(s);
    out.emplace_back("dup_2sat_" + tag, gen::random_ksat(16, 240, 2, s));
    CnfFormula mixed(24);
    for (const std::size_t k : {2, 3, 4}) {
      const CnfFormula part = gen::random_ksat(24, 60 * k, k, s * 10 + k);
      for (const Clause& c : part.clauses()) mixed.add_clause(c);
    }
    out.emplace_back("mixed_width_" + tag, std::move(mixed));
  }
  return out;
}

/// One golden row: the corpus index, the option, and the pinned output.
struct SimplifyGolden {
  std::size_t instance;
  bool pure_literals;
  bool consistent;
  std::uint64_t fixed_units;
  std::uint64_t fixed_pures;
  std::uint64_t removed_clauses;
  std::uint64_t removed_literals;
  std::uint64_t digest;
};

/// 64-bit FNV-1a over `fixed` (one byte per variable) followed by each
/// surviving clause as its size and then its literal codes, in order.
inline std::uint64_t simplify_digest(const solver::SimplifyResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto word = [&byte](std::uint32_t w) {
    for (int shift = 0; shift < 32; shift += 8) {
      byte(static_cast<std::uint8_t>(w >> shift));
    }
  };
  for (const LBool v : r.fixed) byte(static_cast<std::uint8_t>(v));
  for (const Clause& c : r.formula.clauses()) {
    word(static_cast<std::uint32_t>(c.size()));
    for (const Lit l : c) word(l.code());
  }
  return h;
}

}  // namespace ns::testing
