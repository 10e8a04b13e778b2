#pragma once
/// \file generators.hpp
/// Deterministic synthetic CNF families standing in for the SAT-competition
/// main-track benchmarks (see DESIGN.md §2). Every generator is a pure
/// function of its parameters and seed, so datasets are reproducible across
/// runs and platforms.
///
/// Families:
///  - random k-SAT (tunable clause/variable ratio; near 4.26 for hard 3-SAT)
///  - pigeonhole PHP(p, h): p pigeons into h holes; UNSAT when p > h
///  - random graph k-colouring
///  - XOR/parity chains (Tseitin-encoded); satisfiable iff parity consistent
///  - community-structured random SAT (models industrial modularity)

#include <cstdint>
#include <random>

#include "cnf/formula.hpp"

namespace ns::gen {

/// Uniform random k-SAT: `num_clauses` clauses of `k` distinct variables
/// with independent random polarities. Throws std::invalid_argument unless
/// 1 <= k <= num_vars.
CnfFormula random_ksat(std::size_t num_vars, std::size_t num_clauses,
                       std::size_t k, std::uint64_t seed);

/// Pigeonhole principle PHP(pigeons, holes): every pigeon in some hole, no
/// two pigeons share a hole. UNSAT iff pigeons > holes; classically hard for
/// resolution, exercises deep conflict analysis.
CnfFormula pigeonhole(std::size_t pigeons, std::size_t holes);

/// k-colouring of a random graph G(n, edge_prob): every vertex gets >= 1
/// colour, no vertex gets 2 colours, adjacent vertices differ.
CnfFormula graph_coloring(std::size_t num_vertices, double edge_prob,
                          std::size_t num_colors, std::uint64_t seed);

/// Chain of XOR constraints x_i XOR x_{i+1} = b_i plus unit pins on the two
/// endpoints, Tseitin-encoded into 2-clauses... each XOR constraint over two
/// variables expands to 2 CNF clauses. `contradictory` forces UNSAT by
/// pinning endpoints inconsistently with the accumulated parity. Throws
/// std::invalid_argument when `length` is below 2.
CnfFormula xor_chain(std::size_t length, bool contradictory,
                     std::uint64_t seed);

/// Community-structured random 3-SAT: variables are split into
/// `num_communities` blocks; each clause is intra-community with probability
/// `modularity`, otherwise uniform. Models the modular structure of
/// industrial instances (the regime where deletion policies diverge most).
CnfFormula community_sat(std::size_t num_vars, std::size_t num_clauses,
                         std::size_t num_communities, double modularity,
                         std::uint64_t seed);

/// Random subset-sum style instance built from an equality between two
/// sparse pseudo-Boolean sums encoded through adder chains; mixes long
/// propagation chains with random structure. Satisfiability depends on seed.
CnfFormula adder_equivalence(std::size_t bits, bool inject_bug,
                             std::uint64_t seed);

/// Equivalence miter of a parity chain vs a balanced parity tree over
/// `width` inputs. UNSAT when `inject_bug` is false. XOR miters are hard
/// for resolution, so these instances accumulate many learned clauses and
/// undergo many DB reductions — the regime where deletion policies matter.
/// Throws std::invalid_argument when `width` is 0.
CnfFormula parity_equivalence(std::size_t width, bool inject_bug,
                              std::uint64_t seed);

/// Applies a satisfiability-preserving random isomorphism: permutes variable
/// indices, flips the polarity of a random subset of variables, and shuffles
/// clause order and within-clause literal order. Deterministic in `seed`.
/// Used to diversify deterministic families (pigeonhole, miters) so the
/// dataset contains no duplicate instances across splits.
CnfFormula scramble(const CnfFormula& f, std::uint64_t seed);

}  // namespace ns::gen
