#include "gen/generators.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "gen/circuit.hpp"

namespace ns::gen {
namespace {

/// Draws `k` distinct variables from [0, num_vars).
std::vector<Var> sample_distinct_vars(std::size_t num_vars, std::size_t k,
                                      std::mt19937_64& rng) {
  assert(k <= num_vars);
  std::vector<Var> picked;
  picked.reserve(k);
  std::uniform_int_distribution<std::size_t> dist(0, num_vars - 1);
  while (picked.size() < k) {
    const Var v = static_cast<Var>(dist(rng));
    if (std::find(picked.begin(), picked.end(), v) == picked.end()) {
      picked.push_back(v);
    }
  }
  return picked;
}

Clause random_polarity_clause(const std::vector<Var>& vars,
                              std::mt19937_64& rng) {
  Clause c;
  c.reserve(vars.size());
  std::bernoulli_distribution coin(0.5);
  for (Var v : vars) c.push_back(Lit(v, coin(rng)));
  return c;
}

}  // namespace

CnfFormula random_ksat(std::size_t num_vars, std::size_t num_clauses,
                       std::size_t k, std::uint64_t seed) {
  // Checked in every build: the sampler below would never return.
  if (k == 0 || k > num_vars) {
    throw std::invalid_argument("random_ksat: k = " + std::to_string(k) +
                                " needs 1 <= k <= num_vars = " +
                                std::to_string(num_vars));
  }
  std::mt19937_64 rng(seed);
  CnfFormula f(num_vars);
  std::size_t added = 0;
  while (added < num_clauses) {
    const std::vector<Var> vars = sample_distinct_vars(num_vars, k, rng);
    if (f.add_clause(random_polarity_clause(vars, rng))) ++added;
  }
  return f;
}

CnfFormula pigeonhole(std::size_t pigeons, std::size_t holes) {
  // Variable p*holes + h  <=>  pigeon p sits in hole h.
  CnfFormula f(pigeons * holes);
  const auto var_of = [holes](std::size_t p, std::size_t h) {
    return static_cast<Var>(p * holes + h);
  };
  for (std::size_t p = 0; p < pigeons; ++p) {
    Clause at_least_one;
    for (std::size_t h = 0; h < holes; ++h) {
      at_least_one.push_back(Lit(var_of(p, h), false));
    }
    f.add_clause(std::move(at_least_one));
  }
  for (std::size_t h = 0; h < holes; ++h) {
    for (std::size_t p1 = 0; p1 < pigeons; ++p1) {
      for (std::size_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_clause({Lit(var_of(p1, h), true), Lit(var_of(p2, h), true)});
      }
    }
  }
  return f;
}

CnfFormula graph_coloring(std::size_t num_vertices, double edge_prob,
                          std::size_t num_colors, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution edge(edge_prob);
  CnfFormula f(num_vertices * num_colors);
  const auto var_of = [num_colors](std::size_t v, std::size_t c) {
    return static_cast<Var>(v * num_colors + c);
  };
  for (std::size_t v = 0; v < num_vertices; ++v) {
    Clause some_color;
    for (std::size_t c = 0; c < num_colors; ++c) {
      some_color.push_back(Lit(var_of(v, c), false));
    }
    f.add_clause(std::move(some_color));
    for (std::size_t c1 = 0; c1 < num_colors; ++c1) {
      for (std::size_t c2 = c1 + 1; c2 < num_colors; ++c2) {
        f.add_clause({Lit(var_of(v, c1), true), Lit(var_of(v, c2), true)});
      }
    }
  }
  for (std::size_t u = 0; u < num_vertices; ++u) {
    for (std::size_t v = u + 1; v < num_vertices; ++v) {
      if (!edge(rng)) continue;
      for (std::size_t c = 0; c < num_colors; ++c) {
        f.add_clause({Lit(var_of(u, c), true), Lit(var_of(v, c), true)});
      }
    }
  }
  return f;
}

CnfFormula xor_chain(std::size_t length, bool contradictory,
                     std::uint64_t seed) {
  if (length < 2) {
    throw std::invalid_argument("xor_chain: length " + std::to_string(length) +
                                " is below 2");
  }
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(0.5);
  CnfFormula f(length);
  bool parity = false;  // accumulated parity of the b_i targets
  for (std::size_t i = 0; i + 1 < length; ++i) {
    const bool b = coin(rng);
    parity ^= b;
    const Lit x(static_cast<Var>(i), false);
    const Lit y(static_cast<Var>(i + 1), false);
    if (b) {
      // x XOR y = 1  <=>  (x ∨ y) ∧ (~x ∨ ~y)
      f.add_clause({x, y});
      f.add_clause({~x, ~y});
    } else {
      // x XOR y = 0  <=>  (x ∨ ~y) ∧ (~x ∨ y)
      f.add_clause({x, ~y});
      f.add_clause({~x, y});
    }
  }
  // Pin x_0 = 0. Chain forces x_{n-1} = parity; pin it consistently or not.
  f.add_clause({Lit(0, true)});
  const bool consistent_end = parity;
  const bool end_value = contradictory ? !consistent_end : consistent_end;
  f.add_clause({Lit(static_cast<Var>(length - 1), !end_value)});
  return f;
}

CnfFormula community_sat(std::size_t num_vars, std::size_t num_clauses,
                         std::size_t num_communities, double modularity,
                         std::uint64_t seed) {
  assert(num_communities >= 1);
  std::mt19937_64 rng(seed);
  CnfFormula f(num_vars);
  const std::size_t community_size =
      std::max<std::size_t>(3, num_vars / num_communities);
  std::bernoulli_distribution intra(modularity);
  std::uniform_int_distribution<std::size_t> pick_community(
      0, num_communities - 1);
  std::size_t added = 0;
  while (added < num_clauses) {
    std::vector<Var> vars;
    if (intra(rng)) {
      const std::size_t c = pick_community(rng);
      const std::size_t lo = std::min(c * community_size, num_vars - community_size);
      std::uniform_int_distribution<std::size_t> in_block(0, community_size - 1);
      while (vars.size() < 3) {
        const Var v = static_cast<Var>(lo + in_block(rng));
        if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
      }
    } else {
      vars = sample_distinct_vars(num_vars, 3, rng);
    }
    if (f.add_clause(random_polarity_clause(vars, rng))) ++added;
  }
  return f;
}

CnfFormula parity_equivalence(std::size_t width, bool inject_bug,
                              std::uint64_t seed) {
  if (width == 0) {
    throw std::invalid_argument("parity_equivalence: width 0 has no parity");
  }
  const Circuit lhs = parity_chain(width);
  const Circuit rhs = parity_tree(width, inject_bug);
  return scramble(miter_cnf(lhs, rhs), seed);
}

CnfFormula scramble(const CnfFormula& f, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t n = f.num_vars();
  std::vector<Var> perm(n);
  for (std::size_t v = 0; v < n; ++v) perm[v] = static_cast<Var>(v);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::bernoulli_distribution flip(0.5);
  std::vector<bool> flipped(n);
  for (std::size_t v = 0; v < n; ++v) flipped[v] = flip(rng);

  CnfFormula out(n);
  std::vector<Clause> clauses;
  clauses.reserve(f.num_clauses());
  for (const Clause& c : f.clauses()) {
    Clause mapped;
    mapped.reserve(c.size());
    for (const Lit l : c) {
      mapped.push_back(Lit(perm[l.var()], l.negated() != flipped[l.var()]));
    }
    std::shuffle(mapped.begin(), mapped.end(), rng);
    clauses.push_back(std::move(mapped));
  }
  std::shuffle(clauses.begin(), clauses.end(), rng);
  for (Clause& c : clauses) out.add_clause(std::move(c));
  return out;
}

CnfFormula adder_equivalence(std::size_t bits, bool inject_bug,
                             std::uint64_t seed) {
  // The seed only perturbs which alternative decomposition is compared; the
  // circuits themselves are deterministic, so equivalence is seed-invariant.
  (void)seed;
  const Circuit lhs = ripple_carry_adder(bits);
  const Circuit rhs = alternative_adder(bits, inject_bug);
  return miter_cnf(lhs, rhs);
}

}  // namespace ns::gen
