/// \file gen_cnf.cpp
/// Emits a named synthetic CNF family as DIMACS on stdout, so shell and
/// ctest pipelines (generate -> solve --proof -> drat_check) can exercise
/// the end-to-end proof path without checked-in instance files.
///
/// Usage:
///   gen_cnf php <pigeons> <holes>
///   gen_cnf xor <length> <contradictory 0|1> <seed>
///   gen_cnf parity <width> <inject_bug 0|1> <seed>
///   gen_cnf ksat <vars> <clauses> <k> <seed>
///   gen_cnf color <vertices> <edge_prob> <colors> <seed>
/// Every number is one whole unsigned integer, except <edge_prob>, a number
/// in [0, 1]. Exit codes: 0 ok, 1 usage error or a refused argument (with a
/// diagnostic on stderr).

#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "cnf/dimacs.hpp"
#include "gen/generators.hpp"
#include "parse_number.hpp"

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s php <pigeons> <holes>\n"
               "       %s xor <length> <contradictory 0|1> <seed>\n"
               "       %s parity <width> <inject_bug 0|1> <seed>\n"
               "       %s ksat <vars> <clauses> <k> <seed>\n"
               "       %s color <vertices> <edge_prob> <colors> <seed>\n",
               prog, prog, prog, prog, prog);
}

std::uint64_t num(const char* s) {
  const std::optional<std::uint64_t> v =
      ns::tools::parse_number<std::uint64_t>(s);
  if (!v) {
    throw std::invalid_argument(
        std::string("expected an unsigned integer, got '") + s + "'");
  }
  return *v;
}

double probability(const char* s) {
  const std::optional<double> p = ns::tools::parse_number<double>(s);
  if (!p || *p > 1.0) {
    throw std::invalid_argument(
        std::string("expected an edge probability in [0, 1], got '") + s +
        "'");
  }
  return *p;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 1;
  }
  const std::string family = argv[1];
  ns::CnfFormula f;
  try {
    if (family == "php" && argc == 4) {
      f = ns::gen::pigeonhole(num(argv[2]), num(argv[3]));
    } else if (family == "xor" && argc == 5) {
      f = ns::gen::xor_chain(num(argv[2]), num(argv[3]) != 0, num(argv[4]));
    } else if (family == "parity" && argc == 5) {
      f = ns::gen::parity_equivalence(num(argv[2]), num(argv[3]) != 0,
                                      num(argv[4]));
    } else if (family == "ksat" && argc == 6) {
      f = ns::gen::random_ksat(num(argv[2]), num(argv[3]), num(argv[4]),
                               num(argv[5]));
    } else if (family == "color" && argc == 6) {
      f = ns::gen::graph_coloring(num(argv[2]), probability(argv[3]),
                                  num(argv[4]), num(argv[5]));
    } else {
      usage(argv[0]);
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gen_cnf %s: %s\n", family.c_str(), e.what());
    return 1;
  }
  ns::write_dimacs(f, std::cout);
  return 0;
}
