#include "cnf/dimacs.hpp"

#include <climits>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

namespace ns {
namespace {

ParseResult fail(std::size_t line, std::string message) {
  ParseResult r;
  r.ok = false;
  r.line = line;
  r.error = std::move(message);
  return r;
}

}  // namespace

ParseResult parse_dimacs(std::istream& in) {
  ParseResult result;
  CnfFormula formula;
  bool saw_header = false;
  std::size_t declared_vars = 0;
  std::size_t declared_clauses = 0;
  std::vector<int> pending;  // literals of the clause under construction

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      if (saw_header) return fail(line_no, "duplicate 'p' header");
      std::istringstream hs(line);
      std::string p, fmt;
      hs >> p >> fmt >> declared_vars >> declared_clauses;
      if (!hs || fmt != "cnf") return fail(line_no, "malformed 'p cnf' header");
      if (declared_vars > static_cast<std::size_t>(INT_MAX)) {
        return fail(line_no, "variable count " + std::to_string(declared_vars) +
                                 " exceeds the DIMACS literal range");
      }
      saw_header = true;
      formula = CnfFormula(declared_vars);
      continue;
    }
    if (!saw_header) return fail(line_no, "clause before 'p cnf' header");
    std::istringstream ls(line);
    int lit = 0;
    while (ls >> lit) {
      if (lit == 0) {
        formula.add_clause_dimacs(pending);
        pending.clear();
      } else {
        // Widen before negating: INT_MIN has no int magnitude.
        const std::int64_t magnitude =
            lit < 0 ? -static_cast<std::int64_t>(lit) : lit;
        if (static_cast<std::uint64_t>(magnitude) > declared_vars) {
          return fail(line_no, "literal " + std::to_string(lit) +
                                   " exceeds declared variable count");
        }
        pending.push_back(lit);
      }
    }
    if (!ls.eof()) return fail(line_no, "unexpected token in clause");
  }
  if (!saw_header) return fail(0, "missing 'p cnf' header");
  if (!pending.empty()) {
    formula.add_clause_dimacs(pending);  // tolerate a missing trailing 0
  }

  result.ok = true;
  result.formula = std::move(formula);
  return result;
}

ParseResult parse_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return parse_dimacs(in);
}

ParseResult parse_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail(0, "cannot open file: " + path);
  return parse_dimacs(in);
}

void write_dimacs(const CnfFormula& f, std::ostream& out) {
  out << "p cnf " << f.num_vars() << ' ' << f.num_clauses() << '\n';
  for (const Clause& c : f.clauses()) {
    for (Lit l : c) out << l.to_dimacs() << ' ';
    out << "0\n";
  }
}

std::string to_dimacs_string(const CnfFormula& f) {
  std::ostringstream os;
  write_dimacs(f, os);
  return os.str();
}

}  // namespace ns
