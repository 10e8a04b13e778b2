#include "cnf/dimacs.hpp"

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
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

/// C-locale whitespace other than the line terminator '\n'.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// One pass over the whole input. Lines are the '\n'-separated segments
/// (a final segment without '\n' is a line, an empty one after the last
/// '\n' is not), and a clause line is read the way `std::istream >> int`
/// reads it: blanks skipped, then an optional sign and a digit run. A token
/// that `>> int` cannot read (no digits, or outside the int range) is an
/// error, except when it runs to the end of its line: the dialect drops it
/// there, as a per-line `>> int` loop does when the failed read also hits
/// the end of its input.
ParseResult parse_text(std::string_view text) {
  ParseResult result;
  CnfFormula formula;
  bool saw_header = false;
  std::size_t declared_vars = 0;
  std::size_t declared_clauses = 0;
  std::vector<int> pending;  // literals of the clause under construction

  const char* p = text.data();
  const char* const end = p + text.size();
  std::size_t line_no = 0;
  while (p < end) {
    const char* const line = p;
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const le = nl != nullptr ? nl : end;
    p = nl != nullptr ? nl + 1 : end;
    ++line_no;
    if (line == le || *line == 'c') continue;
    if (*line == 'p') {
      if (saw_header) return fail(line_no, "duplicate 'p' header");
      std::istringstream hs(std::string(line, le));
      std::string p_token, fmt;
      hs >> p_token >> fmt >> declared_vars >> declared_clauses;
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
    const char* q = line;
    while (true) {
      while (q < le && is_blank(*q)) ++q;
      if (q == le) break;
      const char* const sign = q;
      if (*q == '+' || *q == '-') ++q;
      const char* const digits = q;
      while (q < le && is_digit(*q)) ++q;
      // from_chars takes a '-' but not a '+'.
      int lit = 0;
      const std::from_chars_result r =
          std::from_chars(*sign == '-' ? sign : digits, q, lit);
      if (r.ec != std::errc()) {
        if (q == le) break;
        return fail(line_no, "unexpected token in clause");
      }
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
  }
  if (!saw_header) return fail(0, "missing 'p cnf' header");
  if (!pending.empty()) {
    formula.add_clause_dimacs(pending);  // tolerate a missing trailing 0
  }

  result.ok = true;
  result.formula = std::move(formula);
  return result;
}

}  // namespace

ParseResult parse_dimacs(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return parse_text(text.view());
}

ParseResult parse_dimacs_string(const std::string& text) {
  return parse_text(text);
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
