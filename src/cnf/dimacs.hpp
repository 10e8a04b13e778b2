#pragma once
/// \file dimacs.hpp
/// DIMACS CNF reader/writer. The reader accepts the common dialect used by
/// SAT-competition instances: 'c' comment lines, one 'p cnf V C' header,
/// whitespace-separated signed literals terminated by 0 (clauses may span
/// lines). Errors are reported via ParseResult rather than exceptions so
/// callers can surface file/line diagnostics.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "cnf/formula.hpp"

namespace ns {

/// Outcome of parsing a DIMACS stream.
struct ParseResult {
  bool ok = false;          ///< true when the whole input parsed cleanly
  std::string error;        ///< diagnostic when !ok
  std::size_t line = 0;     ///< 1-based line of the error (0 if n/a)
  CnfFormula formula;       ///< the parsed formula (valid only when ok)
};

/// Parses DIMACS CNF from a stream: reads all of it, then parses it as
/// parse_dimacs_string does.
ParseResult parse_dimacs(std::istream& in);

/// Parses DIMACS CNF from a string in one pass over its characters; the
/// one parser behind all three entry points.
ParseResult parse_dimacs_string(const std::string& text);

/// Parses DIMACS CNF from a file on disk (read whole, then parsed).
ParseResult parse_dimacs_file(const std::string& path);

/// Writes `f` in DIMACS format (header + one clause per line).
void write_dimacs(const CnfFormula& f, std::ostream& out);

/// Renders `f` as a DIMACS string.
std::string to_dimacs_string(const CnfFormula& f);

}  // namespace ns
