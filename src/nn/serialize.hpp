#pragma once
/// \file serialize.hpp
/// Save/load of model weights, so a classifier trained once (e.g. by the
/// Table-2 bench) can be deployed by other binaries without retraining —
/// the paper's "train offline, one inference at solve time" usage mode.
///
/// Format (text, line oriented):
///   nsweights 1
///   <num_tensors>
///   <rows> <cols> v v v ...        (one line per tensor, row-major, %.9g)
///
/// Parameters are matched positionally against Module::parameters(), which
/// is stable for a given architecture; shapes are verified on load.
///
/// Reader contract. The reader makes one pass over the text and takes its
/// tokens exactly as `std::istream >>` in the C locale would, so every text
/// it accepts gives the same bits as a stream read:
///   - tokens are separated by any run of the C locale's blanks (space,
///     \t, \n, \v, \f, \r); the header word is the first run of non-blanks;
///   - a number is the longest prefix a stream would take, and the next
///     token starts right after it: `0.5-0.25` is two values, `1,5` leaves
///     `,5` behind, and text after the last tensor is ignored;
///   - a count (header or shape field) is an optional sign and decimal
///     digits; a `-` wraps modulo 2^64 and then fails the count or shape
///     check;
///   - a value is an optional sign, decimal digits with at most one `.`,
///     and an optional `e`/`E` exponent with its own sign, read with
///     correct rounding: `+1`, `-0` (sign kept), `.5`, `5.`, `1E5` and
///     `00012` are read, subnormals such as `1e-40` keep their bits, and a
///     value below half the smallest subnormal (`1e-46`) reads as a zero
///     of its sign;
///   - refused: `+-1`, an exponent marker with no digits after it (`1e`,
///     `1.5e`), `inf`, `nan` and every other word, and any value that
///     overflows float (`1e39`, `3.4028236e38`). Hexadecimal is not read:
///     `0x10` is the value 0 followed by the token `x10`.
/// A refusal leaves the module unchanged, and the optional `why` receives
/// the reason: the tensor index and what was expected and found.
/// `load_parameters` reads at most `parameters_file_bound(module)` bytes of
/// the file and refuses a longer file (or an endless one, such as
/// /dev/zero) once it has read that many.

#include <cstddef>
#include <string>

#include "nn/layers.hpp"

namespace ns::nn {

/// Serializes all parameters of `module` to a string.
std::string parameters_to_string(Module& module);

/// Restores parameters from `text` under the reader contract above.
/// Returns false, leaving the module unchanged and the reason in `*why`
/// (when given), on a syntax or shape mismatch.
bool parameters_from_string(Module& module, const std::string& text,
                            std::string* why = nullptr);

/// The most bytes `load_parameters` reads for `module`: 64 for every value
/// and every tensor it expects, plus 4 KiB. That is four times the longest
/// text the writer emits (16 bytes per value), so every file the writer
/// makes loads.
std::size_t parameters_file_bound(Module& module);

/// Writes `module` to `path`. Refuses (false, no file created, the tensor
/// named in `*why`) when a parameter is not finite, since the reader could
/// not load it back; also false when the file cannot be written.
bool save_parameters(Module& module, const std::string& path,
                     std::string* why = nullptr);

/// Reads `path` (at most `parameters_file_bound(module)` bytes of it) and
/// restores `module` from it; false, with `*why`, on an I/O failure, a file
/// past the bound, or any refusal of `parameters_from_string`.
bool load_parameters(Module& module, const std::string& path,
                     std::string* why = nullptr);

}  // namespace ns::nn
