// Plain-text QUBO (de)serialisation so problems can be exchanged with other
// tooling or archived alongside experiment outputs.
//
// Format ("hcq-qubo v1"):
//     # comment lines allowed anywhere
//     hcq-qubo v1
//     n <num_variables> offset <offset>
//     <i> <j> <coefficient>        (one line per nonzero term, i <= j)
#ifndef HCQ_QUBO_SERIALIZE_H
#define HCQ_QUBO_SERIALIZE_H

#include <cstddef>
#include <iosfwd>
#include <string>

#include "qubo/model.h"

namespace hcq::qubo {

/// Writes `q` in the v1 text format.
void write_qubo(std::ostream& os, const qubo_model& q);

/// Largest variable count read_qubo accepts.  The biggest model the library
/// builds has 384 variables (64 users x 64-QAM); a size line above the cap
/// is malformed input, not a request for a dense model of n * n doubles.
inline constexpr std::size_t max_read_variables = 4096;

/// Parses the v1 text format; throws std::invalid_argument on malformed
/// input (bad header, a size above max_read_variables, indices out of
/// range, duplicate terms).
[[nodiscard]] qubo_model read_qubo(std::istream& is);

/// Convenience round-trips through strings.
[[nodiscard]] std::string to_string(const qubo_model& q);
[[nodiscard]] qubo_model from_string(const std::string& text);

}  // namespace hcq::qubo

#endif  // HCQ_QUBO_SERIALIZE_H
