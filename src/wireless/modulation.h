// Modulation schemes used by the paper (BPSK, QPSK, 16-QAM, 64-QAM) with the
// bit <-> amplitude maps required by the QuAMax ML-to-QUBO transform [29].
//
// Each complex symbol carries `bits_per_symbol` bits, split evenly across the
// I and Q dimensions (BPSK is real-only).  Within one dimension carrying k
// bits, the *natural linear* map
//     amplitude(b_1..b_k) = sum_j 2^{k-j} * (2 b_j - 1)
// produces the odd PAM lattice {-(2^k - 1), ..., -1, +1, ..., +(2^k - 1)}.
// This map is linear in the bits, which is exactly what keeps the maximum-
// likelihood objective quadratic (a QUBO) after expansion; a Gray map, while
// standard for BER, is non-linear in the bits, so the transform layer uses
// the natural map and Gray utilities are provided separately for BER work.
#ifndef HCQ_WIRELESS_MODULATION_H
#define HCQ_WIRELESS_MODULATION_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace hcq::wireless {

using linalg::cxd;

/// Modulations evaluated in the paper (Section 4.2).
enum class modulation { bpsk, qpsk, qam16, qam64 };

/// All supported modulations, in paper order.
[[nodiscard]] const std::vector<modulation>& all_modulations();

/// "BPSK", "QPSK", "16-QAM", "64-QAM".
[[nodiscard]] std::string to_string(modulation mod);

/// Parses the names above plus the CLI-friendly aliases "bpsk", "qpsk",
/// "qam16"/"16qam", "qam64"/"64qam"; throws std::invalid_argument otherwise.
[[nodiscard]] modulation parse_modulation(const std::string& name);

/// Bits carried per complex symbol: 1, 2, 4, 6.
[[nodiscard]] std::size_t bits_per_symbol(modulation mod) noexcept;

/// Bits per I (or Q) dimension: 1, 1, 2, 3.  BPSK uses only the I dimension.
[[nodiscard]] std::size_t bits_per_dimension(modulation mod) noexcept;

/// True when the modulation uses the Q dimension (everything except BPSK).
[[nodiscard]] bool uses_quadrature(modulation mod) noexcept;

/// Mean symbol energy of the unnormalised lattice (e.g. 16-QAM: 10).
[[nodiscard]] double mean_symbol_energy(modulation mod) noexcept;

/// Natural-map PAM amplitude for one dimension; bits.size() == k.
[[nodiscard]] double pam_amplitude(std::span<const std::uint8_t> bits);

/// Inverse of pam_amplitude after slicing `value` to the nearest odd lattice
/// point in {-(2^k-1), ..., (2^k-1)}.
[[nodiscard]] std::vector<std::uint8_t> pam_bits(double value, std::size_t k);

/// Maps bits_per_symbol(mod) bits to one complex symbol (natural map,
/// I bits first, then Q bits).
[[nodiscard]] cxd modulate_symbol(modulation mod, std::span<const std::uint8_t> bits);

/// Hard nearest-lattice demap of one complex symbol back to bits.
[[nodiscard]] std::vector<std::uint8_t> demodulate_symbol(modulation mod, cxd symbol);

/// Full constellation (size 2^bits_per_symbol), indexed by the natural-map
/// bit pattern read MSB-first.
[[nodiscard]] std::vector<cxd> constellation(modulation mod);

/// Maps a bit vector (num_symbols * bits_per_symbol entries) to symbols.
[[nodiscard]] linalg::cvec modulate(modulation mod, std::span<const std::uint8_t> bits);

/// Hard-demaps a symbol vector to bits.
[[nodiscard]] std::vector<std::uint8_t> demodulate(modulation mod, const linalg::cvec& symbols);

// Write-into forms for the detection hot path: bits land in caller-owned
// storage so repeated calls allocate nothing after warm-up.  pam_bits,
// demodulate_symbol, modulate and demodulate above run these on a fresh
// buffer.

/// pam_bits written to out[0..k).
void pam_bits_into(double value, std::size_t k, std::uint8_t* out);

/// demodulate_symbol written to out[0..bits_per_symbol(mod)).
void demodulate_symbol_into(modulation mod, cxd symbol, std::uint8_t* out);

/// modulate into a reused symbol vector.
void modulate_into(modulation mod, std::span<const std::uint8_t> bits, linalg::cvec& out);

/// demodulate into a reused bit vector.
void demodulate_into(modulation mod, const linalg::cvec& symbols, std::vector<std::uint8_t>& out);

/// Gray code utilities (for BER-oriented labelling experiments; the QUBO
/// transform itself uses the natural map above).
[[nodiscard]] std::uint32_t gray_encode(std::uint32_t value) noexcept;
[[nodiscard]] std::uint32_t gray_decode(std::uint32_t value) noexcept;

}  // namespace hcq::wireless

#endif  // HCQ_WIRELESS_MODULATION_H
