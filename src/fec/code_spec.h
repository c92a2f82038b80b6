// Forward-error-correction selection by spec string — the coding-side twin
// of wireless::channel_spec and paths::path_spec.
//
// A code_spec names a convolutional-code kind plus its knobs in the shared
// `kind:key=value,...` grammar (util/spec.h):
//
//     "k7"                      NASA-standard K=7 code, rate 1/2,
//                               16x8 block interleaver (the default)
//     "k7:interleave=16x8"      same, fully explicit (canonical form)
//     "k5:interleave=8x8"       K=5 code over an 8x8 interleaver
//     "k3:interleave=4x8"       toy K=3 code (fast tests)
//
// The kinds are terminated rate-1/2 convolutional codes named by their
// constraint length K (generator polynomials, octal): k3 = (7, 5),
// k5 = (23, 35), k7 = (133, 171).  `interleave=RxC` sets the row/column
// block interleaver dimensions; one CODED frame is rows x cols bits, so the
// frame carries rows*cols/2 - (K-1) information bits (the K-1 tail bits
// terminate the trellis).
//
// Errors come from util::spec: an unknown kind lists the valid kinds, an
// unknown key lists the accepted keys, and a bad value names the key, the
// offending value and the accepted form.
#ifndef HCQ_FEC_CODE_SPEC_H
#define HCQ_FEC_CODE_SPEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hcq::fec {

/// A parsed FEC specification.  Defaults are the `k7` defaults.
struct code_spec {
    std::string kind = "k7";  ///< k3 | k5 | k7

    std::size_t rows = 16;     ///< interleaver rows
    std::size_t cols = 8;      ///< interleaver columns

    /// Parses `kind` or `kind:key=value,...`.  Throws std::invalid_argument
    /// with a self-documenting message on an unknown kind (listing kinds()),
    /// an unknown or duplicate key, a malformed value, or an interleaver with
    /// an odd bit count or too small to carry one information bit.
    [[nodiscard]] static code_spec parse(const std::string& text);

    /// Canonical text form with every accepted key explicit (so "k7" and
    /// "k7:interleave=16x8" canonicalise identically): "k7:interleave=16x8".
    [[nodiscard]] std::string to_string() const;

    /// Constraint length K of the kind (3, 5, or 7).
    [[nodiscard]] std::size_t constraint_length() const;

    /// Generator polynomials of the kind, octal-literal convention
    /// (LSB = newest input bit), one per coded bit of a branch.
    [[nodiscard]] std::vector<std::uint32_t> generators() const;

    /// Coded bits per frame: rows * cols (one full interleaver block).
    [[nodiscard]] std::size_t coded_bits() const noexcept { return rows * cols; }

    /// Information bits per frame: coded_bits/2 minus the K-1 termination
    /// tail.
    [[nodiscard]] std::size_t info_bits() const {
        return coded_bits() / 2 - (constraint_length() - 1);
    }

    /// All code kinds, sorted — the error-message and help listing.
    [[nodiscard]] static std::vector<std::string> kinds();

    /// Multi-line human-readable listing of kinds and keys (CLI --help body).
    [[nodiscard]] static std::string help();
};

}  // namespace hcq::fec

#endif  // HCQ_FEC_CODE_SPEC_H
