// Linear detectors: zero-forcing and MMSE.
//
// Section 5 of the paper singles out linear solvers ("e.g., zero-forcing") as
// likely-better reverse-annealing initialisers than greedy search at the cost
// of a matrix inversion.  Both detectors equalise then slice each stream to
// the nearest constellation point.
#ifndef HCQ_DETECT_LINEAR_H
#define HCQ_DETECT_LINEAR_H

#include "detect/detector.h"
#include "linalg/decompose.h"

namespace hcq::detect {

/// Reusable intermediates of the linear detectors, rewritten every call.
struct linear_scratch {
    // Zero-forcing: QR factors of H.
    linalg::ls_scratch<linalg::cxd> ls;

    // MMSE: Cholesky factor of H^H H + load I.
    linalg::cmat gram;  ///< H^H H + load I
    linalg::cmat lfac;  ///< Cholesky factor L
    linalg::cmat lh;    ///< L^H
    linalg::cvec rhs;   ///< H^H y
    linalg::cvec z;     ///< forward-substitution intermediate

    linalg::cvec soft;  ///< equalised symbol estimates before slicing
};

/// Zero-forcing: x_hat = slice(H^+ y) with H^+ the least-squares pseudo-inverse.
class zf_detector final : public detector {
public:
    double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                       std::vector<std::uint8_t>& bits) const override;
    [[nodiscard]] std::string name() const override { return "ZF"; }
};

/// Linear MMSE: x_hat = slice((H^H H + (sigma^2/E_s) I)^-1 H^H y).
/// With sigma^2 == 0 this degenerates to zero-forcing.
class mmse_detector final : public detector {
public:
    double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                       std::vector<std::uint8_t>& bits) const override;
    [[nodiscard]] std::string name() const override { return "MMSE"; }
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_LINEAR_H
