// Per-worker detection scratch: one arena serving every built-in detector.
//
// The detection hot path used to allocate per call — QR intermediates,
// QUBO reduction temporaries, beam copies, symbol vectors.  detect_scratch
// gathers all of those into one reusable object: each detector's
// detect_into override touches only the members it needs and every buffer
// is resized in place (capacity-reusing) and fully rewritten per use.  A
// warmed-up scratch makes the built-in detectors allocation-free per use.
//
// Ownership: one detect_scratch per worker (see paths/workspace.h), never
// shared concurrently.  Nothing in here affects detection OUTPUTS — the
// golden link statistics are independent of which worker's scratch serves
// a use, which tests/workspace_test.cpp pins.
#ifndef HCQ_DETECT_SCRATCH_H
#define HCQ_DETECT_SCRATCH_H

#include <cstddef>
#include <vector>

#include "detect/detector.h"
#include "detect/linear.h"
#include "detect/real_model.h"
#include "detect/transform.h"
#include "linalg/decompose.h"
#include "linalg/matrix.h"

namespace hcq::detect {

struct detect_scratch {
    qubo_scratch qubo;        ///< QuAMax reduction buffers + cached A matrix
    linear_scratch linear;    ///< ZF / MMSE factorisation buffers
    lattice_scratch lattice;  ///< real-lattice model + tree buffers

    // SIC per-iteration state.
    linalg::ls_scratch<linalg::cxd> ls;  ///< least squares on the restricted channel
    linalg::cmat h_sub;                  ///< channel restricted to remaining streams
    linalg::cvec sic_residual;           ///< interference-cancelled observation
    linalg::cvec soft;                   ///< equalised estimates
    std::vector<std::size_t> remaining;  ///< undetected stream ids

    linalg::cvec symbols;   ///< detected symbols; ml_cost_bits symbol buffer
    linalg::cvec residual;  ///< ml_cost residual buffer
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_SCRATCH_H
