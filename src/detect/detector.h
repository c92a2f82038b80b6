// Common interface for classical MIMO detectors.
//
// These serve two roles in the paper's architecture: (a) baselines, and
// (b) candidate *classical modules* for the hybrid reverse-annealing
// design (Section 5 names linear solvers and tree-search solvers as the
// natural next step beyond greedy search).
#ifndef HCQ_DETECT_DETECTOR_H
#define HCQ_DETECT_DETECTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "wireless/mimo.h"

namespace hcq::detect {

/// Outcome of one allocating detection run.
struct detection_result {
    std::vector<std::uint8_t> bits;  ///< natural-map bits of the detected symbols
    double ml_cost = 0.0;            ///< ||y - H x_hat||^2
};

/// Reusable per-worker detection scratch (detect/scratch.h): decomposition
/// buffers shared by the built-in detectors, including the detected symbol
/// vector.
struct detect_scratch;

/// Abstract detector.
class detector {
public:
    virtual ~detector() = default;

    /// Runs detection on one instance: detect_into() on fresh scratch and a
    /// fresh result, so every call allocates.  Hot paths call detect_into().
    [[nodiscard]] detection_result detect(const wireless::mimo_instance& instance) const;

    /// Detects one instance into `bits` (a reused buffer) through
    /// caller-owned scratch and returns the ML cost of the detected word.
    /// Each detector reuses `scratch`'s buffers, so a warmed-up call
    /// allocates nothing, and the answer is independent of what `scratch`
    /// and `bits` held before.  Callers that want the cost of the call time
    /// it themselves.
    virtual double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                               std::vector<std::uint8_t>& bits) const = 0;

    /// Short identifier used in bench output (e.g. "ZF", "SD").
    [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_DETECTOR_H
