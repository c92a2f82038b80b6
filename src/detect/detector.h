// Common interface for classical MIMO detectors.
//
// These serve two roles in the paper's architecture: (a) baselines, and
// (b) candidate *classical initialisers* for the hybrid reverse-annealing
// design (Section 5 names linear solvers and tree-search solvers as the
// natural next step beyond greedy search).
#ifndef HCQ_DETECT_DETECTOR_H
#define HCQ_DETECT_DETECTOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "wireless/mimo.h"

namespace hcq::detect {

/// Outcome of one detection run.
struct detection_result {
    linalg::cvec symbols;                ///< detected symbol vector (lattice points)
    std::vector<std::uint8_t> bits;      ///< natural-map bits of `symbols`
    double ml_cost = 0.0;                ///< ||y - H x_hat||^2
    std::size_t nodes_visited = 0;       ///< tree nodes expanded (0 for linear detectors)
    double elapsed_us = 0.0;             ///< wall-clock compute time
};

/// Reusable per-worker detection scratch (detect/scratch.h): decomposition
/// caches plus resize-in-place buffers shared by the built-in detectors.
struct detect_scratch;

/// Abstract detector.
class detector {
public:
    virtual ~detector() = default;

    /// Runs detection on one instance: detect_into() on fresh scratch and a
    /// fresh result, so every call allocates.  Hot paths call detect_into().
    [[nodiscard]] detection_result detect(const wireless::mimo_instance& instance) const;

    /// Detection into a reused result through caller-owned scratch.  Each
    /// detector reuses `scratch`'s buffers and decomposition caches, so a
    /// warmed-up call allocates nothing.  The result is independent of what
    /// `scratch` and `out` held before (elapsed_us and other timing fields
    /// are wall time and vary).
    virtual void detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                             detection_result& out) const = 0;

    /// Short identifier used in bench output (e.g. "ZF", "SD").
    [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_DETECTOR_H
