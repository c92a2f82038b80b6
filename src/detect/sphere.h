// Depth-first sphere decoder with Schnorr-Euchner enumeration — exact
// maximum-likelihood detection.
//
// Serves as the optimal-detector baseline the paper's ground truths are
// checked against, and as the "oracle" initial-state source for the
// initial-state-quality experiments (Figures 7 and 8).
#ifndef HCQ_DETECT_SPHERE_H
#define HCQ_DETECT_SPHERE_H

#include "detect/detector.h"

namespace hcq::detect {

/// Exact ML detector.  Worst-case exponential; fine at the paper's sizes
/// (up to ~16 users 16-QAM in noiseless channels).
class sphere_detector final : public detector {
public:
    /// A positive `initial_radius_sq` prunes the search from the start; 0
    /// (the default) leaves it unbounded.  When no lattice point lies inside
    /// the radius the search runs again unbounded, so the ML point is always
    /// found.
    explicit sphere_detector(double initial_radius_sq = 0.0);

    double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                       std::vector<std::uint8_t>& bits) const override;
    [[nodiscard]] std::string name() const override { return "SD"; }

private:
    double initial_radius_sq_;
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_SPHERE_H
