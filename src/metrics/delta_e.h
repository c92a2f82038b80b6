// The paper's solution-quality metric Delta-E% (Section 4.3).
//
// The paper prints  Delta-E% = 100 * (E_g - |E_s|) / E_g , which is not zero
// at the optimum for the strictly negative minima produced by the ML-to-QUBO
// reduction (at E_s = E_g < 0 it evaluates to 200%).  The evidently intended
// definition — the one matching every statement made about the metric
// ("Delta-E% = 0% indicates that the global optimum has been found", "lower
// Delta-E% means the closer gap") — is the normalised optimality gap
//     Delta-E% = 100 * (E_s - E_g) / |E_g|,
// which is what this library computes.  The deviation is deliberate; the
// deviations paragraph under docs/ARCHITECTURE.md's paper-to-code map lists
// it with the others.
#ifndef HCQ_METRICS_DELTA_E_H
#define HCQ_METRICS_DELTA_E_H

#include <cstddef>

namespace hcq::metrics {

/// Normalised optimality gap in percent; 0 iff the optimum was found.
/// Requires E_g != 0 and E_s >= E_g (up to numerical noise; small negative
/// gaps clamp to 0).  Throws std::invalid_argument for E_g == 0.
[[nodiscard]] double delta_e_percent(double sample_energy, double ground_energy);

/// Bin index for a Delta-E% value with the paper's bin width delta
/// (Figure 7 uses delta = 2%).
[[nodiscard]] std::size_t delta_e_bin(double delta_e, double bin_width_percent);

}  // namespace hcq::metrics

#endif  // HCQ_METRICS_DELTA_E_H
