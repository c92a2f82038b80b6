// Real-valued lattice model shared by the tree-search detectors.
//
// Quadrature modulations use the full real embedding (2m x 2n); BPSK, whose
// symbols are purely real, uses the thinner [Re H; Im H] stacking so that the
// search never visits imaginary dimensions that carry no bits.  After QR,
// detectors operate on  min_a ||y_eff - R a||^2  with `a` ranging over the
// per-dimension odd PAM lattice.
#ifndef HCQ_DETECT_REAL_MODEL_H
#define HCQ_DETECT_REAL_MODEL_H

#include <vector>

#include "detect/detector.h"
#include "linalg/decompose.h"
#include "linalg/matrix.h"
#include "wireless/mimo.h"

namespace hcq::detect {

/// QR-preprocessed real lattice problem.
struct real_model {
    linalg::rmat r;       ///< dims x dims upper triangular
    linalg::rvec y_eff;   ///< Q^T y_real
    std::vector<double> alphabet;  ///< shared per-dimension amplitudes (ascending)
    std::size_t dims = 0;          ///< real search dimensions
    std::size_t num_users = 0;
    wireless::modulation mod = wireless::modulation::bpsk;
    bool quadrature = false;
};

/// Reusable state of the tree-search detectors: the QR-preprocessed lattice
/// model plus the per-search traversal buffers, rewritten every use.
struct lattice_scratch {
    real_model model;

    // Model-building intermediates.
    linalg::rmat a_real;
    linalg::rvec y_real;
    linalg::qr_scratch<double> qr;
    linalg::qr_result<double> factors;

    // K-best beams, flattened: row b of a beam occupies
    // [b * dims, (b + 1) * dims) of beam_amps / next_amps.
    std::vector<double> beam_amps;
    std::vector<double> next_amps;
    /// One candidate child of the beam expansion: enough to reconstruct the
    /// amplitude row from its parent without copying whole paths around.
    struct expand_node {
        double cost = 0.0;
        std::size_t parent = 0;
        double amplitude = 0.0;
    };
    std::vector<expand_node> expanded;
    std::vector<double> beam_costs;  ///< accumulated cost per current beam row

    // Sphere / FCSD traversal state.
    std::vector<double> chosen;
    std::vector<double> best;
    std::vector<double> completed;
    std::vector<std::vector<double>> level_order;  ///< per-level SE orderings
};

/// Builds the model for one instance (QR of the embedded channel).
[[nodiscard]] real_model make_real_model(const wireless::mimo_instance& instance);

/// make_real_model into the scratch's buffers, returning the scratch-owned
/// model.
const real_model& make_real_model_into(const wireless::mimo_instance& instance,
                                       lattice_scratch& scratch);

/// Converts per-dimension amplitudes (model ordering: all I components, then
/// all Q components) into the detected symbols (scratch.symbols) and their
/// natural-map bits (into `bits`), and returns their ML cost for `instance`.
double assemble_result_into(const wireless::mimo_instance& instance,
                            const std::vector<double>& amplitudes, detect_scratch& scratch,
                            std::vector<std::uint8_t>& bits);

/// Slices a real value to the nearest alphabet amplitude.
[[nodiscard]] double slice_amplitude(double value, const std::vector<double>& alphabet);

}  // namespace hcq::detect

#endif  // HCQ_DETECT_REAL_MODEL_H
