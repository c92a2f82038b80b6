// The annealer emulator — this library's substitute for the D-Wave 2000Q
// (its calibration is documented on annealer_config below, and the
// deviations paragraph under docs/ARCHITECTURE.md's paper-to-code map
// lists it among the deliberate departures from the paper).
//
// The device executes an anneal_schedule by integrating Metropolis
// single-spin-flip dynamics whose instantaneous temperature follows the
// schedule's fluctuation strength: at time t it runs one sweep at
// T(s(t)) = temperature_scale * max|Q| * f(s(t)), with `sweeps_per_us`
// sweeps per microsecond of programmed schedule time.  Consequences that
// mirror the physical device:
//   * a schedule starting at s = 0 begins from a uniformly random state
//     (measuring the fully quantum state returns a random bitstring);
//   * a schedule starting at s = 1 *requires* a programmed classical initial
//     state — reverse annealing's defining input;
//   * at s = 1 fluctuations vanish and the state is a frozen classical
//     register, which is what a read returns.
//
// Programming: f(s(t)) at each sweep's midpoint depends only on the schedule
// and the config, so program() evaluates it once into an anneal_program, a
// run-length-encoded table in which a pause of any length is one entry.
// The reused-buffer forms take a program, so a caller that anneals one
// schedule many times (the gsra path) programs it once; anneal_once and
// sample program per call.  A read scales the table by its problem's
// max|Q|, which sample() and sample_best_into() compute once per call, as
// they do the start state's energy and local fields when the reads share
// one start (a reverse schedule without control noise).  Every draw, flip
// and read is the same as sweeping s(t) directly.
#ifndef HCQ_CORE_DEVICE_H
#define HCQ_CORE_DEVICE_H

#include <cstddef>
#include <optional>
#include <vector>

#include "classical/sample_set.h"
#include "classical/solver.h"
#include "core/schedule.h"
#include "core/temperature.h"
#include "qubo/model.h"
#include "util/rng.h"

namespace hcq::anneal {

/// Emulated-device parameters.
struct annealer_config {
    /// Dynamics granularity: Metropolis sweeps per microsecond of schedule
    /// time.  Kept deliberately low — a ~1 us hardware anneal affords few
    /// thermal relaxation events, which is why hardware FA is weak; a large
    /// value here would turn every schedule into a competent simulated
    /// annealer and erase the hybrid advantage the paper measures.
    double sweeps_per_us = 24.0;
    /// Fluctuation-to-temperature scale relative to max|Q| (see
    /// core/temperature.h).  Calibrated against the barrier spectrum of the
    /// paper's 8-user 16-QAM QUBOs so the useful s_p window falls mid-range,
    /// as on hardware (see the deviations paragraph under
    /// docs/ARCHITECTURE.md's paper-to-code map, and the anneal-ablation
    /// bench).
    double temperature_scale = 0.006;
    /// Shape of the fluctuation map.
    temperature_map map{};
    /// Freezing: when T(s) drops below freeze_fraction * max|Q| the state is
    /// a frozen classical register and dynamics STOP (no moves at all).
    /// This mirrors the physical device — at s ~ 1 quantum fluctuations are
    /// suppressed and the register cannot even relax downhill.  Allowing
    /// zero-temperature descent here instead would hand every schedule a
    /// free local-search polish and erase the s_p dependence the paper
    /// measures (see the anneal-ablation bench, which quantifies exactly
    /// this design choice).
    double freeze_fraction = 0.002;
    /// Analog control error ("ICE" on D-Wave hardware): each programmed
    /// coefficient is independently perturbed per read by Gaussian noise of
    /// standard deviation control_noise * max|Q|.  0 disables.
    double control_noise = 0.0;
    /// Probability that each qubit's final read-out is flipped.  0 disables.
    double readout_flip_probability = 0.0;
};

/// A schedule as programmed into one device: the fluctuation f(s) at the
/// midpoint of every sweep, run-length encoded.
struct anneal_program {
    /// `sweeps` consecutive sweeps at fluctuation `fluctuation`.
    struct run {
        double fluctuation = 0.0;
        std::size_t sweeps = 0;
    };
    std::vector<run> runs;
    bool starts_classical = false;  ///< reads need a programmed initial state
};

/// Schedule-driven QUBO sampler emulating an analog quantum annealer.
class annealer_emulator {
public:
    explicit annealer_emulator(annealer_config config = {});

    /// One anneal, the allocating form of anneal_once_into: executes
    /// `schedule` and returns the measured state.  `initial` is required
    /// (non-nullopt) iff the schedule starts classical (reverse annealing).
    [[nodiscard]] qubo::bit_vector anneal_once(
        const qubo::qubo_model& q, const anneal_schedule& schedule, util::rng& rng,
        const std::optional<qubo::bit_vector>& initial = std::nullopt) const;

    /// num_reads independent anneals (each from the same initial state for
    /// reverse schedules, as on hardware).  Internally derives one RNG
    /// stream per read, so results are independent of read order; every
    /// read runs on one scratch per call.  Throws std::invalid_argument
    /// when `num_reads` is 0.
    [[nodiscard]] solvers::sample_set sample(
        const qubo::qubo_model& q, const anneal_schedule& schedule, std::size_t num_reads,
        util::rng& rng, const std::optional<qubo::bit_vector>& initial = std::nullopt) const;

    /// anneal_once into a reused buffer, executing a programmed schedule;
    /// `initial` may be nullptr for forward-start programs.  Uses
    /// scratch.engine and scratch.bits_a; with the default config (no
    /// control noise) a warmed-up call performs no allocations.
    void anneal_once_into(const qubo::qubo_model& q, const anneal_program& program,
                          util::rng& rng, const qubo::bit_vector* initial,
                          solvers::solve_scratch& scratch, qubo::bit_vector& out) const;

    /// sample() keeping only the winning read, written into `best` (reused
    /// buffer), returning its energy.  Identical RNG streams and identical
    /// selection to sample(...).best() — the first strictly-lowest read wins.
    /// With the default config a warmed-up call performs no allocations.
    /// Throws std::invalid_argument when `num_reads` is 0.
    double sample_best_into(const qubo::qubo_model& q, const anneal_program& program,
                            std::size_t num_reads, util::rng& rng,
                            const qubo::bit_vector* initial, solvers::solve_scratch& scratch,
                            qubo::bit_vector& best) const;

    /// Programs `schedule`: its per-sweep fluctuation table on this device.
    [[nodiscard]] anneal_program program(const anneal_schedule& schedule) const;

    /// Number of Metropolis sweeps a schedule maps to (>= 1).
    [[nodiscard]] std::size_t sweeps_for(const anneal_schedule& schedule) const;

    [[nodiscard]] const annealer_config& config() const noexcept { return config_; }

private:
    annealer_config config_;
};

}  // namespace hcq::anneal

#endif  // HCQ_CORE_DEVICE_H
