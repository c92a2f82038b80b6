// Quickstart: detect one uplink MU-MIMO frame with the paper's hybrid
// classical-quantum structure.
//
//   1. synthesise a 4-user 16-QAM channel use (paper Section 4.2 recipe);
//   2. reduce maximum-likelihood detection to a QUBO (QuAMax transform);
//   3. run the classical module (greedy search);
//   4. refine on the emulated quantum annealer with reverse annealing;
//   5. decode the best sample back to symbols/bits.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "classical/greedy.h"
#include "core/device.h"
#include "core/hybrid_solver.h"
#include "core/schedule.h"
#include "detect/transform.h"
#include "metrics/delta_e.h"
#include "util/rng.h"
#include "wireless/mimo.h"

int main() {
    using namespace hcq;

    // 1. A channel use: 4 users, 16-QAM, unit-gain random-phase channel.
    util::rng rng(/*seed=*/2020);
    const wireless::mimo_instance frame =
        wireless::noiseless_paper_instance(rng, /*num_users=*/4, wireless::modulation::qam16);
    std::cout << "synthesised " << frame.num_users << "-user "
              << wireless::to_string(frame.mod) << " detection problem ("
              << frame.num_bits() << " QUBO variables)\n";

    // 2. ML -> QUBO.
    const detect::ml_qubo reduced = detect::ml_to_qubo(frame);

    // 3. The classical module: greedy search, timed.
    const solvers::greedy_search greedy;
    solvers::solution candidate = greedy.solve(reduced.model, rng);

    // 4. The quantum module: reverse annealing on the emulated device, every
    //    read seeded with the greedy answer.  The best read replaces
    //    candidate.bits only when its energy is strictly lower.
    const anneal::annealer_emulator device;  // the "QPU"
    const anneal::anneal_schedule schedule =
        anneal::anneal_schedule::reverse(/*s_p=*/0.37, /*t_p=*/1.0);
    const std::size_t num_reads = 200;
    solvers::solve_scratch scratch;
    const double best_energy =
        hybrid::refine_into(device, device.program(schedule), num_reads, reduced.model, rng,
                            scratch, candidate.bits, candidate.energy);

    const double truth_energy = reduced.model.energy(frame.tx_bits);
    std::cout << "greedy candidate:  Delta-E% = "
              << metrics::delta_e_percent(candidate.energy, truth_energy) << "\n"
              << "after " << num_reads << " reverse anneals: Delta-E% = "
              << metrics::delta_e_percent(best_energy, truth_energy) << "\n"
              << "classical time: " << candidate.elapsed_us
              << " us, programmed quantum time: "
              << schedule.duration_us() * static_cast<double>(num_reads) << " us\n";

    // 5. Decode.
    const linalg::cvec symbols = reduced.symbols(candidate.bits);
    std::cout << "detected symbols:";
    for (std::size_t u = 0; u < symbols.size(); ++u) {
        std::cout << "  (" << symbols[u].real() << (symbols[u].imag() < 0 ? "" : "+")
                  << symbols[u].imag() << "j)";
    }
    std::cout << "\nbits " << (candidate.bits == frame.tx_bits ? "MATCH" : "DIFFER FROM")
              << " the transmitted ground truth\n";
    return 0;
}
