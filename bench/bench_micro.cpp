// Kernel micro-benchmarks (google-benchmark): the per-operation costs that
// determine how many emulated anneal reads per second the library sustains,
// plus the classical detectors' costs (relevant to Section 5's classical-
// initialiser tradeoff), synthesis and stream derivation, and the coded
// link's soft chain (soft output and Viterbi).  Every kernel the link hot
// path runs is timed in its warm-scratch `_into` form.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "classical/greedy.h"
#include "classical/metropolis.h"
#include "classical/solver.h"
#include "core/device.h"
#include "core/experiment.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/scratch.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "fec/code_spec.h"
#include "fec/codec.h"
#include "linalg/matrix.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "qubo/generator.h"
#include "util/rng.h"
#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"
#include "wireless/soft.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace wl = hcq::wireless;

const hy::experiment_instance& instance32() {
    static const hy::experiment_instance e = [] {
        hcq::util::rng rng(7);
        return hy::make_paper_instance(rng, 8, wl::modulation::qam16);
    }();
    return e;
}

void bm_qubo_energy(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    const auto bits = rng.bits(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.energy(bits));
    }
}
BENCHMARK(bm_qubo_energy)->Arg(16)->Arg(36)->Arg(64);

void bm_flip_delta(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    const auto bits = rng.bits(n);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.flip_delta(i, bits));
        i = (i + 1) % n;
    }
}
BENCHMARK(bm_flip_delta)->Arg(36)->Arg(64);

/// One sweep as the solvers run it: a read's sweeps share one draw cursor.
void bm_metropolis_sweep(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    hcq::solvers::metropolis_engine engine(q, rng.bits(n));
    hcq::solvers::draw_cursor draws(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.sweep(0.5, draws));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(bm_metropolis_sweep)->Arg(16)->Arg(36)->Arg(64);

void bm_greedy_search(benchmark::State& state) {
    const auto& e = instance32();
    hcq::util::rng rng(11);
    const hcq::solvers::greedy_search gs;
    hcq::solvers::solve_scratch scratch;
    hcq::qubo::bit_vector bits;
    (void)gs.solve_best_into(e.reduced.model, rng, scratch, bits);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gs.solve_best_into(e.reduced.model, rng, scratch, bits));
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_greedy_search);

void bm_ml_to_qubo_transform(benchmark::State& state) {
    const auto& e = instance32();
    hcq::detect::qubo_scratch scratch;
    hcq::detect::ml_qubo mq;
    hcq::detect::ml_to_qubo_into(e.instance, scratch, mq);
    for (auto _ : state) {
        hcq::detect::ml_to_qubo_into(e.instance, scratch, mq);
        benchmark::DoNotOptimize(&mq);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_ml_to_qubo_transform);

/// Times one anneal_once_into read of `schedule`, programmed once, on the
/// 32-variable instance; `initial` is null for forward schedules.
void run_anneal_read(benchmark::State& state, const an::anneal_schedule& schedule,
                     const hcq::qubo::bit_vector* initial) {
    const auto& e = instance32();
    const an::annealer_emulator device;
    const an::anneal_program program = device.program(schedule);
    hcq::util::rng rng(13);
    hcq::solvers::solve_scratch scratch;
    hcq::qubo::bit_vector read;
    device.anneal_once_into(e.reduced.model, program, rng, initial, scratch, read);
    for (auto _ : state) {
        device.anneal_once_into(e.reduced.model, program, rng, initial, scratch, read);
        benchmark::DoNotOptimize(read.data());
        benchmark::ClobberMemory();
    }
}

void bm_anneal_read_ra(benchmark::State& state) {
    run_anneal_read(state, an::anneal_schedule::reverse(0.45, 1.0), &instance32().optimal_bits);
}
BENCHMARK(bm_anneal_read_ra);

void bm_anneal_read_fa(benchmark::State& state) {
    run_anneal_read(state, an::anneal_schedule::forward(1.0, 0.41, 1.0), nullptr);
}
BENCHMARK(bm_anneal_read_fa);

/// The per-use stream derivation every synthesis, solve cell and anneal
/// read starts from.
void bm_rng_derive(benchmark::State& state) {
    const hcq::util::rng base(29);
    std::uint64_t id = 0;
    for (auto _ : state) benchmark::DoNotOptimize(base.derive(id++));
}
BENCHMARK(bm_rng_derive);

/// One draw through operator(): a scalar block per two draws.
void bm_rng_draw(benchmark::State& state) {
    hcq::util::rng rng(37);
    for (auto _ : state) benchmark::DoNotOptimize(rng());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_rng_draw);

/// Draws through fill() in runs of range(0): 64 is a draw_cursor's chunk,
/// 16 one sweep's worth on the link's 4x4 16-QAM QUBO.
void bm_rng_fill(benchmark::State& state) {
    hcq::util::rng rng(37);
    std::vector<hcq::util::rng::result_type> draws(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        rng.fill(draws);
        benchmark::DoNotOptimize(draws.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_rng_fill)->Arg(16)->Arg(64);

/// One 4x4 16-QAM use synthesised from the i.i.d. Rayleigh process at
/// 16 dB, as link and serve run it, into a warm instance (the i.i.d.
/// process ignores the use time).
void bm_synthesize_use(benchmark::State& state) {
    wl::mimo_config mimo;
    mimo.mod = wl::modulation::qam16;
    mimo.num_users = 4;
    mimo.num_antennas = 4;
    mimo.noise_variance = wl::noise_variance_for_snr(mimo.mod, 4, 16.0);
    hcq::util::rng rng(31);
    const auto process =
        wl::make_channel_process(wl::channel_spec::parse("rayleigh"), 4, 4, rng);
    wl::mimo_instance inst;
    wl::synthesize_at_coded_into(rng, mimo, *process, 0.0, 0.0, {}, inst);
    for (auto _ : state) {
        wl::synthesize_at_coded_into(rng, mimo, *process, 0.0, 0.0, {}, inst);
        benchmark::DoNotOptimize(inst.y.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_synthesize_use);

/// H(t) alone: the 4x4 Jakes sum-of-sinusoids process (16 sinusoids per
/// entry, 5 Hz at 1000 uses/s) at a new use time each iteration.
void bm_channel_at_jakes(benchmark::State& state) {
    const auto process = wl::make_channel_process(
        wl::channel_spec::parse("jakes:doppler_hz=5,sinusoids=16"), 4, 4, hcq::util::rng(31));
    hcq::util::rng unused(32);
    hcq::linalg::cmat h;
    process->at_into(0.0, unused, h);
    double t = 0.0;
    for (auto _ : state) {
        process->at_into(t, unused, h);
        t += 1.0;
        benchmark::DoNotOptimize(h.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_channel_at_jakes);

/// One 4x4 16-QAM use at 16 dB on link_coded_arq's channel
/// (jakes:doppler_hz=5,est_err=0.02): H(t), the tx bits, AWGN and the
/// pilot-estimation error, at a new use time each iteration.
void bm_synthesize_use_jakes(benchmark::State& state) {
    wl::mimo_config mimo;
    mimo.mod = wl::modulation::qam16;
    mimo.num_users = 4;
    mimo.num_antennas = 4;
    mimo.noise_variance = wl::noise_variance_for_snr(mimo.mod, 4, 16.0);
    const auto spec = wl::channel_spec::parse("jakes:doppler_hz=5,est_err=0.02");
    const auto process = wl::make_channel_process(spec, 4, 4, hcq::util::rng(31));
    hcq::util::rng rng(33);
    wl::mimo_instance inst;
    wl::synthesize_at_coded_into(rng, mimo, *process, 0.0, spec.est_err, {}, inst);
    double t = 0.0;
    for (auto _ : state) {
        wl::synthesize_at_coded_into(rng, mimo, *process, t, spec.est_err, {}, inst);
        t += 1.0;
        benchmark::DoNotOptimize(inst.y.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_synthesize_use_jakes);

/// Times `det.detect_into` with a scratch warmed by one untimed call.
template <typename Detector>
void run_detector(benchmark::State& state, const Detector& det) {
    const auto& e = instance32();
    hcq::detect::detect_scratch scratch;
    std::vector<std::uint8_t> bits;
    (void)det.detect_into(e.instance, scratch, bits);
    for (auto _ : state) {
        benchmark::DoNotOptimize(det.detect_into(e.instance, scratch, bits));
        benchmark::ClobberMemory();
    }
}

void bm_detector_zf(benchmark::State& state) { run_detector(state, hcq::detect::zf_detector{}); }
BENCHMARK(bm_detector_zf);

void bm_detector_kbest8(benchmark::State& state) {
    run_detector(state, hcq::detect::kbest_detector(8));
}
BENCHMARK(bm_detector_kbest8);

void bm_detector_sphere_noiseless(benchmark::State& state) {
    run_detector(state, hcq::detect::sphere_detector{});
}
BENCHMARK(bm_detector_sphere_noiseless);

/// A 4x4 16-QAM Rayleigh use at 16 dB, the coded link's default geometry.
const wl::mimo_instance& link_use() {
    static const wl::mimo_instance inst = [] {
        wl::mimo_config mimo;
        mimo.mod = wl::modulation::qam16;
        mimo.num_users = 4;
        mimo.num_antennas = 4;
        mimo.noise_variance = wl::noise_variance_for_snr(mimo.mod, 4, 16.0);
        hcq::util::rng rng(17);
        return wl::synthesize(rng, mimo);
    }();
    return inst;
}

/// Times a path's soft_output after one run and one untimed soft_output
/// have warmed the workspace and the result's LLR vector.
void run_soft_output(benchmark::State& state, const char* spec) {
    const auto path = hcq::paths::registry::make(spec);
    hcq::paths::workspace ws;
    hcq::util::rng rng(19);
    const hcq::paths::path_context ctx{link_use(), nullptr, rng, &ws};
    hcq::paths::path_result result = path->run(ctx);
    path->soft_output(ctx, result);
    for (auto _ : state) {
        path->soft_output(ctx, result);
        benchmark::DoNotOptimize(result.llrs.data());
        benchmark::ClobberMemory();
    }
}

void bm_soft_output_zf(benchmark::State& state) { run_soft_output(state, "zf"); }
BENCHMARK(bm_soft_output_zf);

void bm_soft_output_mmse(benchmark::State& state) { run_soft_output(state, "mmse"); }
BENCHMARK(bm_soft_output_mmse);

/// The single-bit-flip recost LLRs of the tree-search and QUBO paths.
void bm_soft_output_kbest(benchmark::State& state) { run_soft_output(state, "kbest"); }
BENCHMARK(bm_soft_output_kbest);

/// k7 decode_frame cycling over 256 distinct noisy frames (BPSK-over-AWGN
/// LLRs at Eb/N0 about 3 dB): one repeated frame would let the branch
/// predictor learn its trellis decisions and understate the cost.
void bm_decode_frame_k7(benchmark::State& state) {
    constexpr std::size_t frames = 256;
    hcq::fec::codec codec(hcq::fec::code_spec::parse("k7"));
    hcq::util::rng rng(23);
    const double sigma = 0.7;
    std::vector<std::vector<double>> llrs(frames, std::vector<double>(codec.coded_bits()));
    std::vector<std::uint8_t> coded;
    for (auto& frame : llrs) {
        codec.encode_frame(rng.bits(codec.info_bits()), coded);
        for (std::size_t i = 0; i < coded.size(); ++i) {
            const double y = (coded[i] == 0 ? 1.0 : -1.0) + sigma * rng.normal();
            frame[i] = wl::clamp_llr(2.0 * y / (sigma * sigma));
        }
    }
    std::vector<std::uint8_t> decoded;
    codec.decode_frame(llrs[0], decoded);
    std::size_t f = 0;
    for (auto _ : state) {
        codec.decode_frame(llrs[f], decoded);
        benchmark::DoNotOptimize(decoded.data());
        benchmark::ClobberMemory();
        f = (f + 1) % frames;
    }
}
BENCHMARK(bm_decode_frame_k7);

}  // namespace

BENCHMARK_MAIN();
