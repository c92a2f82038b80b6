// Kernel micro-benchmarks (google-benchmark): the per-operation costs that
// determine how many emulated anneal reads per second the library sustains,
// plus the classical detectors' costs (relevant to Section 5's classical-
// initialiser tradeoff) and the coded link's soft chain (soft output and
// Viterbi).  Detectors and soft output run the warm-scratch forms the link
// hot path calls.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "classical/greedy.h"
#include "classical/metropolis.h"
#include "core/device.h"
#include "core/experiment.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/scratch.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "fec/code_spec.h"
#include "fec/codec.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "qubo/generator.h"
#include "util/rng.h"
#include "wireless/channel.h"
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

void bm_metropolis_sweep(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    hcq::solvers::metropolis_engine engine(q, rng.bits(n));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.sweep(0.5, rng));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(bm_metropolis_sweep)->Arg(16)->Arg(36)->Arg(64);

void bm_greedy_search(benchmark::State& state) {
    const auto& e = instance32();
    hcq::util::rng rng(11);
    const hcq::solvers::greedy_search gs;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gs.initialize(e.reduced.model, rng));
    }
}
BENCHMARK(bm_greedy_search);

void bm_ml_to_qubo_transform(benchmark::State& state) {
    const auto& e = instance32();
    for (auto _ : state) {
        benchmark::DoNotOptimize(hcq::detect::ml_to_qubo(e.instance));
    }
}
BENCHMARK(bm_ml_to_qubo_transform);

void bm_anneal_read_ra(benchmark::State& state) {
    const auto& e = instance32();
    const an::annealer_emulator device;
    const auto schedule = an::anneal_schedule::reverse(0.45, 1.0);
    hcq::util::rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            device.anneal_once(e.reduced.model, schedule, rng, e.optimal_bits));
    }
}
BENCHMARK(bm_anneal_read_ra);

void bm_anneal_read_fa(benchmark::State& state) {
    const auto& e = instance32();
    const an::annealer_emulator device;
    const auto schedule = an::anneal_schedule::forward(1.0, 0.41, 1.0);
    hcq::util::rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(device.anneal_once(e.reduced.model, schedule, rng));
    }
}
BENCHMARK(bm_anneal_read_fa);

/// Times `det.detect_into` with a scratch warmed by one untimed call.
template <typename Detector>
void run_detector(benchmark::State& state, const Detector& det) {
    const auto& e = instance32();
    hcq::detect::detect_scratch scratch;
    hcq::detect::detection_result result;
    det.detect_into(e.instance, scratch, result);
    for (auto _ : state) {
        det.detect_into(e.instance, scratch, result);
        benchmark::DoNotOptimize(result.bits.data());
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
