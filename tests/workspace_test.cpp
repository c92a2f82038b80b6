// Golden statistics of the link simulator's frame chain.
//
// Every detection-domain statistic run_link_simulation reports — BER
// counters, exact frames, error bursts, summed ML cost, coded frame errors
// and info-bit errors, the five ARQ counters, and the retransmission count —
// is pinned.  The values were first recorded from the two-chain
// implementation at commit 9dd6fa7 (separate uncoded and coded
// retransmission chains, optional workspaces, exact-content decomposition
// caches), which the one frame chain reproduced exactly, and re-recorded
// once when util::rng moved to Philox4x32-10.  The values must hold at
// every thread count and stream block, under i.i.d. Rayleigh, correlated
// Jakes fading, and imperfect CSI: per-worker workspaces, the warm
// retransmission chain, and the pool's slot scheduling are pure performance
// changes, so any drift here is a behaviour change.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "arq/arq.h"
#include "fec/code_spec.h"
#include "link/link_sim.h"
#include "paths/registry.h"
#include "wireless/channel_spec.h"

namespace {

namespace lk = hcq::link;
namespace pt = hcq::paths;
namespace wl = hcq::wireless;

// Covers every hot-path family: linear (zf, mmse), tree search (kbest),
// QUBO sweep solvers (sa), and the hybrid (gsra).
lk::link_config base_config() {
    lk::link_config config;
    config.num_uses = 48;
    config.num_users = 2;
    config.mod = wl::modulation::qam16;
    config.snr_db = 14.0;
    config.paths = pt::parse_spec_list("zf,mmse,kbest,sa:reads=4,sweeps=40,gsra:reads=4");
    config.seed = 77;
    return config;
}

/// Hybrid ARQ on the coded link: the soft chain of the link_coded_arq
/// benchmark workload (4x4 16-QAM, slow fading with CSI error, k7), 16
/// frames of 8 uses.
lk::link_config coded_arq_config(const char* combining) {
    auto config = base_config();
    config.num_users = 4;
    config.num_uses = 128;
    config.paths = pt::parse_spec_list("mmse,kbest");
    config.fec = hcq::fec::code_spec::parse("k7");
    config.arq = hcq::arq::parse_arq(std::string("deadline_us=auto,max_retx=2,combining=") +
                                     combining);
    return config;
}

struct channel_case {
    const char* label;
    const char* spec;  // nullptr = i.i.d. Rayleigh from link_config::channel
};

constexpr channel_case kChannels[] = {
    {"rayleigh", nullptr},
    {"jakes", "jakes:doppler_hz=30"},
    {"imperfect-csi", "rayleigh:est_err=0.05"},
};

constexpr channel_case kCodedArqChannel[] = {
    {"jakes-csi", "jakes:doppler_hz=5,est_err=0.02"},
};

/// The same chain on i.i.d. fading, where a retransmission draws its own H
/// from its ARQ stream; only a correlated channel lets it reuse an H(t)
/// that its frame already holds.
constexpr channel_case kCodedArqIidChannel[] = {
    {"rayleigh", nullptr},
};

/// One path's statistics on one channel.  Coded and ARQ columns are 0 when
/// the config leaves FEC or ARQ off.
struct golden_row {
    const char* channel;  ///< channel_case label
    const char* path;     ///< display name
    std::uint64_t bit_errors;
    std::uint64_t bits;
    std::uint64_t exact_frames;
    std::uint64_t error_frames;
    std::uint64_t bursts;
    std::uint64_t longest_burst;
    std::uint64_t coded_frames;
    std::uint64_t frame_errors;
    std::uint64_t info_bit_errors;
    std::uint64_t arq_frames;
    std::uint64_t attempts;
    std::uint64_t wrong_attempts;
    std::uint64_t corrected_frames;
    std::uint64_t residual_errors;
    std::uint64_t retransmissions;  ///< arq_path_report::retx_service.count()
    double sum_ml_cost;
};

/// Integer statistics are exact; the summed double cost is compared to a
/// relative 1e-9 like link_test's goldens (identical operations on
/// identical inputs, with headroom for FMA contraction across compilers).
void expect_row(const lk::path_report& got, const golden_row& want) {
    EXPECT_EQ(got.ber.errors(), want.bit_errors);
    EXPECT_EQ(got.ber.total_bits(), want.bits);
    EXPECT_EQ(got.exact_frames, want.exact_frames);
    EXPECT_EQ(got.bursts.error_frames, want.error_frames);
    EXPECT_EQ(got.bursts.bursts, want.bursts);
    EXPECT_EQ(got.bursts.longest_burst, want.longest_burst);
    EXPECT_NEAR(got.sum_ml_cost, want.sum_ml_cost, 1e-9 * want.sum_ml_cost);
    ASSERT_EQ(got.fec.has_value(), want.coded_frames != 0);
    if (got.fec) {
        EXPECT_EQ(got.fec->frames, want.coded_frames);
        EXPECT_EQ(got.fec->frame_errors, want.frame_errors);
        EXPECT_EQ(got.fec->info_ber.errors(), want.info_bit_errors);
    }
    ASSERT_EQ(got.arq.has_value(), want.arq_frames != 0);
    if (got.arq) {
        EXPECT_EQ(got.arq->counters.frames, want.arq_frames);
        EXPECT_EQ(got.arq->counters.attempts, want.attempts);
        EXPECT_EQ(got.arq->counters.wrong_attempts, want.wrong_attempts);
        EXPECT_EQ(got.arq->counters.corrected_frames, want.corrected_frames);
        EXPECT_EQ(got.arq->counters.residual_errors, want.residual_errors);
        EXPECT_EQ(got.arq->retx_service.count(), want.retransmissions);
    }
}

/// Runs `config` on every channel at 1/2/8 threads x stream_block 64/4096
/// and checks every path against its golden row.
void run_matrix(lk::link_config config, std::span<const channel_case> channels,
                std::span<const golden_row> golden) {
    for (const auto& channel : channels) {
        config.channel_spec = channel.spec != nullptr
                                  ? std::optional(wl::channel_spec::parse(channel.spec))
                                  : std::nullopt;
        for (const std::size_t threads : {1UL, 2UL, 8UL}) {
            for (const std::size_t block : {64UL, 4096UL}) {
                config.num_threads = threads;
                config.stream_block = block;
                const auto report = lk::run_link_simulation(config);
                std::size_t checked = 0;
                for (const auto& row : golden) {
                    if (std::string_view(row.channel) != channel.label) continue;
                    SCOPED_TRACE(std::string(channel.label) + " " + row.path +
                                 " threads=" + std::to_string(threads) +
                                 " block=" + std::to_string(block));
                    expect_row(report.path(row.path), row);
                    ++checked;
                }
                EXPECT_EQ(checked, report.paths.size()) << channel.label;
            }
        }
    }
}

TEST(Workspace, OpenLoopStatisticsMatchGoldens) {
    const golden_row golden[] = {
        {"rayleigh", "ZF", 41, 384, 30, 18, 12, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 115.7930857023815},
        {"rayleigh", "MMSE", 57, 384, 21, 27, 13, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 116.24655241105607},
        {"rayleigh", "K-best", 35, 384, 36, 12, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         59.270458483117466},
        {"rayleigh", "SA", 46, 384, 34, 14, 9, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64.951790116146981},
        {"rayleigh", "GS+RA", 52, 384, 33, 15, 11, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 114.0526485593201},
        {"jakes", "ZF", 25, 384, 34, 14, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 87.525855243136235},
        {"jakes", "MMSE", 36, 384, 25, 23, 13, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 109.94891199042684},
        {"jakes", "K-best", 22, 384, 36, 12, 8, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 61.384293437934119},
        {"jakes", "SA", 24, 384, 36, 12, 7, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 62.892050096243047},
        {"jakes", "GS+RA", 42, 384, 31, 17, 7, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 78.192815938483861},
        {"imperfect-csi", "ZF", 89, 384, 13, 35, 11, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         284.66761724986458},
        {"imperfect-csi", "MMSE", 91, 384, 10, 38, 9, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         170.44312178363305},
        {"imperfect-csi", "K-best", 70, 384, 19, 29, 15, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         108.33613535326842},
        {"imperfect-csi", "SA", 72, 384, 18, 30, 14, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         119.10885432322711},
        {"imperfect-csi", "GS+RA", 85, 384, 14, 34, 12, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         123.06508320657224},
    };
    run_matrix(base_config(), kChannels, golden);
}

// Error-driven ARQ: a use retransmits only while its detected bits are
// wrong (the `auto` deadline affects only the timing-domain replay).
TEST(Workspace, ArqChainsMatchGoldens) {
    auto config = base_config();
    config.num_uses = 32;
    config.arq = hcq::arq::parse_arq("deadline_us=auto,max_retx=2");
    const golden_row golden[] = {
        {"rayleigh", "ZF", 28, 256, 20, 12, 7, 3, 0, 0, 0, 32, 51, 21, 10, 2, 19,
         86.924413876958553},
        {"rayleigh", "MMSE", 37, 256, 16, 16, 10, 3, 0, 0, 0, 32, 56, 28, 12, 4, 24,
         67.044473458644418},
        {"rayleigh", "K-best", 23, 256, 25, 7, 5, 3, 0, 0, 0, 32, 42, 10, 7, 0, 10,
         39.474331202343819},
        {"rayleigh", "SA", 29, 256, 24, 8, 6, 3, 0, 0, 0, 32, 45, 13, 8, 0, 13, 43.809930180220121},
        {"rayleigh", "GS+RA", 22, 256, 26, 6, 6, 1, 0, 0, 0, 32, 42, 10, 6, 0, 10,
         53.365977835678898},
        {"jakes", "ZF", 15, 256, 24, 8, 6, 2, 0, 0, 0, 32, 45, 14, 7, 1, 13, 57.285727315935169},
        {"jakes", "MMSE", 21, 256, 18, 14, 9, 3, 0, 0, 0, 32, 54, 26, 10, 4, 22,
         71.300682053459553},
        {"jakes", "K-best", 11, 256, 25, 7, 5, 3, 0, 0, 0, 32, 42, 11, 6, 1, 10,
         46.877774078303766},
        {"jakes", "SA", 10, 256, 26, 6, 4, 3, 0, 0, 0, 32, 41, 10, 5, 1, 9, 46.886836141938232},
        {"jakes", "GS+RA", 18, 256, 23, 9, 4, 4, 0, 0, 0, 32, 44, 13, 8, 1, 12, 58.060043350230423},
        {"imperfect-csi", "ZF", 56, 256, 9, 23, 7, 7, 0, 0, 0, 32, 72, 54, 9, 14, 40,
         103.55574159441794},
        {"imperfect-csi", "MMSE", 61, 256, 7, 25, 6, 7, 0, 0, 0, 32, 74, 55, 12, 13, 42,
         100.71120373161698},
        {"imperfect-csi", "K-best", 49, 256, 10, 22, 8, 4, 0, 0, 0, 32, 66, 44, 12, 10, 34,
         65.915725592195685},
        {"imperfect-csi", "SA", 43, 256, 10, 22, 8, 4, 0, 0, 0, 32, 68, 46, 12, 10, 36,
         71.202557341578057},
        {"imperfect-csi", "GS+RA", 45, 256, 10, 22, 8, 4, 0, 0, 0, 32, 68, 44, 14, 8, 36,
         72.190574289185008},
    };
    run_matrix(config, kChannels, golden);
}

// deadline_us=0: every use retransmits max_retx times whatever its bits,
// so every (use, attempt) stream is exercised.
TEST(Workspace, EveryUseRetransmitsMatchesGoldens) {
    auto config = base_config();
    config.num_uses = 32;
    config.arq = hcq::arq::parse_arq("deadline_us=0,max_retx=2");
    const golden_row golden[] = {
        {"rayleigh", "ZF", 28, 256, 20, 12, 7, 3, 0, 0, 0, 32, 96, 40, 8, 14, 64,
         86.924413876958553},
        {"rayleigh", "MMSE", 37, 256, 16, 16, 10, 3, 0, 0, 0, 32, 96, 40, 10, 10, 64,
         67.044473458644418},
        {"rayleigh", "K-best", 23, 256, 25, 7, 5, 3, 0, 0, 0, 32, 96, 21, 5, 5, 64,
         39.474331202343819},
        {"rayleigh", "SA", 29, 256, 24, 8, 6, 3, 0, 0, 0, 32, 96, 25, 7, 6, 64, 43.809930180220121},
        {"rayleigh", "GS+RA", 22, 256, 26, 6, 6, 1, 0, 0, 0, 32, 96, 29, 5, 8, 64,
         53.365977835678898},
        {"jakes", "ZF", 15, 256, 24, 8, 6, 2, 0, 0, 0, 32, 96, 27, 7, 8, 64, 57.285727315935169},
        {"jakes", "MMSE", 21, 256, 18, 14, 9, 3, 0, 0, 0, 32, 96, 37, 8, 10, 64,
         71.300682053459553},
        {"jakes", "K-best", 11, 256, 25, 7, 5, 3, 0, 0, 0, 32, 96, 18, 5, 5, 64,
         46.877774078303766},
        {"jakes", "SA", 10, 256, 26, 6, 4, 3, 0, 0, 0, 32, 96, 19, 4, 6, 64, 46.886836141938232},
        {"jakes", "GS+RA", 18, 256, 23, 9, 4, 4, 0, 0, 0, 32, 96, 21, 6, 6, 64, 58.060043350230423},
        {"imperfect-csi", "ZF", 56, 256, 9, 23, 7, 7, 0, 0, 0, 32, 96, 67, 6, 22, 64,
         103.55574159441794},
        {"imperfect-csi", "MMSE", 61, 256, 7, 25, 6, 7, 0, 0, 0, 32, 96, 66, 7, 20, 64,
         100.71120373161698},
        {"imperfect-csi", "K-best", 49, 256, 10, 22, 8, 4, 0, 0, 0, 32, 96, 55, 7, 19, 64,
         65.915725592195685},
        {"imperfect-csi", "SA", 43, 256, 10, 22, 8, 4, 0, 0, 0, 32, 96, 58, 7, 19, 64,
         71.202557341578057},
        {"imperfect-csi", "GS+RA", 45, 256, 10, 22, 8, 4, 0, 0, 0, 32, 96, 58, 9, 18, 64,
         72.190574289185008},
    };
    run_matrix(config, kChannels, golden);
}

// k7 open loop: 4 frames of 16 uses, judged by decoding their LLRs.
TEST(Workspace, CodedOpenLoopMatchesGoldens) {
    auto config = base_config();
    config.num_uses = 64;
    config.fec = hcq::fec::code_spec::parse("k7");
    const golden_row golden[] = {
        {"rayleigh", "ZF", 45, 512, 40, 24, 17, 6, 4, 0, 0, 0, 0, 0, 0, 0, 0, 182.1336157574122},
        {"rayleigh", "MMSE", 52, 512, 38, 26, 16, 7, 4, 0, 0, 0, 0, 0, 0, 0, 0, 115.35527906189208},
        {"rayleigh", "K-best", 29, 512, 50, 14, 11, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0,
         81.022633358264429},
        {"rayleigh", "SA", 36, 512, 46, 18, 12, 3, 4, 1, 2, 0, 0, 0, 0, 0, 0, 85.959369766098931},
        {"rayleigh", "GS+RA", 58, 512, 42, 22, 15, 4, 4, 4, 32, 0, 0, 0, 0, 0, 0,
         113.96262372792485},
        {"jakes", "ZF", 45, 512, 40, 24, 16, 4, 4, 1, 3, 0, 0, 0, 0, 0, 0, 194.63670125749238},
        {"jakes", "MMSE", 64, 512, 36, 28, 13, 6, 4, 0, 0, 0, 0, 0, 0, 0, 0, 133.24641309897979},
        {"jakes", "K-best", 45, 512, 46, 18, 14, 2, 4, 1, 26, 0, 0, 0, 0, 0, 0, 79.754999032450627},
        {"jakes", "SA", 42, 512, 47, 17, 14, 4, 4, 1, 19, 0, 0, 0, 0, 0, 0, 88.330296797877807},
        {"jakes", "GS+RA", 74, 512, 39, 25, 19, 3, 4, 4, 33, 0, 0, 0, 0, 0, 0, 106.88905020517544},
        {"imperfect-csi", "ZF", 99, 512, 19, 45, 14, 8, 4, 2, 45, 0, 0, 0, 0, 0, 0,
         298.94595005947809},
        {"imperfect-csi", "MMSE", 93, 512, 23, 41, 16, 10, 4, 2, 38, 0, 0, 0, 0, 0, 0,
         197.72568362825817},
        {"imperfect-csi", "K-best", 83, 512, 29, 35, 17, 6, 4, 2, 59, 0, 0, 0, 0, 0, 0,
         127.11083963803871},
        {"imperfect-csi", "SA", 98, 512, 23, 41, 15, 6, 4, 2, 57, 0, 0, 0, 0, 0, 0,
         139.42279564749848},
        {"imperfect-csi", "GS+RA", 101, 512, 25, 39, 15, 8, 4, 4, 67, 0, 0, 0, 0, 0, 0,
         169.79493387538761},
    };
    run_matrix(config, kChannels, golden);
}

TEST(Workspace, CodedChaseArqMatchesGoldens) {
    const golden_row golden[] = {
        {"jakes-csi", "MMSE", 342, 2048, 21, 107, 16, 35, 16, 8, 100, 16, 29, 16, 5, 3, 13,
         1921.8955350323106},
        {"jakes-csi", "K-best", 265, 2048, 57, 71, 31, 14, 16, 9, 132, 16, 29, 15, 7, 2, 13,
         888.49940700992647},
    };
    run_matrix(coded_arq_config("chase"), kCodedArqChannel, golden);
}

TEST(Workspace, CodedPlainArqMatchesGoldens) {
    const golden_row golden[] = {
        {"jakes-csi", "MMSE", 342, 2048, 21, 107, 16, 35, 16, 8, 100, 16, 30, 18, 4, 4, 14,
         1921.8955350323106},
        {"jakes-csi", "K-best", 265, 2048, 57, 71, 31, 14, 16, 9, 132, 16, 32, 20, 5, 4, 16,
         888.49940700992647},
    };
    run_matrix(coded_arq_config("plain"), kCodedArqChannel, golden);
}

TEST(Workspace, CodedChaseArqOnIidFadingMatchesGoldens) {
    // Recorded at a7d6bf4, before correlated channels reused H(t).
    const golden_row golden[] = {
        {"rayleigh", "MMSE", 344, 2048, 23, 105, 17, 13, 16, 4, 35, 16, 20, 4, 4, 0, 4,
         1487.583660428186},
        {"rayleigh", "K-best", 188, 2048, 72, 56, 32, 8, 16, 4, 91, 16, 20, 4, 4, 0, 4,
         678.01316702315171},
    };
    run_matrix(coded_arq_config("chase"), kCodedArqIidChannel, golden);
}

}  // namespace
