// Golden statistics of the link simulator's frame chain.
//
// Every detection-domain statistic run_link_simulation reports — BER
// counters, exact frames, error bursts, summed ML cost, coded frame errors
// and info-bit errors, the five ARQ counters, and the retransmission count —
// is pinned to values recorded from the two-chain implementation at commit
// 9dd6fa7 (separate uncoded and coded retransmission chains, optional
// workspaces, exact-content decomposition caches).  The values must hold at
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
        {"rayleigh", "ZF", 33, 384, 32, 16, 10, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 101.74330629310694},
        {"rayleigh", "MMSE", 23, 384, 34, 14, 12, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 85.785494937162937},
        {"rayleigh", "K-best", 26, 384, 37, 11, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         61.600388259924813},
        {"rayleigh", "SA", 30, 384, 35, 13, 11, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 67.092365795101514},
        {"rayleigh", "GS+RA", 44, 384, 33, 15, 10, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         95.680980097037178},
        {"jakes", "ZF", 31, 384, 32, 16, 10, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 130.4458856433406},
        {"jakes", "MMSE", 30, 384, 33, 15, 11, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 94.739424434802885},
        {"jakes", "K-best", 28, 384, 39, 9, 6, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 67.525819950981926},
        {"jakes", "SA", 26, 384, 38, 10, 6, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 74.345105784425044},
        {"jakes", "GS+RA", 33, 384, 37, 11, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 77.646199720569641},
        {"imperfect-csi", "ZF", 67, 384, 19, 29, 14, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         247.6157832313948},
        {"imperfect-csi", "MMSE", 48, 384, 23, 25, 13, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         164.24146989020818},
        {"imperfect-csi", "K-best", 47, 384, 25, 23, 14, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         110.51859034041772},
        {"imperfect-csi", "SA", 58, 384, 23, 25, 14, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         125.52676410141092},
        {"imperfect-csi", "GS+RA", 68, 384, 23, 25, 14, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         156.43426640915709},
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
        {"rayleigh", "ZF", 14, 256, 24, 8, 5, 3, 0, 0, 0, 32, 46, 16, 6, 2, 14, 52.827174386877537},
        {"rayleigh", "MMSE", 12, 256, 24, 8, 8, 1, 0, 0, 0, 32, 46, 18, 4, 4, 14,
         55.270975082804128},
        {"rayleigh", "K-best", 15, 256, 25, 7, 5, 3, 0, 0, 0, 32, 41, 10, 6, 1, 9,
         38.410596795433406},
        {"rayleigh", "SA", 19, 256, 24, 8, 6, 3, 0, 0, 0, 32, 43, 12, 7, 1, 11, 41.910066112571577},
        {"rayleigh", "GS+RA", 31, 256, 21, 11, 6, 4, 0, 0, 0, 32, 46, 16, 9, 2, 14,
         71.652179280234563},
        {"jakes", "ZF", 15, 256, 23, 9, 5, 3, 0, 0, 0, 32, 43, 12, 8, 1, 11, 89.774518798718319},
        {"jakes", "MMSE", 12, 256, 25, 7, 5, 2, 0, 0, 0, 32, 41, 10, 6, 1, 9, 64.127673364812082},
        {"jakes", "K-best", 8, 256, 29, 3, 2, 2, 0, 0, 0, 32, 37, 7, 1, 2, 5, 46.034410925193114},
        {"jakes", "SA", 10, 256, 28, 4, 3, 2, 0, 0, 0, 32, 38, 8, 2, 2, 6, 49.469493436022752},
        {"jakes", "GS+RA", 13, 256, 27, 5, 4, 2, 0, 0, 0, 32, 39, 8, 4, 1, 7, 48.561844798889865},
        {"imperfect-csi", "ZF", 43, 256, 14, 18, 10, 4, 0, 0, 0, 32, 61, 38, 9, 9, 29,
         132.49282660834427},
        {"imperfect-csi", "MMSE", 32, 256, 15, 17, 8, 3, 0, 0, 0, 32, 61, 39, 7, 10, 29,
         96.99636695926246},
        {"imperfect-csi", "K-best", 34, 256, 16, 16, 9, 3, 0, 0, 0, 32, 58, 31, 11, 5, 26,
         67.153256120944164},
        {"imperfect-csi", "SA", 41, 256, 14, 18, 9, 3, 0, 0, 0, 32, 62, 36, 12, 6, 30,
         81.809152120413401},
        {"imperfect-csi", "GS+RA", 48, 256, 15, 17, 9, 4, 0, 0, 0, 32, 61, 35, 11, 6, 29,
         100.66538552347149},
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
        {"rayleigh", "ZF", 14, 256, 24, 8, 5, 3, 0, 0, 0, 32, 96, 40, 5, 16, 64,
         52.827174386877537},
        {"rayleigh", "MMSE", 12, 256, 24, 8, 8, 1, 0, 0, 0, 32, 96, 39, 4, 17, 64,
         55.270975082804128},
        {"rayleigh", "K-best", 15, 256, 25, 7, 5, 3, 0, 0, 0, 32, 96, 32, 4, 14, 64,
         38.410596795433406},
        {"rayleigh", "SA", 19, 256, 24, 8, 6, 3, 0, 0, 0, 32, 96, 37, 5, 18, 64,
         41.910066112571577},
        {"rayleigh", "GS+RA", 31, 256, 21, 11, 6, 4, 0, 0, 0, 32, 96, 42, 4, 18, 64,
         71.652179280234563},
        {"jakes", "ZF", 15, 256, 23, 9, 5, 3, 0, 0, 0, 32, 96, 27, 7, 9, 64, 89.774518798718319},
        {"jakes", "MMSE", 12, 256, 25, 7, 5, 2, 0, 0, 0, 32, 96, 26, 6, 8, 64, 64.127673364812082},
        {"jakes", "K-best", 8, 256, 29, 3, 2, 2, 0, 0, 0, 32, 96, 14, 1, 5, 64, 46.034410925193114},
        {"jakes", "SA", 10, 256, 28, 4, 3, 2, 0, 0, 0, 32, 96, 16, 1, 6, 64, 49.469493436022752},
        {"jakes", "GS+RA", 13, 256, 27, 5, 4, 2, 0, 0, 0, 32, 96, 23, 3, 9, 64, 48.561844798889865},
        {"imperfect-csi", "ZF", 43, 256, 14, 18, 10, 4, 0, 0, 0, 32, 96, 64, 4, 25, 64,
         132.49282660834427},
        {"imperfect-csi", "MMSE", 32, 256, 15, 17, 8, 3, 0, 0, 0, 32, 96, 62, 4, 22, 64,
         96.99636695926246},
        {"imperfect-csi", "K-best", 34, 256, 16, 16, 9, 3, 0, 0, 0, 32, 96, 51, 7, 16, 64,
         67.153256120944164},
        {"imperfect-csi", "SA", 41, 256, 14, 18, 9, 3, 0, 0, 0, 32, 96, 53, 9, 16, 64,
         81.809152120413401},
        {"imperfect-csi", "GS+RA", 48, 256, 15, 17, 9, 4, 0, 0, 0, 32, 96, 58, 7, 19, 64,
         100.66538552347149},
    };
    run_matrix(config, kChannels, golden);
}

// k7 open loop: 4 frames of 16 uses, judged by decoding their LLRs.
TEST(Workspace, CodedOpenLoopMatchesGoldens) {
    auto config = base_config();
    config.num_uses = 64;
    config.fec = hcq::fec::code_spec::parse("k7");
    const golden_row golden[] = {
        {"rayleigh", "ZF", 59, 512, 39, 25, 18, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 121.95641391074568},
        {"rayleigh", "MMSE", 51, 512, 38, 26, 14, 5, 4, 0, 0, 0, 0, 0, 0, 0, 0,
         105.22421280920004},
        {"rayleigh", "K-best", 46, 512, 47, 17, 15, 2, 4, 2, 20, 0, 0, 0, 0, 0, 0,
         71.252773969106883},
        {"rayleigh", "SA", 43, 512, 47, 17, 14, 2, 4, 3, 27, 0, 0, 0, 0, 0, 0, 80.824815456085716},
        {"rayleigh", "GS+RA", 80, 512, 38, 26, 14, 6, 4, 4, 78, 0, 0, 0, 0, 0, 0,
         116.37267334626718},
        {"jakes", "ZF", 70, 512, 33, 31, 12, 11, 4, 1, 4, 0, 0, 0, 0, 0, 0, 162.6310814537805},
        {"jakes", "MMSE", 69, 512, 35, 29, 12, 10, 4, 1, 6, 0, 0, 0, 0, 0, 0, 132.09346278386562},
        {"jakes", "K-best", 65, 512, 43, 21, 11, 8, 4, 2, 27, 0, 0, 0, 0, 0, 0, 81.776472801919141},
        {"jakes", "SA", 62, 512, 43, 21, 10, 8, 4, 2, 19, 0, 0, 0, 0, 0, 0, 88.709579840398291},
        {"jakes", "GS+RA", 67, 512, 42, 22, 9, 8, 4, 2, 39, 0, 0, 0, 0, 0, 0, 111.66084933556317},
        {"imperfect-csi", "ZF", 91, 512, 21, 43, 18, 7, 4, 3, 24, 0, 0, 0, 0, 0, 0,
         197.8049782610473},
        {"imperfect-csi", "MMSE", 86, 512, 22, 42, 17, 7, 4, 2, 16, 0, 0, 0, 0, 0, 0,
         185.6100576731111},
        {"imperfect-csi", "K-best", 91, 512, 24, 40, 19, 5, 4, 3, 61, 0, 0, 0, 0, 0, 0,
         116.7487034590999},
        {"imperfect-csi", "SA", 84, 512, 26, 38, 19, 5, 4, 3, 38, 0, 0, 0, 0, 0, 0,
         120.10096831331536},
        {"imperfect-csi", "GS+RA", 104, 512, 23, 41, 16, 13, 4, 4, 96, 0, 0, 0, 0, 0, 0,
         171.72705442992773},
    };
    run_matrix(config, kChannels, golden);
}

TEST(Workspace, CodedChaseArqMatchesGoldens) {
    const golden_row golden[] = {
        {"jakes-csi", "MMSE", 386, 2048, 15, 113, 14, 34, 16, 14, 128, 16, 39, 28, 9, 5, 23,
         1831.6979599887163},
        {"jakes-csi", "K-best", 224, 2048, 58, 70, 33, 7, 16, 11, 132, 16, 31, 18, 8, 3, 15,
         942.76859501359786},
    };
    run_matrix(coded_arq_config("chase"), kCodedArqChannel, golden);
}

TEST(Workspace, CodedPlainArqMatchesGoldens) {
    const golden_row golden[] = {
        {"jakes-csi", "MMSE", 386, 2048, 15, 113, 14, 34, 16, 14, 128, 16, 42, 35, 5, 9, 26,
         1831.6979599887163},
        {"jakes-csi", "K-best", 224, 2048, 58, 70, 33, 7, 16, 11, 132, 16, 33, 21, 7, 4, 17,
         942.76859501359786},
    };
    run_matrix(coded_arq_config("plain"), kCodedArqChannel, golden);
}

}  // namespace
