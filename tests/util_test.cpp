// Tests for hcq::util — RNG determinism and distributions, thread pool,
// CLI parsing, table formatting, and the one spec front end (util/spec.h)
// as every family (paths, channels, FEC codes, ARQ) uses it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "arq/arq.h"
#include "fec/code_spec.h"
#include "paths/registry.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wireless/channel_spec.h"

namespace {

using hcq::util::bench_scale;
using hcq::util::flag_set;
using hcq::util::rng;

TEST(Rng, SameSeedSameStream) {
    rng a(42);
    rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    rng a(1);
    rng b(2);
    int differences = 0;
    for (int i = 0; i < 32; ++i) {
        if (a() != b()) ++differences;
    }
    EXPECT_GT(differences, 0);
}

TEST(Rng, DeriveIsDeterministic) {
    const rng base(7);
    rng a = base.derive(3);
    rng b = base.derive(3);
    EXPECT_EQ(a(), b());
}

TEST(Rng, DeriveStreamsAreDistinct) {
    const rng base(7);
    rng a = base.derive(1);
    rng b = base.derive(2);
    int differences = 0;
    for (int i = 0; i < 32; ++i) {
        if (a() != b()) ++differences;
    }
    EXPECT_GT(differences, 0);
}

TEST(Rng, UniformWithinBounds) {
    rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected) {
    rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-2.5, 7.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 7.5);
    }
}

TEST(Rng, UniformRejectsInvertedRange) {
    rng r(3);
    EXPECT_THROW((void)r.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversRange) {
    rng r(5);
    std::set<std::size_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(r.uniform_index(4));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_THROW((void)r.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusive) {
    rng r(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(r.uniform_int(-1, 1));
    EXPECT_TRUE(seen.count(-1));
    EXPECT_TRUE(seen.count(0));
    EXPECT_TRUE(seen.count(1));
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
    rng r(11);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeStddev) {
    rng r(1);
    EXPECT_THROW((void)r.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliProbability) {
    rng r(13);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) ones += r.bernoulli(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, 0.02);
    EXPECT_THROW((void)r.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, BitsAreBalanced) {
    rng r(17);
    const auto bits = r.bits(20000);
    std::size_t ones = 0;
    for (const auto b : bits) {
        ASSERT_LE(b, 1);
        ones += b;
    }
    EXPECT_NEAR(static_cast<double>(ones) / bits.size(), 0.5, 0.02);
}

TEST(Rng, AngleWithinCircle) {
    rng r(19);
    for (int i = 0; i < 100; ++i) {
        const double a = r.angle();
        EXPECT_GE(a, 0.0);
        EXPECT_LT(a, 6.2831853072);
    }
}

TEST(Rng, ShufflePreservesElements) {
    rng r(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto w = v;
    r.shuffle(w);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(w.begin(), w.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, PhiloxKnownAnswer) {
    // Random123's philox4x32-10 vector for key 0, counter 0 is
    // (6627e8d5, e169c58d, bc57ac4c, 9b00dbd8); a block yields c0 | c1 << 32,
    // then c2 | c3 << 32.
    constexpr std::uint64_t first = 0xe169c58d6627e8d5ULL;
    constexpr std::uint64_t second = 0x9b00dbd8bc57ac4cULL;
    rng r(0);
    EXPECT_EQ(r(), first);
    EXPECT_EQ(r(), second);
    // The draws are defined on those words: uniform() is the top 53 bits,
    // bits() takes 64 bits per draw, least-significant first.
    EXPECT_EQ(rng(0).uniform(), static_cast<double>(first >> 11) * 0x1.0p-53);
    const auto bits = rng(0).bits(65);
    for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(bits[i], (first >> i) & 1U) << i;
    EXPECT_EQ(bits[64], second & 1U);
}

TEST(Rng, StateIsSmallAndTriviallyCopyable) {
    EXPECT_LE(sizeof(rng), 64u);
    EXPECT_TRUE(std::is_trivially_copyable_v<rng>);
    // A copy taken mid-block (and mid normal pair) continues identically.
    rng a(9);
    (void)a();
    (void)a.normal();
    rng b = a;
    EXPECT_EQ(a.normal(), b.normal());
    for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, FillAndDiscardMatchSequentialDraws) {
    // fill(out) and discard(n) are defined as out.size() and n operator()
    // calls: the same draws, and the same state after.  Covered: a pending
    // second draw and none (odd and even skips), lengths 0-100 (across the
    // SIMD kernel's 16-draw step), several keys, and a block counter
    // crossing 2^32, where each lane carries into the counter's high word.
    constexpr std::uint64_t near_carry = 2 * ((std::uint64_t{1} << 32) - 5);
    for (const std::uint64_t seed : {0ULL, 7ULL, 0x9e3779b97f4a7c15ULL, ~0ULL}) {
        for (const std::uint64_t skip :
             std::initializer_list<std::uint64_t>{0, 1, 6, near_carry, near_carry + 1}) {
            rng base(seed);
            base.discard(skip);
            for (std::size_t len = 0; len <= 100; ++len) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " skip " + std::to_string(skip) +
                             " len " + std::to_string(len));
                rng want = base;
                rng got = base;
                std::vector<rng::result_type> draws(len);
                got.fill(draws);
                for (const auto draw : draws) ASSERT_EQ(draw, want());
                for (int i = 0; i < 3; ++i) ASSERT_EQ(got(), want());

                rng skipped = base;
                rng stepped = base;
                skipped.discard(len);
                for (std::size_t i = 0; i < len; ++i) (void)stepped();
                for (int i = 0; i < 3; ++i) ASSERT_EQ(skipped(), stepped());
            }
        }
    }
    // A long discard lands on the block the counter names.
    rng far(11);
    far.discard(near_carry + 1);
    std::vector<std::uint64_t> block(2);
    (void)hcq::util::philox::draws_scalar(11, near_carry / 2, block);
    EXPECT_EQ(far(), block[1]);

    // The AVX2 kernel against the scalar block, including the returned
    // second half of an odd tail, on CPUs that run it.
    if (!hcq::util::philox::avx2_supported()) return;
    for (const std::uint64_t key : {0ULL, 0x0123456789abcdefULL, ~0ULL}) {
        for (const std::uint64_t first : {0ULL, (1ULL << 32) - 3, ~0ULL - 2}) {
            for (std::size_t len = 0; len <= 40; ++len) {
                std::vector<std::uint64_t> simd(len);
                std::vector<std::uint64_t> scalar(len);
                const auto simd_next = hcq::util::philox::draws_avx2(key, first, simd);
                const auto scalar_next = hcq::util::philox::draws_scalar(key, first, scalar);
                ASSERT_EQ(simd, scalar) << "key " << key << " block " << first << " len " << len;
                ASSERT_EQ(simd_next, scalar_next) << "len " << len;
            }
        }
    }
}

TEST(ThreadPool, ExecutesAllTasks) {
    hcq::util::thread_pool pool(4);
    std::atomic<int> counter{0};
    pool.for_each_slot(100, [&counter](std::size_t, std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
    hcq::util::thread_pool pool(3);
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ForEachSlotGivesEachSlotToOneThreadAtATime) {
    hcq::util::thread_pool pool(4);
    // Per-slot state the tasks write without a lock: a plain counter and an
    // "occupied" flag that a second concurrent user of the slot would trip.
    std::vector<std::size_t> visits(pool.size(), 0);
    std::vector<std::atomic<bool>> occupied(pool.size());
    std::atomic<bool> overlap{false};
    std::vector<std::atomic<int>> hits(1000);
    pool.for_each_slot(hits.size(), [&](std::size_t slot, std::size_t i) {
        ASSERT_LT(slot, pool.size());
        if (occupied[slot].exchange(true)) overlap.store(true);
        ++visits[slot];
        hits[i].fetch_add(1);
        occupied[slot].store(false);
    });
    EXPECT_FALSE(overlap.load());
    std::size_t total = 0;
    for (const std::size_t v : visits) total += v;
    EXPECT_EQ(total, hits.size());
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    pool.for_each_slot(0, [](std::size_t, std::size_t) { FAIL() << "no iterations"; });
}

TEST(ThreadPool, ForEachSlotRethrowsAndPoolSurvives) {
    hcq::util::thread_pool pool(3);
    EXPECT_THROW(pool.for_each_slot(
                     100,
                     [](std::size_t, std::size_t i) {
                         if (i == 7) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    std::atomic<int> calls{0};
    pool.for_each_slot(10, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 10);
}

// The parallel-for contract of pool_for_each, as the benches and examples
// call it.
TEST(ParallelFor, VisitsEveryIndexOnce) {
    std::vector<std::atomic<int>> hits(257);
    hcq::util::pool_for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroAndSingle) {
    int calls = 0;
    hcq::util::pool_for_each(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    hcq::util::pool_for_each(1, [&](std::size_t) { ++calls; }, 8);
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstExceptionToCaller) {
    EXPECT_THROW(hcq::util::pool_for_each(
                     128,
                     [](std::size_t i) {
                         if (i == 37) throw std::runtime_error("iteration failed");
                     },
                     4),
                 std::runtime_error);
    // Serial degenerate path throws too.
    EXPECT_THROW(hcq::util::pool_for_each(
                     2, [](std::size_t) { throw std::runtime_error("x"); }, 1),
                 std::runtime_error);
}

flag_set parse(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return flag_set(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
    const auto flags = parse({"--reads=100", "--sp=0.41"});
    EXPECT_EQ(flags.get_size("reads", 0), 100);
    EXPECT_DOUBLE_EQ(flags.get_double("sp", 0.0), 0.41);
}

TEST(Cli, ParsesSpaceForm) {
    const auto flags = parse({"--reads", "250"});
    EXPECT_EQ(flags.get_size("reads", 0), 250);
}

TEST(Cli, BareBooleanFlag) {
    const auto flags = parse({"--verbose"});
    EXPECT_TRUE(flags.get_bool("verbose", false));
    EXPECT_FALSE(flags.get_bool("quiet", false));
}

TEST(Cli, FallbacksWhenMissing) {
    const auto flags = parse({});
    EXPECT_EQ(flags.get_size("reads", 7), 7);
    EXPECT_EQ(flags.get_string("mode", "auto"), "auto");
}

TEST(Cli, PositionalCollected) {
    const auto flags = parse({"run", "--x=1", "fast"});
    ASSERT_EQ(flags.positional().size(), 2u);
    EXPECT_EQ(flags.positional()[0], "run");
    EXPECT_EQ(flags.positional()[1], "fast");
}

TEST(Cli, RejectsMalformedNumbers) {
    const auto flags = parse({"--reads=abc"});
    EXPECT_THROW((void)flags.get_size("reads", 0), std::invalid_argument);
    EXPECT_THROW((void)flags.get_double("reads", 0.0), std::invalid_argument);
    EXPECT_THROW((void)flags.get_bool("reads", false), std::invalid_argument);

    // Trailing text and negative counts are errors, not prefixes or wraps.
    const auto trailing = parse({"--uses=12abc", "--load=0.9x", "--count=-1"});
    EXPECT_THROW((void)trailing.get_size("uses", 0), std::invalid_argument);
    EXPECT_THROW((void)trailing.get_double("load", 0.0), std::invalid_argument);
    EXPECT_THROW((void)trailing.get_size("count", 0), std::invalid_argument);
    try {
        (void)trailing.get_size("count", 0);
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos);
    }
}

TEST(Cli, EnvironmentFallback) {
    ::setenv("HCQ_TEST_ENV_FLAG", "41", 1);
    const auto flags = parse({});
    EXPECT_EQ(flags.get_size("test-env-flag", 0), 41);
    ::unsetenv("HCQ_TEST_ENV_FLAG");
}

TEST(Cli, CommandLineBeatsEnvironment) {
    ::setenv("HCQ_PRIORITY", "1", 1);
    const auto flags = parse({"--priority=2"});
    EXPECT_EQ(flags.get_size("priority", 0), 2);
    ::unsetenv("HCQ_PRIORITY");
}

TEST(Cli, ScalePresets) {
    EXPECT_EQ(hcq::util::parse_scale(parse({})), bench_scale::quick);
    EXPECT_EQ(hcq::util::parse_scale(parse({"--scale=full"})), bench_scale::full);
    EXPECT_EQ(hcq::util::parse_scale(parse({"--scale=smoke"})), bench_scale::smoke);
    EXPECT_THROW((void)hcq::util::parse_scale(parse({"--scale=huge"})), std::invalid_argument);
    EXPECT_LT(hcq::util::scale_factor(bench_scale::smoke),
              hcq::util::scale_factor(bench_scale::quick));
    EXPECT_LT(hcq::util::scale_factor(bench_scale::quick),
              hcq::util::scale_factor(bench_scale::full));
    EXPECT_STREQ(hcq::util::to_string(bench_scale::full), "full");
}

TEST(Table, AlignsAndCounts) {
    hcq::util::table t({"name", "value"});
    t.add("alpha", 1.5);
    t.add("b", 22);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
    std::ostringstream os;
    t.print(os);
    const auto text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, CsvOutput) {
    hcq::util::table t({"a", "b"});
    t.add(1, 2);
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, JsonOutput) {
    hcq::util::table t({"path", "BER", "note"});
    t.add("zf", 0.125, "a \"quoted\" cell");
    t.add("sa", 0, "plain");
    std::ostringstream os;
    t.print_json(os);
    const auto text = os.str();
    // Numeric cells unquoted, text cells quoted and escaped.
    EXPECT_NE(text.find("\"BER\": 0.125"), std::string::npos);
    EXPECT_NE(text.find("\"path\": \"zf\""), std::string::npos);
    EXPECT_NE(text.find("a \\\"quoted\\\" cell"), std::string::npos);
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text[text.size() - 2], ']');  // trailing newline after the array
}

TEST(Table, JsonNumericDetectionIsStrict) {
    // Cells that strtod would accept but JSON forbids must stay quoted.
    hcq::util::table t({"a", "b", "c", "d", "e", "f"});
    t.add("0x1A", "1.", ".5", "01", "-0.5", "1e-3");
    std::ostringstream os;
    t.print_json(os);
    const auto text = os.str();
    EXPECT_NE(text.find("\"a\": \"0x1A\""), std::string::npos);
    EXPECT_NE(text.find("\"b\": \"1.\""), std::string::npos);
    EXPECT_NE(text.find("\"c\": \".5\""), std::string::npos);
    EXPECT_NE(text.find("\"d\": \"01\""), std::string::npos);
    EXPECT_NE(text.find("\"e\": -0.5"), std::string::npos);
    EXPECT_NE(text.find("\"f\": 1e-3"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
    hcq::util::table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
    EXPECT_THROW(hcq::util::table({}), std::invalid_argument);
}

TEST(Table, FormatDouble) {
    EXPECT_EQ(hcq::util::format_double(1.5), "1.5");
    EXPECT_EQ(hcq::util::format_double(2.0), "2");
    EXPECT_EQ(hcq::util::format_double(0.0), "0");
    EXPECT_EQ(hcq::util::format_double(std::nan("")), "nan");
    EXPECT_EQ(hcq::util::format_double(std::numeric_limits<double>::infinity()), "inf");
}

TEST(Timer, MeasuresNonNegativeTime) {
    hcq::util::timer t;
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
    EXPECT_GE(t.elapsed_us(), 0.0);
    EXPECT_GE(t.elapsed_s(), 0.0);
    t.reset();
    EXPECT_GE(t.elapsed_us(), 0.0);
}

// ---------------------------------------------------------------------------
// The spec front end, through each family's own entry point
// ---------------------------------------------------------------------------

/// One spec family as a caller sees it.
struct spec_family {
    std::string prefix;  ///< every error starts with it
    /// Parses `text` (building the path, for paths); its canonical form.
    std::function<std::string(const std::string&)> canonical;
    std::vector<std::string> seeds;  ///< valid specs to mutate
};

std::vector<spec_family> spec_families() {
    namespace pt = hcq::paths;
    namespace wl = hcq::wireless;
    spec_family paths{"paths: ",
                      [](const std::string& text) {
                          return pt::registry::make(text)->spec().to_string();
                      },
                      {}};
    for (const auto& kind : pt::registry::available()) {
        paths.seeds.push_back(pt::registry::make(kind)->spec().to_string());
    }
    spec_family channels{"channels: ",
                         [](const std::string& text) {
                             const auto spec = wl::channel_spec::parse(text);
                             (void)wl::make_channel_process(spec, 2, 2, rng(7));
                             return spec.to_string();
                         },
                         {}};
    for (const auto& kind : wl::channel_spec::kinds()) {
        channels.seeds.push_back(wl::channel_spec::parse(kind).to_string() + ",snr_db=10");
    }
    spec_family codes{
        "fec: ",
        [](const std::string& text) { return hcq::fec::code_spec::parse(text).to_string(); },
        {"k3:interleave=4x8", "k5:interleave=8x8", "k7:interleave=16x8"}};
    spec_family arq{"arq: ",
                    [](const std::string& text) { return hcq::arq::parse_arq(text).to_string(); },
                    {"deadline_us=500,max_retx=2,combining=plain"}};
    return {paths, channels, codes, arq};
}

std::string spec_error(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected std::invalid_argument";
    return {};
}

TEST(Spec, EveryFamilyUsesOneErrorForm) {
    struct error_case {
        std::function<void(const std::string&)> parse;
        std::string layer;
        const char* unknown_kind;  ///< nullptr for the kind-less ARQ list
        std::vector<std::string> kinds;
        const char* unknown_key;  ///< names key 'warp'
        std::string accepted;
        const char* bad_value;
        std::string bad_value_start;
        const char* repeated;  ///< repeats key 'k'
    };
    const std::vector<error_case> cases = {
        {[](const std::string& t) { (void)hcq::paths::registry::make(t); }, "paths",
         "warp-drive", hcq::paths::registry::available(), "kbest:warp=1", "width",
         "kbest:width=wide", "paths: kbest: bad value 'wide' for key 'width' (expected ",
         "kbest:width=4,width=5"},
        {[](const std::string& t) { (void)hcq::wireless::channel_spec::parse(t); }, "channels",
         "rician", hcq::wireless::channel_spec::kinds(), "rayleigh:warp=1", "est_err, snr_db",
         "jakes:doppler_hz=abc", "channels: jakes: bad value 'abc' for key 'doppler_hz' (expected ",
         "jakes:doppler_hz=5,doppler_hz=9"},
        {[](const std::string& t) { (void)hcq::fec::code_spec::parse(t); }, "fec", "k9",
         hcq::fec::code_spec::kinds(), "k7:warp=1", "interleave", "k7:interleave=4y8",
         "fec: k7: bad value '4y8' for key 'interleave' (expected ",
         "k7:interleave=8x8,interleave=4x8"},
        {[](const std::string& t) { (void)hcq::arq::parse_arq(t); }, "arq", nullptr, {},
         "warp=1", "deadline_us, max_retx, combining", "max_retx=lots",
         "arq: bad value 'lots' for key 'max_retx' (expected ", "max_retx=1,max_retx=2"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.layer);
        if (c.unknown_kind != nullptr) {
            std::string listed;
            for (const auto& kind : c.kinds) listed += (listed.empty() ? "" : ", ") + kind;
            EXPECT_EQ(spec_error([&] { c.parse(c.unknown_kind); }).find(c.layer + ": unknown "),
                      0U);
            EXPECT_NE(spec_error([&] { c.parse(c.unknown_kind); })
                          .find("'" + std::string(c.unknown_kind) + "' (available: " + listed +
                                ")"),
                      std::string::npos);
        }
        const std::string unknown_key = spec_error([&] { c.parse(c.unknown_key); });
        EXPECT_EQ(unknown_key.find(c.layer + ": "), 0U) << unknown_key;
        EXPECT_NE(unknown_key.find("does not accept key 'warp' (accepted: " + c.accepted + ")"),
                  std::string::npos)
            << unknown_key;
        const std::string bad_value = spec_error([&] { c.parse(c.bad_value); });
        EXPECT_EQ(bad_value.find(c.bad_value_start), 0U) << bad_value;
        const std::string repeated = spec_error([&] { c.parse(c.repeated); });
        EXPECT_EQ(repeated.find(c.layer + ": bad spec '" + c.repeated + "': duplicate key '"),
                  0U)
            << repeated;
    }
}

/// `text` with one random edit: a character deleted or duplicated, a
/// separator inserted, or one value replaced by a hostile one.
std::string mutate(std::string text, rng& r) {
    static const std::vector<std::string> hostile = {
        "0", "-1", "nan", "inf", "1e308", "18446744073709551616", "9223372036854775807", ""};
    const std::size_t at = r.uniform_index(text.size() + 1);
    switch (r.uniform_index(4)) {
        case 0:
            if (at < text.size()) text.erase(at, 1);
            break;
        case 1:
            if (at < text.size()) text.insert(at, 1, text[at]);
            break;
        case 2: text.insert(at, 1, ":,="[r.uniform_index(3)]); break;
        default: {
            std::vector<std::size_t> values;
            for (std::size_t i = 0; i < text.size(); ++i) {
                if (text[i] == '=') values.push_back(i + 1);
            }
            if (values.empty()) break;
            const std::size_t begin = values[r.uniform_index(values.size())];
            const std::size_t end = std::min(text.find(',', begin), text.size());
            text.replace(begin, end - begin, hostile[r.uniform_index(hostile.size())]);
        }
    }
    return text;
}

TEST(Spec, MutantsParseOrFailCleanly) {
    // Hostile spec text gets a clean std::invalid_argument carrying the
    // family's prefix, never another exception (or, under the sanitizers,
    // undefined behaviour); what parses canonicalises to a fixed point.
    std::uint64_t seed = 0;
    for (const auto& family : spec_families()) {
        SCOPED_TRACE(family.prefix);
        rng r(1000 + seed++);
        std::size_t parsed = 0;
        for (int i = 0; i < 2000; ++i) {
            std::string text = family.seeds[r.uniform_index(family.seeds.size())];
            for (std::size_t edits = 1 + r.uniform_index(3); edits > 0; --edits) {
                text = mutate(std::move(text), r);
            }
            std::string canonical;
            try {
                canonical = family.canonical(text);
            } catch (const std::invalid_argument& e) {
                EXPECT_EQ(std::string(e.what()).rfind(family.prefix, 0), 0U)
                    << "'" << text << "': " << e.what();
                continue;
            } catch (const std::exception& e) {
                ADD_FAILURE() << "'" << text << "' threw a non-invalid_argument: " << e.what();
                continue;
            }
            ++parsed;
            EXPECT_EQ(family.canonical(canonical), canonical) << "'" << text << "'";
        }
        // The mutants reach past the grammar: some still parse.
        EXPECT_GT(parsed, 0U);
    }
}

}  // namespace
