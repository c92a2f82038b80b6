// Tests for the pool-parallel experiment drivers: util::pool_for_each, the
// corpus builder make_paper_corpus, and best_forward_reverse.  Their results
// must be bit-identical to a serial reference, whatever the thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/device.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "util/thread_pool.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace wl = hcq::wireless;

std::vector<std::size_t> thread_counts_under_test() {
    return {1, 4, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

TEST(PoolForEach, VisitsEveryIndexOnce) {
    std::vector<std::atomic<int>> hits(131);
    hcq::util::pool_for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 3);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PoolForEach, HandlesZeroAndSerial) {
    int calls = 0;
    hcq::util::pool_for_each(0, [&](std::size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0);
    hcq::util::pool_for_each(3, [&](std::size_t) { ++calls; }, 1);
    EXPECT_EQ(calls, 3);
}

TEST(PoolForEach, PropagatesTaskException) {
    EXPECT_THROW(hcq::util::pool_for_each(
                     64,
                     [](std::size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                     },
                     4),
                 std::runtime_error);
}

TEST(ParallelRunner, CorpusMatchesSerialReferenceAtAnyThreadCount) {
    // make_paper_corpus builds on the pool; instance i must still be exactly
    // the serial make_paper_instance over util::rng(seed).derive(i).
    const auto corpus = hy::make_paper_corpus(4242, 6, 4, wl::modulation::qam16);
    ASSERT_EQ(corpus.size(), 6u);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        hcq::util::rng stream = hcq::util::rng(4242).derive(i);
        const auto reference = hy::make_paper_instance(stream, 4, wl::modulation::qam16);
        EXPECT_EQ(corpus[i].optimal_bits, reference.optimal_bits);
        EXPECT_DOUBLE_EQ(corpus[i].optimal_energy, reference.optimal_energy);
        EXPECT_EQ(corpus[i].instance.tx_bits, reference.instance.tx_bits);
        const auto& h = corpus[i].instance.h;
        const auto& hr = reference.instance.h;
        ASSERT_EQ(h.rows(), hr.rows());
        ASSERT_EQ(h.cols(), hr.cols());
        for (std::size_t r = 0; r < h.rows(); ++r) {
            for (std::size_t c = 0; c < h.cols(); ++c) {
                EXPECT_EQ(h(r, c), hr(r, c));
            }
        }
    }
    EXPECT_THROW((void)hy::make_paper_corpus(1, 0, 4, wl::modulation::qpsk),
                 std::invalid_argument);
}

TEST(Sweep, BestForwardReverseIsThreadCountInvariant) {
    hcq::util::rng make(57);
    const auto e = hy::make_paper_instance(make, 3, wl::modulation::qpsk);
    const an::annealer_emulator device;

    hcq::util::rng serial_rng(91);
    const auto serial = hy::best_forward_reverse(device, e.reduced.model, 0.41, 1.0, 1.0, 20,
                                                 e.optimal_energy, serial_rng, 99.0,
                                                 /*num_threads=*/1);
    for (const std::size_t threads : thread_counts_under_test()) {
        hcq::util::rng rng(91);
        const auto fr = hy::best_forward_reverse(device, e.reduced.model, 0.41, 1.0, 1.0, 20,
                                                 e.optimal_energy, rng, 99.0, threads);
        EXPECT_DOUBLE_EQ(fr.best_cp, serial.best_cp);
        EXPECT_DOUBLE_EQ(fr.eval.p_star, serial.eval.p_star);
        EXPECT_DOUBLE_EQ(fr.eval.tts_us, serial.eval.tts_us);
        EXPECT_DOUBLE_EQ(fr.eval.mean_delta_e, serial.eval.mean_delta_e);
    }
}

}  // namespace
