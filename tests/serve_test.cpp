// Serving front end (src/serve/): wire-protocol hardening, the in-process
// ephemeral-port TCP server under concurrent clients, admission-control
// policies, per-request deadlines, and the determinism golden — a served
// batch is bit-identical to the same batch run in process and, through the
// shared derived-RNG streams, to link::run_link_simulation at
// serve::request_seed(tenant, seq, seed).
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "link/link_sim.h"
#include "paths/registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "serve/tcp_server.h"
#include "util/rng.h"

namespace {

using namespace hcq;

serve::request small_request(std::uint64_t tenant, std::uint64_t seq) {
    serve::request req;
    req.tenant_id = tenant;
    req.request_seq = seq;
    req.seed = 42;
    req.num_uses = 6;
    req.num_users = 4;
    req.snr_db = 14.0;
    req.mod = "qam16";
    req.spec = "zf";
    return req;
}

serve::server_config test_server(std::size_t workers) {
    serve::server_config config;
    config.port = 0;  // ephemeral
    config.num_workers = workers;
    return config;
}

// ---------------------------------------------------------------------------
// Protocol layer
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsExactly) {
    serve::request req = small_request(7, 11);
    req.deadline_us = 1234.5;
    req.noiseless = true;
    req.channel = "jakes:doppler_hz=5";
    req.want_soft = true;
    const auto decoded = serve::decode_request(serve::encode_request(req));
    EXPECT_EQ(decoded.tenant_id, req.tenant_id);
    EXPECT_EQ(decoded.request_seq, req.request_seq);
    EXPECT_EQ(decoded.seed, req.seed);
    EXPECT_EQ(decoded.deadline_us, req.deadline_us);
    EXPECT_EQ(decoded.num_uses, req.num_uses);
    EXPECT_EQ(decoded.num_users, req.num_users);
    EXPECT_EQ(decoded.snr_db, req.snr_db);
    EXPECT_EQ(decoded.noiseless, req.noiseless);
    EXPECT_EQ(decoded.want_soft, req.want_soft);
    EXPECT_EQ(decoded.mod, req.mod);
    EXPECT_EQ(decoded.spec, req.spec);
    EXPECT_EQ(decoded.channel, req.channel);
}

TEST(ServeProtocol, ResponseRoundTripsExactly) {
    serve::response resp;
    resp.state = serve::status::ok;
    resp.tenant_id = 3;
    resp.request_seq = 9;
    resp.queue_depth = 5;
    resp.in_flight = 2;
    resp.queue_wait_us = 77.25;
    resp.num_uses = 3;
    resp.bits_per_use = 16;
    resp.bits.assign((3 * 16 + 7) / 8, 0);
    resp.bits[0] = 0xA5;
    resp.ml_cost = {1.5, 2.5, 3.25};
    resp.synth_us = 10.0;
    resp.qubo_us = 20.0;
    resp.solve_us = 30.0;
    const auto decoded = serve::decode_response(serve::encode_response(resp));
    EXPECT_EQ(decoded.state, resp.state);
    EXPECT_EQ(decoded.tenant_id, resp.tenant_id);
    EXPECT_EQ(decoded.request_seq, resp.request_seq);
    EXPECT_EQ(decoded.queue_depth, resp.queue_depth);
    EXPECT_EQ(decoded.in_flight, resp.in_flight);
    EXPECT_EQ(decoded.queue_wait_us, resp.queue_wait_us);
    EXPECT_EQ(decoded.bits, resp.bits);
    EXPECT_EQ(decoded.ml_cost, resp.ml_cost);
    EXPECT_EQ(decoded.synth_us, resp.synth_us);
}

TEST(ServeProtocol, SoftResponseRoundTripsLlrBitPatterns) {
    serve::response resp;
    resp.state = serve::status::ok;
    resp.num_uses = 2;
    resp.bits_per_use = 3;
    resp.bits.assign(1, 0x2B);
    resp.ml_cost = {0.5, 0.75};
    // Exercise the values the clamp layer can emit: the cap, a subnormal-ish
    // magnitude, zero (erased bit), and negatives.
    resp.llrs = {1.0e4, -1.0e4, 0.0, 1e-3, -42.125, 7.0};
    const auto decoded = serve::decode_response(serve::encode_response(resp));
    ASSERT_EQ(decoded.llrs.size(), resp.llrs.size());
    for (std::size_t i = 0; i < resp.llrs.size(); ++i) {
        EXPECT_EQ(decoded.llrs[i], resp.llrs[i]) << "llr " << i;  // exact f64
    }
    // A hard-decision response stays LLR-free on the wire and after decode.
    resp.llrs.clear();
    EXPECT_TRUE(serve::decode_response(serve::encode_response(resp)).llrs.empty());
}

TEST(ServeProtocol, SoftResponseSizeMismatchAndBadFlagAreRejected) {
    serve::response resp;
    resp.state = serve::status::ok;
    resp.num_uses = 2;
    resp.bits_per_use = 3;
    resp.bits.assign(1, 0);
    resp.ml_cost = {0.0, 0.0};
    resp.llrs = {1.0, 2.0, 3.0};  // != num_uses * bits_per_use
    EXPECT_THROW((void)serve::encode_response(resp), serve::protocol_error);
    resp.llrs.clear();
    auto bytes = serve::encode_response(resp);
    // has_soft sits immediately before the three trailing f64 timings.
    bytes[bytes.size() - 3 * 8 - 1] = 2;
    EXPECT_THROW((void)serve::decode_response(bytes), serve::protocol_error);
}

TEST(ServeProtocol, TruncatedRequestNamesTheStarvedField) {
    auto bytes = serve::encode_request(small_request(1, 1));
    bytes.resize(10);  // cuts inside tenant/seq region
    try {
        (void)serve::decode_request(bytes);
        FAIL() << "decode_request accepted a truncated payload";
    } catch (const serve::protocol_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated at field"), std::string::npos)
            << e.what();
    }
}

TEST(ServeProtocol, WrongVersionAndTrailingGarbageAreRejected) {
    auto bytes = serve::encode_request(small_request(1, 1));
    auto bad_version = bytes;
    bad_version[0] = 99;
    EXPECT_THROW((void)serve::decode_request(bad_version), serve::protocol_error);
    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_THROW((void)serve::decode_request(trailing), serve::protocol_error);
}

TEST(ServeProtocol, FrameLengthBoundsAreEnforced) {
    EXPECT_THROW(serve::check_frame_length(0), serve::protocol_error);
    EXPECT_THROW(serve::check_frame_length(serve::max_frame_bytes + 1),
                 serve::protocol_error);
    serve::check_frame_length(1);
    serve::check_frame_length(serve::max_frame_bytes);
}

TEST(ServeProtocol, BatchSizeBoundsAreEnforced) {
    auto req = small_request(1, 1);
    req.num_uses = 0;
    EXPECT_THROW((void)serve::decode_request(serve::encode_request(req)),
                 serve::protocol_error);
    req.num_uses = serve::max_batch_uses + 1;
    EXPECT_THROW((void)serve::decode_request(serve::encode_request(req)),
                 serve::protocol_error);
}

TEST(ServeProtocol, PackUnpackBitsRoundTrips) {
    util::rng rng(5);
    std::vector<std::uint8_t> packed;
    std::vector<std::vector<std::uint8_t>> uses;
    const std::size_t bits_per_use = 13;  // deliberately not byte-aligned
    for (std::size_t u = 0; u < 7; ++u) {
        uses.push_back(rng.bits(bits_per_use));
        serve::pack_bits(packed, u * bits_per_use, uses.back());
    }
    for (std::size_t u = 0; u < 7; ++u) {
        EXPECT_EQ(serve::unpack_bits(packed, u * bits_per_use, bits_per_use), uses[u]);
    }
}

TEST(ServeProtocol, RequestSeedIsTheDoubleDerivation) {
    EXPECT_EQ(serve::request_seed(7, 3, 42),
              util::rng(42).derive(7).derive(3).seed());
    // Pinned: the splitmix64 derivation is part of the wire contract, so a
    // change of generator engine must leave every request seed unchanged.
    EXPECT_EQ(serve::request_seed(7, 3, 42), 0x5c53b3bb09cce40eULL);
    // Distinct tenants / sequence numbers get distinct streams.
    EXPECT_NE(serve::request_seed(7, 3, 42), serve::request_seed(8, 3, 42));
    EXPECT_NE(serve::request_seed(7, 3, 42), serve::request_seed(7, 4, 42));
}

// ---------------------------------------------------------------------------
// Determinism goldens
// ---------------------------------------------------------------------------

// A served batch consumes the SAME derived streams as run_link_simulation at
// the request seed, so the detection-domain aggregates match exactly.
TEST(ServeGolden, RunBatchMatchesLinkSimulationAggregates) {
    serve::request req = small_request(7, 3);
    req.spec = "sa";
    req.num_uses = 10;

    link::link_config config;
    config.num_uses = req.num_uses;
    config.num_users = req.num_users;
    config.mod = wireless::modulation::qam16;
    config.snr_db = req.snr_db;
    config.paths = paths::parse_spec_list(req.spec);
    config.seed = serve::request_seed(req.tenant_id, req.request_seq, req.seed);

    const auto batch = serve::run_batch(req);
    const auto report = link::run_link_simulation(config);
    const auto& path = report.paths.at(0);
    EXPECT_EQ(batch.bit_errors, path.ber.errors());
    EXPECT_EQ(batch.total_bits, path.ber.total_bits());
    EXPECT_EQ(batch.exact_frames, path.exact_frames);
    EXPECT_EQ(batch.sum_ml_cost, path.sum_ml_cost);  // identical serial sum
}

TEST(ServeGolden, RunBatchMatchesLinkSimulationUnderChannelSpec) {
    serve::request req = small_request(2, 5);
    req.spec = "zf";
    req.num_uses = 8;
    req.channel = "jakes:doppler_hz=5,est_err=0.05";

    link::link_config config;
    config.num_uses = req.num_uses;
    config.num_users = req.num_users;
    config.mod = wireless::modulation::qam16;
    config.snr_db = req.snr_db;
    config.channel_spec = wireless::channel_spec::parse(req.channel);
    config.paths = paths::parse_spec_list(req.spec);
    config.seed = serve::request_seed(req.tenant_id, req.request_seq, req.seed);

    const auto batch = serve::run_batch(req);
    const auto report = link::run_link_simulation(config);
    const auto& path = report.paths.at(0);
    EXPECT_EQ(batch.bit_errors, path.ber.errors());
    EXPECT_EQ(batch.total_bits, path.ber.total_bits());
    EXPECT_EQ(batch.exact_frames, path.exact_frames);
    EXPECT_EQ(batch.sum_ml_cost, path.sum_ml_cost);
}

TEST(ServeGolden, NoiselessRunBatchMatchesLinkSimulation) {
    serve::request req = small_request(3, 9);
    req.noiseless = true;
    req.spec = "sa:reads=1,sweeps=2";
    req.num_uses = 10;

    link::link_config config;
    config.num_uses = req.num_uses;
    config.num_users = req.num_users;
    config.mod = wireless::modulation::qam16;
    config.channel = wireless::channel_model::unit_gain_random_phase;
    config.noiseless = true;
    config.paths = paths::parse_spec_list(req.spec);
    config.seed = serve::request_seed(req.tenant_id, req.request_seq, req.seed);

    const auto batch = serve::run_batch(req);
    const auto report = link::run_link_simulation(config);
    const auto& path = report.paths.at(0);
    EXPECT_EQ(batch.bit_errors, path.ber.errors());
    EXPECT_EQ(batch.total_bits, path.ber.total_bits());
    EXPECT_EQ(batch.exact_frames, path.exact_frames);
    EXPECT_EQ(batch.sum_ml_cost, path.sum_ml_cost);
    EXPECT_GT(batch.bit_errors, 0u);  // two sweeps leave errors to compare
}

// ---------------------------------------------------------------------------
// Server: echo/roundtrip and the served-vs-in-process golden
// ---------------------------------------------------------------------------

void expect_served_matches_in_process(const serve::response& resp,
                                      const serve::request& req) {
    ASSERT_EQ(resp.state, serve::status::ok) << resp.message;
    EXPECT_EQ(resp.tenant_id, req.tenant_id);
    EXPECT_EQ(resp.request_seq, req.request_seq);
    const auto local = serve::run_batch(req);
    ASSERT_EQ(resp.num_uses, req.num_uses);
    ASSERT_EQ(resp.bits_per_use, local.bits_per_use);
    for (std::uint32_t u = 0; u < resp.num_uses; ++u) {
        EXPECT_EQ(serve::unpack_bits(resp.bits,
                                     static_cast<std::size_t>(u) * resp.bits_per_use,
                                     resp.bits_per_use),
                  local.bits[u])
            << "use " << u;
    }
    EXPECT_EQ(resp.ml_cost, local.ml_cost);  // exact f64 bit patterns
}

TEST(ServeServer, ServedBatchBitIdenticalToInProcessWithOneWorker) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    serve::request req = small_request(1, 0);
    req.spec = "kxra:k=2";
    const auto resp = cl.call(req);
    expect_served_matches_in_process(resp, req);
    // Admission telemetry at decision time: this request is the one being
    // served, and nothing else is queued.
    EXPECT_EQ(resp.in_flight, 1u);
    EXPECT_EQ(resp.queue_depth, 0u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.served_ok, 1u);
    EXPECT_EQ(stats.requests_admitted, 1u);
}

TEST(ServeServer, ServedBatchesBitIdenticalToInProcessWithEightWorkers) {
    serve::tcp_server server(test_server(8));
    constexpr std::size_t kClients = 8;
    constexpr std::uint64_t kRequestsEach = 3;
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            serve::client cl(server.port());
            for (std::uint64_t seq = 0; seq < kRequestsEach; ++seq) {
                serve::request req = small_request(100 + c, seq);
                req.spec = (c % 2 == 0) ? "sa" : "kxra:k=2";
                const auto resp = cl.call(req);
                expect_served_matches_in_process(resp, req);
                if (resp.state != serve::status::ok) failures.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.stats().served_ok, kClients * kRequestsEach);
}

// Soft round trip (protocol v2): a want_soft batch comes back with LLRs that
// are bit-identical to the in-process run, and they harden to the served bits.
TEST(ServeServer, SoftBatchBitIdenticalToInProcessAndHardensToBits) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    serve::request req = small_request(9, 0);
    req.want_soft = true;
    const auto resp = cl.call(req);
    ASSERT_EQ(resp.state, serve::status::ok) << resp.message;
    const auto local = serve::run_batch(req);
    ASSERT_EQ(resp.llrs.size(),
              static_cast<std::size_t>(resp.num_uses) * resp.bits_per_use);
    ASSERT_EQ(resp.llrs.size(), local.llrs.size());
    for (std::size_t i = 0; i < local.llrs.size(); ++i) {
        EXPECT_EQ(resp.llrs[i], local.llrs[i]) << "llr " << i;  // exact f64
    }
    // Sign convention: positive LLR means bit 0, so the served soft and hard
    // views of the same use can never disagree.
    for (std::uint32_t u = 0; u < resp.num_uses; ++u) {
        const auto hard = serve::unpack_bits(
            resp.bits, static_cast<std::size_t>(u) * resp.bits_per_use,
            resp.bits_per_use);
        for (std::uint32_t b = 0; b < resp.bits_per_use; ++b) {
            const double l = resp.llrs[static_cast<std::size_t>(u) * resp.bits_per_use + b];
            EXPECT_EQ(hard[b], l > 0.0 ? 0 : 1) << "use " << u << " bit " << b;
        }
    }
    // Hard-decision requests stay LLR-free.
    serve::request hard_req = small_request(9, 1);
    EXPECT_TRUE(cl.call(hard_req).llrs.empty());
}

TEST(ServeServer, OversizedSoftBatchIsRejectedAndConnectionSurvives) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    serve::request req = small_request(1, 0);
    req.want_soft = true;
    req.num_uses = 8192;  // 8192 uses * 16 bits * 8 bytes = 1 MiB of LLRs
    const auto resp = cl.call(req);
    EXPECT_EQ(resp.state, serve::status::bad_request);
    EXPECT_NE(resp.message.find("soft-payload cap"), std::string::npos) << resp.message;
    // The frame was well-formed, so the connection stays usable.
    serve::request good = small_request(1, 1);
    expect_served_matches_in_process(cl.call(good), good);
}

// ---------------------------------------------------------------------------
// Hardening: malformed frames, invalid specs, config validation
// ---------------------------------------------------------------------------

TEST(ServeServer, MalformedPayloadGetsBadRequestThenClose) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    const std::vector<std::uint8_t> garbage = {3, 0, 0, 0, 0xFF, 0xFF, 0xFF};
    cl.send_raw(garbage.data(), garbage.size());
    const auto resp = cl.receive();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->state, serve::status::bad_request);
    EXPECT_FALSE(resp->message.empty());
    // Framing downstream of a malformed frame is untrusted: server closes.
    EXPECT_FALSE(cl.receive().has_value());
    EXPECT_GE(server.stats().bad_requests, 1u);
}

TEST(ServeServer, OversizedLengthPrefixGetsBadRequestThenClose) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    const std::uint32_t huge = serve::max_frame_bytes + 1;
    std::uint8_t prefix[4];
    for (int i = 0; i < 4; ++i) prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    cl.send_raw(prefix, sizeof(prefix));
    const auto resp = cl.receive();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->state, serve::status::bad_request);
    EXPECT_FALSE(cl.receive().has_value());
}

TEST(ServeServer, UnknownSpecGetsBadRequestAndConnectionSurvives) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    serve::request req = small_request(1, 0);
    req.spec = "no-such-detector";
    const auto resp = cl.call(req);
    EXPECT_EQ(resp.state, serve::status::bad_request);
    EXPECT_FALSE(resp.message.empty());
    // A NaN SNR would give NaN noise and an ok response with ml_cost NaN.
    serve::request nan_snr = small_request(1, 2);
    nan_snr.snr_db = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(cl.call(nan_snr).state, serve::status::bad_request);
    // The frames themselves were well-formed, so the connection stays usable.
    serve::request good = small_request(1, 1);
    expect_served_matches_in_process(cl.call(good), good);
}

/// Reads one response frame from `fd` if one arrives within `timeout_ms`;
/// nullopt otherwise, so a server that never answers fails the test instead
/// of hanging it.
std::optional<serve::response> receive_within(const serve::unique_fd& fd, int timeout_ms) {
    serve::poller p;
    p.add(fd.get(), /*want_read=*/true, /*want_write=*/false);
    std::vector<serve::ready_event> events;
    p.wait(events, timeout_ms);
    if (events.empty()) return std::nullopt;
    std::uint8_t prefix[4];
    if (!serve::recv_exact(fd.get(), prefix, sizeof(prefix))) return std::nullopt;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
    serve::check_frame_length(len);
    std::vector<std::uint8_t> payload(len);
    if (!serve::recv_exact(fd.get(), payload.data(), payload.size())) return std::nullopt;
    return serve::decode_response(payload);
}

// An invalid spec's error quotes the spec, so a long one would produce a
// message past the wire's string cap.  The answer must still come, cut to
// the cap, and the connection must keep serving.
TEST(ServeServer, LongInvalidSpecGetsOneBadRequestAndConnectionSurvives) {
    for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        serve::tcp_server server(test_server(workers));
        const serve::unique_fd fd = serve::connect_loopback(server.port());
        serve::request bad = small_request(1, 0);
        bad.spec = "zf:" + std::string(2997, 'x');  // 3,000 bytes, not key=value
        const auto bad_bytes = serve::frame(serve::encode_request(bad));
        serve::send_all(fd.get(), bad_bytes.data(), bad_bytes.size());
        const auto resp = receive_within(fd, 5000);
        ASSERT_TRUE(resp.has_value()) << "no answer within 5 s";
        EXPECT_EQ(resp->state, serve::status::bad_request);
        EXPECT_FALSE(resp->message.empty());
        EXPECT_LE(resp->message.size(), serve::max_string_bytes);

        const serve::request good = small_request(1, 1);
        const auto good_bytes = serve::frame(serve::encode_request(good));
        serve::send_all(fd.get(), good_bytes.data(), good_bytes.size());
        const auto served = receive_within(fd, 5000);
        ASSERT_TRUE(served.has_value()) << "no answer within 5 s";
        expect_served_matches_in_process(*served, good);
        EXPECT_EQ(server.stats().bad_requests, 1u);
    }
}

TEST(ServeServer, RejectsNonsenseConfig) {
    serve::server_config config = test_server(0);
    EXPECT_THROW(serve::tcp_server{config}, std::invalid_argument);
    config = test_server(1);
    config.admission_capacity = 0;
    EXPECT_THROW(serve::tcp_server{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Admission control: deadlines and the three backpressure policies
// ---------------------------------------------------------------------------

TEST(ServeServer, DeadlineExceededInQueueIsRejectedWithoutSolving) {
    serve::tcp_server server(test_server(1));
    serve::client cl(server.port());
    serve::request req = small_request(1, 0);
    // Any real queue wait exceeds a 1e-6 us budget; the worker must answer
    // status::deadline without running the batch.
    req.deadline_us = 1e-6;
    const auto resp = cl.call(req);
    EXPECT_EQ(resp.state, serve::status::deadline);
    EXPECT_GT(resp.queue_wait_us, 0.0);
    EXPECT_EQ(resp.num_uses, 0u);
    EXPECT_EQ(server.stats().rejected_deadline, 1u);

    serve::request relaxed = small_request(1, 1);
    relaxed.deadline_us = 60e6;  // a minute of budget: must be served
    expect_served_matches_in_process(cl.call(relaxed), relaxed);
}

// Floods one pipelined connection against a single worker and a one-slot
// admission queue, so rejections are guaranteed while the first admitted
// batch is still solving.
TEST(ServeServer, DropNewestShedsBurstsWithBusy) {
    serve::server_config config = test_server(1);
    config.admission_capacity = 1;
    config.policy = pipeline::backpressure::drop_newest;
    serve::tcp_server server(config);
    serve::client cl(server.port());
    constexpr std::uint64_t kBurst = 24;
    for (std::uint64_t seq = 0; seq < kBurst; ++seq) {
        serve::request req = small_request(1, seq);
        req.spec = "sa";  // slow enough that the burst outruns the worker
        req.num_uses = 32;
        cl.send(req);
    }
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        const auto resp = cl.receive();
        ASSERT_TRUE(resp.has_value()) << "response " << i;
        if (resp->state == serve::status::ok) ++ok;
        if (resp->state == serve::status::busy) {
            ++busy;
            EXPECT_FALSE(resp->message.empty());
        }
    }
    EXPECT_GE(ok, 1u);    // the first admitted request is always served
    EXPECT_GE(busy, 1u);  // and the burst must overflow the one-slot queue
    EXPECT_EQ(server.stats().rejected_busy, busy);
}

TEST(ServeServer, DropOldestEvictsTheLongestWaiter) {
    serve::server_config config = test_server(1);
    config.admission_capacity = 1;
    config.policy = pipeline::backpressure::drop_oldest;
    serve::tcp_server server(config);
    serve::client cl(server.port());
    constexpr std::uint64_t kBurst = 16;
    for (std::uint64_t seq = 0; seq < kBurst; ++seq) {
        serve::request req = small_request(1, seq);
        req.spec = "sa";
        req.num_uses = 32;
        cl.send(req);
    }
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        const auto resp = cl.receive();
        ASSERT_TRUE(resp.has_value()) << "response " << i;
        if (resp->state == serve::status::ok) ++ok;
        if (resp->state == serve::status::busy) ++busy;
    }
    EXPECT_EQ(ok + busy, kBurst);
    EXPECT_GE(server.stats().evictions, 1u);
    // Evicted requests report how long they waited before being shed.
    EXPECT_EQ(server.stats().rejected_busy, busy);
}

// Under the block policy nothing is shed: a full admission queue pauses
// socket reads (TCP backpressure) and parked frames replay once a worker
// frees capacity — every request in the burst must eventually be served.
TEST(ServeServer, BlockPolicyServesTheWholeBurstWithoutRejections) {
    serve::server_config config = test_server(1);
    config.admission_capacity = 1;
    config.policy = pipeline::backpressure::block;
    serve::tcp_server server(config);
    serve::client cl(server.port());
    constexpr std::uint64_t kBurst = 12;
    for (std::uint64_t seq = 0; seq < kBurst; ++seq) {
        serve::request req = small_request(1, seq);
        cl.send(req);
    }
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        const auto resp = cl.receive();
        ASSERT_TRUE(resp.has_value()) << "response " << i;
        EXPECT_EQ(resp->state, serve::status::ok) << resp->message;
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.served_ok, kBurst);
    EXPECT_EQ(stats.rejected_busy, 0u);
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

TEST(ServeLoadgen, ClosedLoopServesEveryRequest) {
    serve::tcp_server server(test_server(4));
    serve::loadgen_config config;
    config.port = server.port();
    config.mode = serve::loadgen_mode::closed_loop;
    config.num_connections = 3;
    config.total_requests = 9;
    config.request_template = small_request(0, 0);
    const auto report = serve::run_loadgen(config);
    EXPECT_EQ(report.sent, 9u);
    EXPECT_EQ(report.ok, 9u);
    EXPECT_EQ(report.reject_fraction(), 0.0);
    EXPECT_GT(report.uses_served, 0u);
    EXPECT_EQ(report.latency.count(), 9u);
    EXPECT_GT(report.latency.p99(), 0.0);
}

TEST(ServeLoadgen, OpenLoopPoissonDrivesAndDrains) {
    serve::tcp_server server(test_server(4));
    serve::loadgen_config config;
    config.port = server.port();
    config.mode = serve::loadgen_mode::open_loop;
    config.num_connections = 2;
    config.offered_rps = 200.0;
    config.duration_s = 0.25;
    config.request_template = small_request(0, 0);
    const auto report = serve::run_loadgen(config);
    EXPECT_GT(report.sent, 0u);
    EXPECT_EQ(report.ok, report.sent);  // tiny zf batches: nothing sheds
    EXPECT_EQ(report.latency.count(), report.sent);
}

TEST(ServeLoadgen, RejectsNonsenseConfig) {
    serve::loadgen_config config;
    config.num_connections = 0;
    EXPECT_THROW((void)serve::run_loadgen(config), std::invalid_argument);
    config.num_connections = 1;
    config.mode = serve::loadgen_mode::open_loop;
    config.offered_rps = 0.0;
    EXPECT_THROW((void)serve::run_loadgen(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Poller / socket layer details worth pinning directly
// ---------------------------------------------------------------------------

TEST(ServeSocket, PollerBookkeepingMisuseThrowsLogicError) {
    serve::poller p;
    serve::wake_pipe pipe;
    p.add(pipe.read_fd(), true, false);
    EXPECT_THROW(p.add(pipe.read_fd(), true, false), std::logic_error);
    p.modify(pipe.read_fd(), true, true);
    p.remove(pipe.read_fd());
    EXPECT_THROW(p.modify(pipe.read_fd(), true, false), std::logic_error);
    EXPECT_THROW(p.remove(pipe.read_fd()), std::logic_error);
}

TEST(ServeSocket, WakePipeInterruptsWait) {
    serve::poller p;
    serve::wake_pipe pipe;
    p.add(pipe.read_fd(), true, false);
    pipe.wake();
    std::vector<serve::ready_event> events;
    p.wait(events, /*timeout_ms=*/1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, pipe.read_fd());
    EXPECT_TRUE(events[0].readable);
    pipe.drain();
}

}  // namespace
