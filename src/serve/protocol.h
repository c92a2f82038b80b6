// The detector-bank wire protocol — length-prefixed binary frames carrying
// detection requests and responses between the load-generator client
// (serve/client.h) and the TCP front end (serve/tcp_server.h).
//
// Frame format (all integers little-endian, doubles as IEEE-754 bit
// patterns):
//
//     [u32 payload_len][payload]           payload_len in (0, max_frame_bytes]
//
// Request payload (type 1):
//     u8 version, u8 type,
//     u64 tenant_id, u64 request_seq, u64 seed,
//     f64 deadline_us,
//     u32 num_uses, u32 num_users,
//     f64 snr_db, u8 noiseless, u8 want_soft,
//     str mod, str spec, str channel      (str = u32 length + bytes)
//
// Response payload (type 2):
//     u8 version, u8 type, u8 status,
//     u64 tenant_id, u64 request_seq      (echoed),
//     u32 queue_depth, u32 in_flight, f64 queue_wait_us,
//     str message,
//     u32 num_uses, u32 bits_per_use,
//     bytes packed_bits                    (ceil(num_uses*bits_per_use/8)),
//     f64 ml_cost[num_uses],
//     u8 has_soft,
//     f64 llrs[num_uses*bits_per_use]      (present iff has_soft == 1),
//     f64 synth_us, f64 qubo_us, f64 solve_us
//
// Version history: v2 added the soft-information feature flag — `want_soft`
// on the request and the has_soft/llrs fields on the response (the wire form
// of paths::detection_path::soft_output, canonical wireless/soft.h layout
// and sign convention).  Hard-decision clients simply leave want_soft 0 and
// the response carries no LLR bytes.
//
// Decoding is strictly bounds-checked and self-documenting in the registry
// style: a truncated buffer names the field it starved on, a bad
// version/type/status names the offending value and the accepted ones, and
// an oversized declared length is rejected before any allocation.  A decode
// failure is a protocol_error; the server answers status::bad_request with
// the message and then closes the connection (framing downstream of a
// malformed frame cannot be trusted).
//
// Determinism contract: the master seed of a served batch is
// request_seed(tenant_id, request_seq, seed) — a util::rng double
// derivation — so distinct tenants and retried sequence numbers get
// independent streams while any party (client, server, or an offline
// link-simulator run) can reproduce the exact batch.  serve/service.h
// turns that seed into the link-layer derived streams.
#ifndef HCQ_SERVE_PROTOCOL_H
#define HCQ_SERVE_PROTOCOL_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace hcq::serve {

/// Protocol version carried in every payload; bumped on any layout change
/// (v2: soft-information flag + LLR-bearing responses).
inline constexpr std::uint8_t protocol_version = 2;

/// Hard ceiling on one frame's payload, enforced before allocation on both
/// sides: a corrupt or hostile length prefix must not OOM the server.
inline constexpr std::uint32_t max_frame_bytes = 1u << 20;

/// Ceiling on each string field of a payload, checked apart from the frame
/// so a corrupt length cannot demand a huge allocation before the frame
/// bound would catch it.  Encoding a longer string throws protocol_error.
inline constexpr std::uint32_t max_string_bytes = 4096;

/// Ceiling on channel uses per request (bounds per-request work and the
/// response size well under max_frame_bytes).
inline constexpr std::uint32_t max_batch_uses = 16384;

/// Ceiling on the LLR payload of one soft response (want_soft requests):
/// num_uses * bits_per_use * 8 bytes must fit here, keeping the framed
/// response under max_frame_bytes.  The server rejects larger soft batches
/// as bad-request with a message naming this bound.
inline constexpr std::uint32_t max_soft_payload_bytes = 1u << 19;

/// Response status.  busy / deadline are the 503-style admission-control
/// rejections: the request was well-formed but shed to protect the bank.
enum class status : std::uint8_t {
    ok = 0,           ///< batch served; bits / ml_cost / timings populated
    busy = 1,         ///< admission queue full (backpressure policy shed it)
    deadline = 2,     ///< queue wait already exceeded the request's deadline
    bad_request = 3,  ///< malformed frame or invalid spec/config
    error = 4,        ///< internal failure while serving
};

/// Canonical names: "ok", "busy", "deadline", "bad-request", "error".
[[nodiscard]] const char* to_string(status s) noexcept;

/// Decode-layer failure: truncated, oversized, or inconsistent payload.
class protocol_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One detection request: a path spec plus the channel-use batch it should
/// be served against.  The batch is (num_uses, seed)-addressed — channel
/// uses are synthesized server-side from derived RNG streams, exactly like
/// link::run_link_simulation, so the request stays a few hundred bytes no
/// matter the batch size and the result is reproducible offline.
struct request {
    std::uint64_t tenant_id = 0;    ///< session owner (derives the RNG stream)
    std::uint64_t request_seq = 0;  ///< per-tenant sequence number (ditto)
    std::uint64_t seed = 1;         ///< client-chosen master seed component
    double deadline_us = 0.0;       ///< max queue wait before rejection; 0 = none
    std::uint32_t num_uses = 0;     ///< channel uses in the batch (1..max_batch_uses)
    std::uint32_t num_users = 4;    ///< transmit streams, N_r = N_t
    double snr_db = 16.0;           ///< per-antenna SNR when AWGN is on
    bool noiseless = false;         ///< paper Section-4.2 corpus setting
    /// Soft-information feature flag (protocol v2): when set the server runs
    /// the path's soft_output per use and the ok-response carries per-bit
    /// LLRs beside the hard bits.  Bounded by max_soft_payload_bytes.
    bool want_soft = false;
    std::string mod = "qam16";      ///< modulation name (wireless::parse_modulation)
    std::string spec;               ///< detection-path spec, e.g. "kbest:width=8"
    std::string channel;            ///< wireless channel spec; "" = i.i.d. rayleigh
};

/// One response.  On a non-ok status only the echo/admission fields and
/// `message` are meaningful; the batch payload is empty.
struct response {
    status state = status::ok;
    std::uint64_t tenant_id = 0;    ///< echoed from the request
    std::uint64_t request_seq = 0;  ///< echoed from the request
    std::uint32_t queue_depth = 0;  ///< admission queue length at decision time
    std::uint32_t in_flight = 0;    ///< requests being served by workers at decision time
    double queue_wait_us = 0.0;     ///< how long the request waited before the decision
    std::string message;            ///< self-documenting rejection/error detail; "" on ok
    std::uint32_t num_uses = 0;
    std::uint32_t bits_per_use = 0;
    /// Detected bits, packed LSB-first: bit b of use u is
    /// bits[(u * bits_per_use + b) / 8] >> ((u * bits_per_use + b) % 8) & 1.
    std::vector<std::uint8_t> bits;
    std::vector<double> ml_cost;  ///< per-use ||y - H x_hat||^2
    /// Per-bit LLRs, use-major (llrs[u * bits_per_use + b] is bit b of use
    /// u), canonical wireless/soft.h layout and sign convention.  Present —
    /// size num_uses * bits_per_use — iff the request set want_soft; empty
    /// otherwise (has_soft == 0 on the wire).
    std::vector<double> llrs;
    double synth_us = 0.0;        ///< measured synthesis total across the batch
    double qubo_us = 0.0;         ///< measured QUBO-reduction total
    double solve_us = 0.0;        ///< measured solve total
};

/// Effective master seed of a served batch: util::rng(seed)
/// .derive(tenant_id).derive(request_seq).seed().  The golden loopback test
/// pins served batches against link::run_link_simulation run at this seed.
[[nodiscard]] std::uint64_t request_seed(std::uint64_t tenant_id, std::uint64_t request_seq,
                                         std::uint64_t seed);

/// Serialises a payload (no length prefix).
[[nodiscard]] std::vector<std::uint8_t> encode_request(const request& req);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const response& resp);

/// Parses a payload (no length prefix).  Throws protocol_error naming the
/// offending field on truncation, a version/type mismatch, an oversized
/// string/batch, or trailing garbage.
[[nodiscard]] request decode_request(std::span<const std::uint8_t> payload);
[[nodiscard]] response decode_response(std::span<const std::uint8_t> payload);

/// Prepends the u32 length prefix.  Throws protocol_error when the payload
/// is empty or exceeds max_frame_bytes.
[[nodiscard]] std::vector<std::uint8_t> frame(std::vector<std::uint8_t> payload);

/// Validates a decoded length prefix.  Throws protocol_error on 0 or
/// > max_frame_bytes.
void check_frame_length(std::uint32_t payload_len);

/// Packs one use's bits into `packed` at bit offset `bit_base` (LSB-first).
void pack_bits(std::vector<std::uint8_t>& packed, std::size_t bit_base,
               std::span<const std::uint8_t> use_bits);

/// Unpacks `count` bits starting at `bit_base` into 0/1 bytes.
[[nodiscard]] std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> packed,
                                                    std::size_t bit_base, std::size_t count);

}  // namespace hcq::serve

#endif  // HCQ_SERVE_PROTOCOL_H
