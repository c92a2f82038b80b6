#include "serve/protocol.h"

#include <cstring>

#include "util/rng.h"

namespace hcq::serve {
namespace {

constexpr std::uint8_t type_request = 1;
constexpr std::uint8_t type_response = 2;

/// Little-endian byte writer.
class writer {
public:
    void u8(std::uint8_t v) { out_.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void str(const std::string& s) {
        if (s.size() > max_string_bytes) {
            throw protocol_error("serve: encode: string field of " + std::to_string(s.size()) +
                                 " bytes exceeds the " + std::to_string(max_string_bytes) +
                                 "-byte cap");
        }
        u32(static_cast<std::uint32_t>(s.size()));
        out_.insert(out_.end(), s.begin(), s.end());
    }
    void bytes(std::span<const std::uint8_t> b) { out_.insert(out_.end(), b.begin(), b.end()); }

    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

private:
    std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reader; every primitive names the field it
/// is decoding so a truncated payload produces a self-documenting error.
class reader {
public:
    reader(std::span<const std::uint8_t> data, const char* what) : data_(data), what_(what) {}

    [[nodiscard]] std::uint8_t u8(const char* field) {
        need(1, field);
        return data_[pos_++];
    }
    [[nodiscard]] std::uint32_t u32(const char* field) {
        need(4, field);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }
    [[nodiscard]] std::uint64_t u64(const char* field) {
        need(8, field);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }
    [[nodiscard]] double f64(const char* field) {
        const std::uint64_t bits = u64(field);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    [[nodiscard]] std::string str(const char* field) {
        const std::uint32_t len = u32(field);
        if (len > max_string_bytes) {
            throw protocol_error(std::string("serve: decode ") + what_ + ": field '" + field +
                                 "' declares " + std::to_string(len) + " bytes (cap " +
                                 std::to_string(max_string_bytes) + ")");
        }
        need(len, field);
        std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
        pos_ += len;
        return s;
    }
    [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t len, const char* field) {
        need(len, field);
        const auto view = data_.subspan(pos_, len);
        pos_ += len;
        return view;
    }

    /// Rejects trailing garbage: a payload longer than its fields signals a
    /// framing or version mismatch worth failing loudly on.
    void expect_end() const {
        if (pos_ != data_.size()) {
            throw protocol_error(std::string("serve: decode ") + what_ + ": " +
                                 std::to_string(data_.size() - pos_) +
                                 " trailing byte(s) after the last field");
        }
    }

private:
    void need(std::size_t n, const char* field) const {
        if (data_.size() - pos_ < n) {
            throw protocol_error(std::string("serve: decode ") + what_ +
                                 ": truncated at field '" + field + "' (need " +
                                 std::to_string(n) + " byte(s), have " +
                                 std::to_string(data_.size() - pos_) + ")");
        }
    }

    std::span<const std::uint8_t> data_;
    const char* what_;
    std::size_t pos_ = 0;
};

void check_header(reader& r, const char* what, std::uint8_t expected_type) {
    const std::uint8_t version = r.u8("version");
    if (version != protocol_version) {
        throw protocol_error(std::string("serve: decode ") + what + ": protocol version " +
                             std::to_string(version) + " (this build speaks version " +
                             std::to_string(protocol_version) + ")");
    }
    const std::uint8_t type = r.u8("type");
    if (type != expected_type) {
        throw protocol_error(std::string("serve: decode ") + what + ": payload type " +
                             std::to_string(type) + " (expected " +
                             std::to_string(expected_type) + ")");
    }
}

}  // namespace

const char* to_string(status s) noexcept {
    switch (s) {
        case status::ok: return "ok";
        case status::busy: return "busy";
        case status::deadline: return "deadline";
        case status::bad_request: return "bad-request";
        case status::error: return "error";
    }
    return "unknown";
}

std::uint64_t request_seed(std::uint64_t tenant_id, std::uint64_t request_seq,
                           std::uint64_t seed) {
    return util::rng(seed).derive(tenant_id).derive(request_seq).seed();
}

std::vector<std::uint8_t> encode_request(const request& req) {
    writer w;
    w.u8(protocol_version);
    w.u8(type_request);
    w.u64(req.tenant_id);
    w.u64(req.request_seq);
    w.u64(req.seed);
    w.f64(req.deadline_us);
    w.u32(req.num_uses);
    w.u32(req.num_users);
    w.f64(req.snr_db);
    w.u8(req.noiseless ? 1 : 0);
    w.u8(req.want_soft ? 1 : 0);
    w.str(req.mod);
    w.str(req.spec);
    w.str(req.channel);
    return w.take();
}

request decode_request(std::span<const std::uint8_t> payload) {
    reader r(payload, "request");
    check_header(r, "request", type_request);
    request req;
    req.tenant_id = r.u64("tenant_id");
    req.request_seq = r.u64("request_seq");
    req.seed = r.u64("seed");
    req.deadline_us = r.f64("deadline_us");
    req.num_uses = r.u32("num_uses");
    req.num_users = r.u32("num_users");
    req.snr_db = r.f64("snr_db");
    req.noiseless = r.u8("noiseless") != 0;
    req.want_soft = r.u8("want_soft") != 0;
    req.mod = r.str("mod");
    req.spec = r.str("spec");
    req.channel = r.str("channel");
    r.expect_end();
    if (req.num_uses == 0 || req.num_uses > max_batch_uses) {
        throw protocol_error("serve: decode request: num_uses " + std::to_string(req.num_uses) +
                             " outside 1.." + std::to_string(max_batch_uses));
    }
    return req;
}

std::vector<std::uint8_t> encode_response(const response& resp) {
    writer w;
    w.u8(protocol_version);
    w.u8(type_response);
    w.u8(static_cast<std::uint8_t>(resp.state));
    w.u64(resp.tenant_id);
    w.u64(resp.request_seq);
    w.u32(resp.queue_depth);
    w.u32(resp.in_flight);
    w.f64(resp.queue_wait_us);
    w.str(resp.message);
    w.u32(resp.num_uses);
    w.u32(resp.bits_per_use);
    w.bytes(resp.bits);
    for (const double c : resp.ml_cost) w.f64(c);
    const std::size_t total_bits =
        static_cast<std::size_t>(resp.num_uses) * resp.bits_per_use;
    if (!resp.llrs.empty() && resp.llrs.size() != total_bits) {
        throw protocol_error("serve: encode response: " + std::to_string(resp.llrs.size()) +
                             " LLRs for " + std::to_string(total_bits) + " batch bits");
    }
    w.u8(resp.llrs.empty() ? 0 : 1);
    for (const double l : resp.llrs) w.f64(l);
    w.f64(resp.synth_us);
    w.f64(resp.qubo_us);
    w.f64(resp.solve_us);
    return w.take();
}

response decode_response(std::span<const std::uint8_t> payload) {
    reader r(payload, "response");
    check_header(r, "response", type_response);
    response resp;
    const std::uint8_t state = r.u8("status");
    if (state > static_cast<std::uint8_t>(status::error)) {
        throw protocol_error("serve: decode response: status code " + std::to_string(state) +
                             " (accepted: 0..4)");
    }
    resp.state = static_cast<status>(state);
    resp.tenant_id = r.u64("tenant_id");
    resp.request_seq = r.u64("request_seq");
    resp.queue_depth = r.u32("queue_depth");
    resp.in_flight = r.u32("in_flight");
    resp.queue_wait_us = r.f64("queue_wait_us");
    resp.message = r.str("message");
    resp.num_uses = r.u32("num_uses");
    resp.bits_per_use = r.u32("bits_per_use");
    if (resp.num_uses > max_batch_uses) {
        throw protocol_error("serve: decode response: num_uses " +
                             std::to_string(resp.num_uses) + " exceeds the batch cap " +
                             std::to_string(max_batch_uses));
    }
    if (resp.bits_per_use > 4096) {
        throw protocol_error("serve: decode response: bits_per_use " +
                             std::to_string(resp.bits_per_use) + " is implausible (cap 4096)");
    }
    const std::size_t total_bits =
        static_cast<std::size_t>(resp.num_uses) * resp.bits_per_use;
    const std::size_t packed_len = (total_bits + 7) / 8;
    const auto packed = r.bytes(packed_len, "bits");
    resp.bits.assign(packed.begin(), packed.end());
    resp.ml_cost.resize(resp.num_uses);
    for (std::uint32_t u = 0; u < resp.num_uses; ++u) resp.ml_cost[u] = r.f64("ml_cost");
    const std::uint8_t has_soft = r.u8("has_soft");
    if (has_soft > 1) {
        throw protocol_error("serve: decode response: has_soft flag " +
                             std::to_string(has_soft) + " (accepted: 0 or 1)");
    }
    if (has_soft == 1) {
        // Bounds-check the whole LLR block BEFORE sizing the vector, so a
        // hostile header cannot demand a huge allocation the payload does
        // not back (total_bits is already capped by the checks above).
        const auto llr_bytes = r.bytes(total_bits * 8, "llrs");
        resp.llrs.resize(total_bits);
        for (std::size_t b = 0; b < total_bits; ++b) {
            std::uint64_t v = 0;
            for (int i = 0; i < 8; ++i) {
                v |= static_cast<std::uint64_t>(llr_bytes[b * 8 + i]) << (8 * i);
            }
            std::memcpy(&resp.llrs[b], &v, sizeof(double));
        }
    }
    resp.synth_us = r.f64("synth_us");
    resp.qubo_us = r.f64("qubo_us");
    resp.solve_us = r.f64("solve_us");
    r.expect_end();
    return resp;
}

std::vector<std::uint8_t> frame(std::vector<std::uint8_t> payload) {
    check_frame_length(static_cast<std::uint32_t>(payload.size()));
    std::vector<std::uint8_t> out;
    out.reserve(4 + payload.size());
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

void check_frame_length(std::uint32_t payload_len) {
    if (payload_len == 0) {
        throw protocol_error("serve: frame declares an empty payload");
    }
    if (payload_len > max_frame_bytes) {
        throw protocol_error("serve: frame declares " + std::to_string(payload_len) +
                             " payload bytes (cap " + std::to_string(max_frame_bytes) + ")");
    }
}

void pack_bits(std::vector<std::uint8_t>& packed, std::size_t bit_base,
               std::span<const std::uint8_t> use_bits) {
    const std::size_t need = (bit_base + use_bits.size() + 7) / 8;
    if (packed.size() < need) packed.resize(need, 0);
    for (std::size_t b = 0; b < use_bits.size(); ++b) {
        if (use_bits[b] != 0) {
            packed[(bit_base + b) / 8] |= static_cast<std::uint8_t>(1u << ((bit_base + b) % 8));
        }
    }
}

std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> packed,
                                      std::size_t bit_base, std::size_t count) {
    std::vector<std::uint8_t> out(count, 0);
    for (std::size_t b = 0; b < count; ++b) {
        const std::size_t bit = bit_base + b;
        if (bit / 8 >= packed.size()) {
            throw protocol_error("serve: unpack_bits: bit " + std::to_string(bit) +
                                 " beyond the packed buffer (" + std::to_string(packed.size()) +
                                 " bytes)");
        }
        out[b] = (packed[bit / 8] >> (bit % 8)) & 1u;
    }
    return out;
}

}  // namespace hcq::serve
