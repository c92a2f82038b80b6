#include "fec/code_spec.h"

#include "util/spec.h"

namespace hcq::fec {
namespace {

constexpr util::spec::key_row keys[] = {
    {"interleave", "interleaver ROWSxCOLS = coded bits per frame (default 16x8)"}};

/// One code kind and its terminated rate-1/2 convolutional code.
struct code_info {
    util::spec::kind_row kind;
    std::size_t constraint_length;
    std::uint32_t g0;
    std::uint32_t g1;
};

// Octal generator convention: bit j of g selects tap j of the shift
// register window [newest input .. oldest], LSB = oldest state bit after
// the encoder's `full = (b << (K-1)) | state` packing (see conv.cpp).
constexpr code_info codes[] = {
    {{"k3", "toy K=3 code (7,5) - fast tests", keys}, 3, 07, 05},
    {{"k5", "K=5 code (23,35)", keys}, 5, 023, 035},
    {{"k7", "NASA-standard K=7 code (133,171)", keys}, 7, 0133, 0171},
};
constexpr auto kind_rows = util::spec::kind_rows(codes);
constexpr util::spec::family family{"fec", "code kind", "code kind", kind_rows};

const code_info& code_of(const std::string& kind) {
    return codes[util::spec::find_kind(family, kind)];
}

}  // namespace

code_spec code_spec::parse(const std::string& text) {
    const util::spec::parsed p = util::spec::parse(family, text);
    code_spec spec;
    spec.kind = p.kind;
    if (const std::string* value = p.find("interleave")) {
        // One coded frame is a whole number of rate-1/2 code branches with
        // at least one information bit after the K-1 tail.
        // 0 stands for a side that does not read.
        const std::size_t x = value->find('x');
        const std::size_t rows =
            x == std::string::npos
                ? 0
                : util::spec::parse_size_value(value->substr(0, x)).value_or(0);
        const std::size_t cols =
            x == std::string::npos
                ? 0
                : util::spec::parse_size_value(value->substr(x + 1)).value_or(0);
        const std::size_t tail = code_of(spec.kind).constraint_length - 1;
        if (rows == 0 || cols == 0 || rows > 4096 || cols > 4096 || rows * cols % 2 != 0 ||
            rows * cols / 2 <= tail) {
            util::spec::bad_value(family, p, "interleave",
                                  "ROWSxCOLS, each in [1, 4096], with an even product above " +
                                      std::to_string(2 * tail) + ", e.g. 16x8");
        }
        spec.rows = rows;
        spec.cols = cols;
    }
    return spec;
}

std::string code_spec::to_string() const {
    return kind + ":interleave=" + std::to_string(rows) + "x" + std::to_string(cols);
}

std::size_t code_spec::constraint_length() const { return code_of(kind).constraint_length; }

std::vector<std::uint32_t> code_spec::generators() const {
    const code_info& code = code_of(kind);
    return {code.g0, code.g1};
}

std::vector<std::string> code_spec::kinds() { return util::spec::names(family); }

std::string code_spec::help() {
    return util::spec::help(family, "FEC code kinds (--fec kind or kind:key=value,...)");
}

}  // namespace hcq::fec
