#include "wireless/modulation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcq::wireless {

const std::vector<modulation>& all_modulations() {
    static const std::vector<modulation> mods{modulation::bpsk, modulation::qpsk,
                                              modulation::qam16, modulation::qam64};
    return mods;
}

std::string to_string(modulation mod) {
    switch (mod) {
        case modulation::bpsk: return "BPSK";
        case modulation::qpsk: return "QPSK";
        case modulation::qam16: return "16-QAM";
        case modulation::qam64: return "64-QAM";
    }
    return "?";
}

modulation parse_modulation(const std::string& name) {
    if (name == "BPSK" || name == "bpsk") return modulation::bpsk;
    if (name == "QPSK" || name == "qpsk") return modulation::qpsk;
    if (name == "16-QAM" || name == "qam16" || name == "16qam") return modulation::qam16;
    if (name == "64-QAM" || name == "qam64" || name == "64qam") return modulation::qam64;
    throw std::invalid_argument(
        "unknown modulation: '" + name +
        "' (expected one of: bpsk, qpsk, qam16/16qam, qam64/64qam, or the display names "
        "BPSK, QPSK, 16-QAM, 64-QAM)");
}

std::size_t bits_per_symbol(modulation mod) noexcept {
    switch (mod) {
        case modulation::bpsk: return 1;
        case modulation::qpsk: return 2;
        case modulation::qam16: return 4;
        case modulation::qam64: return 6;
    }
    return 0;
}

std::size_t bits_per_dimension(modulation mod) noexcept {
    switch (mod) {
        case modulation::bpsk: return 1;
        case modulation::qpsk: return 1;
        case modulation::qam16: return 2;
        case modulation::qam64: return 3;
    }
    return 0;
}

bool uses_quadrature(modulation mod) noexcept { return mod != modulation::bpsk; }

double mean_symbol_energy(modulation mod) noexcept {
    // Per dimension with k bits the lattice is odd integers up to 2^k - 1;
    // mean square is (4^k - 1) / 3.
    const auto k = static_cast<double>(bits_per_dimension(mod));
    const double per_dim = (std::pow(4.0, k) - 1.0) / 3.0;
    return uses_quadrature(mod) ? 2.0 * per_dim : per_dim;
}

double pam_amplitude(std::span<const std::uint8_t> bits) {
    if (bits.empty()) throw std::invalid_argument("pam_amplitude: no bits");
    double amp = 0.0;
    double weight = std::pow(2.0, static_cast<double>(bits.size() - 1));
    for (const auto b : bits) {
        if (b > 1) throw std::invalid_argument("pam_amplitude: bit not 0/1");
        amp += weight * (2.0 * b - 1.0);
        weight /= 2.0;
    }
    return amp;
}

cxd modulate_symbol(modulation mod, std::span<const std::uint8_t> bits) {
    const std::size_t need = bits_per_symbol(mod);
    if (bits.size() != need) {
        throw std::invalid_argument("modulate_symbol: expected " + std::to_string(need) +
                                    " bits, got " + std::to_string(bits.size()));
    }
    const std::size_t k = bits_per_dimension(mod);
    const double re = pam_amplitude(bits.subspan(0, k));
    const double im = uses_quadrature(mod) ? pam_amplitude(bits.subspan(k, k)) : 0.0;
    return {re, im};
}

std::vector<cxd> constellation(modulation mod) {
    const std::size_t nbits = bits_per_symbol(mod);
    const std::size_t count = std::size_t{1} << nbits;
    std::vector<cxd> points;
    points.reserve(count);
    for (std::size_t pattern = 0; pattern < count; ++pattern) {
        std::vector<std::uint8_t> bits(nbits);
        for (std::size_t j = 0; j < nbits; ++j) {
            bits[j] = static_cast<std::uint8_t>((pattern >> (nbits - 1 - j)) & 1U);
        }
        points.push_back(modulate_symbol(mod, bits));
    }
    return points;
}

void pam_bits_into(double value, std::size_t k, std::uint8_t* out) {
    if (k == 0 || k > 16) throw std::invalid_argument("pam_bits: bad dimension size");
    const double max_amp = std::pow(2.0, static_cast<double>(k)) - 1.0;
    // Slice to the nearest odd integer within the lattice.
    double sliced = 2.0 * std::round((value - 1.0) / 2.0) + 1.0;
    sliced = std::clamp(sliced, -max_amp, max_amp);
    // amplitude = 2*level - (2^k - 1) with level in [0, 2^k); invert.
    const auto level = static_cast<std::uint32_t>((sliced + max_amp) / 2.0);
    for (std::size_t j = 0; j < k; ++j) {
        out[j] = static_cast<std::uint8_t>((level >> (k - 1 - j)) & 1U);
    }
}

void demodulate_symbol_into(modulation mod, cxd symbol, std::uint8_t* out) {
    const std::size_t k = bits_per_dimension(mod);
    pam_bits_into(symbol.real(), k, out);
    if (uses_quadrature(mod)) pam_bits_into(symbol.imag(), k, out + k);
}

void modulate_into(modulation mod, std::span<const std::uint8_t> bits, linalg::cvec& out) {
    const std::size_t per = bits_per_symbol(mod);
    if (bits.size() % per != 0) {
        throw std::invalid_argument("modulate: bit count not a multiple of bits/symbol");
    }
    const std::size_t n = bits.size() / per;
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = modulate_symbol(mod, bits.subspan(i * per, per));
    }
}

void demodulate_into(modulation mod, const linalg::cvec& symbols, std::vector<std::uint8_t>& out) {
    const std::size_t per = bits_per_symbol(mod);
    out.resize(symbols.size() * per);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        demodulate_symbol_into(mod, symbols[i], out.data() + i * per);
    }
}

std::vector<std::uint8_t> pam_bits(double value, std::size_t k) {
    if (k == 0 || k > 16) throw std::invalid_argument("pam_bits: bad dimension size");
    std::vector<std::uint8_t> bits(k);
    pam_bits_into(value, k, bits.data());
    return bits;
}

std::vector<std::uint8_t> demodulate_symbol(modulation mod, cxd symbol) {
    std::vector<std::uint8_t> bits(bits_per_symbol(mod));
    demodulate_symbol_into(mod, symbol, bits.data());
    return bits;
}

linalg::cvec modulate(modulation mod, std::span<const std::uint8_t> bits) {
    linalg::cvec out;
    modulate_into(mod, bits, out);
    return out;
}

std::vector<std::uint8_t> demodulate(modulation mod, const linalg::cvec& symbols) {
    std::vector<std::uint8_t> bits;
    demodulate_into(mod, symbols, bits);
    return bits;
}

std::uint32_t gray_encode(std::uint32_t value) noexcept { return value ^ (value >> 1); }

std::uint32_t gray_decode(std::uint32_t value) noexcept {
    std::uint32_t out = value;
    for (std::uint32_t shift = 1; shift < 32; shift <<= 1) out ^= out >> shift;
    return out;
}

}  // namespace hcq::wireless
