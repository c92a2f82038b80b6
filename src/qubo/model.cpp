#include "qubo/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcq::qubo {

qubo_model::qubo_model(std::size_t n) : n_(n), sym_(n * n, 0.0) {}

void qubo_model::reset(std::size_t n) {
    n_ = n;
    offset_ = 0.0;
    sym_.assign(n * n, 0.0);
}

void qubo_model::throw_bad_index(std::size_t) const {
    throw std::out_of_range("qubo_model: variable index out of range");
}

double qubo_model::linear(std::size_t i) const {
    check_index(i);
    return sym_[i * n_ + i];
}

double qubo_model::coefficient(std::size_t i, std::size_t j) const {
    check_index(i);
    check_index(j);
    return sym_[i * n_ + j];
}

void qubo_model::add_term(std::size_t i, std::size_t j, double v) {
    check_index(i);
    check_index(j);
    sym_[i * n_ + j] += v;
    if (i != j) sym_[j * n_ + i] += v;
}

void qubo_model::set_term(std::size_t i, std::size_t j, double v) {
    check_index(i);
    check_index(j);
    sym_[i * n_ + j] = v;
    if (i != j) sym_[j * n_ + i] = v;
}

double qubo_model::energy(std::span<const std::uint8_t> bits) const {
    if (bits.size() != n_) throw std::invalid_argument("qubo_model::energy: wrong bit count");
    double e = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
        if (!bits[i]) continue;
        const double* row_i = sym_.data() + i * n_;
        e += row_i[i];
        for (std::size_t j = i + 1; j < n_; ++j) {
            if (bits[j]) e += row_i[j];
        }
    }
    return e;
}

double qubo_model::local_field(std::size_t i, std::span<const std::uint8_t> bits) const {
    check_index(i);
    if (bits.size() != n_) throw std::invalid_argument("qubo_model::local_field: wrong bit count");
    const double* row_i = sym_.data() + i * n_;
    double f = row_i[i];
    for (std::size_t j = 0; j < n_; ++j) {
        if (j != i && bits[j]) f += row_i[j];
    }
    return f;
}

std::vector<double> qubo_model::local_fields(std::span<const std::uint8_t> bits) const {
    std::vector<double> fields;
    local_fields_into(bits, fields);
    return fields;
}

void qubo_model::local_fields_into(std::span<const std::uint8_t> bits,
                                   std::vector<double>& fields) const {
    if (bits.size() != n_) throw std::invalid_argument("qubo_model::local_fields: wrong bit count");
    fields.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) fields[i] = local_field(i, bits);
}

double qubo_model::flip_delta(std::size_t i, std::span<const std::uint8_t> bits) const {
    const double f = local_field(i, bits);
    return bits[i] ? -f : f;
}

double qubo_model::max_abs_coefficient() const noexcept {
    double m = 0.0;
    for (const double v : sym_) m = std::max(m, std::fabs(v));
    return m;
}

qubo_model qubo_model::fix_variable(std::size_t i, std::uint8_t value,
                                    std::vector<std::size_t>* mapping) const {
    check_index(i);
    if (value > 1) throw std::invalid_argument("fix_variable: value must be 0 or 1");
    if (n_ == 0) throw std::invalid_argument("fix_variable: empty model");

    qubo_model out(n_ - 1);
    out.offset_ = offset_;
    if (mapping != nullptr) {
        mapping->clear();
        mapping->reserve(n_ - 1);
    }

    std::vector<std::size_t> keep;
    keep.reserve(n_ - 1);
    for (std::size_t j = 0; j < n_; ++j) {
        if (j != i) keep.push_back(j);
    }
    if (mapping != nullptr) *mapping = keep;

    for (std::size_t a = 0; a < keep.size(); ++a) {
        const std::size_t ja = keep[a];
        double lin = sym_[ja * n_ + ja];
        if (value == 1) lin += sym_[ja * n_ + i];  // coupling folds into linear
        out.set_term(a, a, lin);
        for (std::size_t b = a + 1; b < keep.size(); ++b) {
            const std::size_t jb = keep[b];
            const double c = sym_[ja * n_ + jb];
            if (c != 0.0) out.set_term(a, b, c);
        }
    }
    if (value == 1) out.offset_ += sym_[i * n_ + i];
    return out;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
    if (a.size() != b.size()) throw std::invalid_argument("hamming_distance: size mismatch");
    std::size_t d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i] ? 1 : 0;
    return d;
}

}  // namespace hcq::qubo
