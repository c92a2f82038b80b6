// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "linalg/real_embed.h"

#include <stdexcept>

namespace hcq::linalg {

void real_embedding_into(const cmat& h, rmat& out) {
    const std::size_t m = h.rows();
    const std::size_t n = h.cols();
    out.resize(2 * m, 2 * n);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            const double re = h(r, c).real();
            const double im = h(r, c).imag();
            out(r, c) = re;
            out(r, n + c) = -im;
            out(m + r, c) = im;
            out(m + r, n + c) = re;
        }
    }
}

void real_embedding_into(const cvec& v, rvec& out) {
    const std::size_t m = v.size();
    out.resize(2 * m);
    for (std::size_t i = 0; i < m; ++i) {
        out[i] = v[i].real();
        out[m + i] = v[i].imag();
    }
}

void complex_from_embedding_into(const rvec& v, cvec& out) {
    if (v.size() % 2 != 0) {
        throw std::invalid_argument("complex_from_embedding: odd-sized vector");
    }
    const std::size_t m = v.size() / 2;
    out.resize(m);
    for (std::size_t i = 0; i < m; ++i) out[i] = cxd(v[i], v[m + i]);
}

rmat real_embedding(const cmat& h) {
    rmat out;
    real_embedding_into(h, out);
    return out;
}

rvec real_embedding(const cvec& v) {
    rvec out;
    real_embedding_into(v, out);
    return out;
}

cvec complex_from_embedding(const rvec& v) {
    cvec out;
    complex_from_embedding_into(v, out);
    return out;
}

}  // namespace hcq::linalg
