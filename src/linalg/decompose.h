// Householder QR, Cholesky, and triangular/least-squares solves for the
// small dense systems arising in MIMO detection (zero-forcing, MMSE, sphere
// decoder preprocessing).
#ifndef HCQ_LINALG_DECOMPOSE_H
#define HCQ_LINALG_DECOMPOSE_H

#include <cmath>
#include <stdexcept>

#include "linalg/matrix.h"

namespace hcq::linalg {

/// Thin QR factorisation A = Q R with Q (m x n, orthonormal columns) and
/// R (n x n, upper triangular, real non-negative diagonal).
template <typename T>
struct qr_result {
    basic_matrix<T> q;  ///< m x n, Q^H Q = I
    basic_matrix<T> r;  ///< n x n, upper triangular
};

/// Householder QR; requires rows >= cols and full column rank (diagnosed via
/// a near-zero R diagonal, which throws std::runtime_error).
template <typename T>
[[nodiscard]] qr_result<T> householder_qr(const basic_matrix<T>& a) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) throw std::invalid_argument("householder_qr: requires rows >= cols");
    if (n == 0) throw std::invalid_argument("householder_qr: empty matrix");

    basic_matrix<T> work = a;                       // reduced to R in place
    basic_matrix<T> qfull = basic_matrix<T>::identity(m);  // accumulates Q^H then transposed

    // Rank deficiency shows up as a column whose below-diagonal norm has
    // collapsed relative to the matrix scale.
    const double rank_tol = 1e-10 * std::max(1.0, a.norm_fro());

    for (std::size_t k = 0; k < n; ++k) {
        // Build the Householder vector for column k below the diagonal.
        double norm_x = 0.0;
        for (std::size_t i = k; i < m; ++i) norm_x += abs_sq(work(i, k));
        norm_x = std::sqrt(norm_x);
        if (norm_x < rank_tol) {
            throw std::runtime_error("householder_qr: rank deficient matrix");
        }

        // alpha = -sign(x_k) * |x|, with complex phase for complex T.
        const T xk = work(k, k);
        const double axk = std::sqrt(abs_sq(xk));
        const T phase = axk > 1e-300 ? xk * (1.0 / axk) : T{1};
        const T alpha = phase * (-norm_x);

        std::vector<T> v(m - k);
        v[0] = work(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) v[i - k] = work(i, k);
        double vnorm_sq = 0.0;
        for (const auto& vi : v) vnorm_sq += abs_sq(vi);
        if (vnorm_sq < 1e-300) continue;  // column already reduced

        // Apply P = I - 2 v v^H / (v^H v) to work (cols k..n) and to qfull.
        const auto apply = [&](basic_matrix<T>& mat, std::size_t col_begin,
                               std::size_t col_end) {
            for (std::size_t c = col_begin; c < col_end; ++c) {
                T dot{};
                for (std::size_t i = 0; i < v.size(); ++i) {
                    dot += conj_value(v[i]) * mat(k + i, c);
                }
                const T scale = dot * (2.0 / vnorm_sq);
                for (std::size_t i = 0; i < v.size(); ++i) {
                    mat(k + i, c) -= scale * v[i];
                }
            }
        };
        apply(work, k, n);
        apply(qfull, 0, m);
    }

    // Make the R diagonal real non-negative by absorbing phases into Q.
    for (std::size_t k = 0; k < n; ++k) {
        const T d = work(k, k);
        const double ad = std::sqrt(abs_sq(d));
        if (ad < rank_tol) throw std::runtime_error("householder_qr: rank deficient matrix");
        const T ph = d * (1.0 / ad);          // d = ph * |d|
        const T inv_ph = conj_value(ph);      // unit modulus
        for (std::size_t c = k; c < n; ++c) work(k, c) *= inv_ph;
        for (std::size_t c = 0; c < m; ++c) qfull(k, c) *= inv_ph;
    }

    qr_result<T> out;
    out.r = basic_matrix<T>(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) out.r(i, j) = work(i, j);
    }
    // qfull currently holds Q^H (m x m); thin Q = first n rows, transposed.
    out.q = basic_matrix<T>(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) out.q(i, j) = conj_value(qfull(j, i));
    }
    return out;
}

/// Solves R x = b with R upper triangular (back substitution).
template <typename T>
[[nodiscard]] basic_vector<T> solve_upper(const basic_matrix<T>& r, const basic_vector<T>& b) {
    const std::size_t n = r.rows();
    if (r.cols() != n || b.size() != n) throw std::invalid_argument("solve_upper: shape mismatch");
    basic_vector<T> x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        T acc = b[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x[j];
        if (abs_sq(r(ii, ii)) < 1e-300) throw std::runtime_error("solve_upper: singular");
        x[ii] = acc * (T{1} / r(ii, ii));
    }
    return x;
}

/// Solves L x = b with L lower triangular (forward substitution).
template <typename T>
[[nodiscard]] basic_vector<T> solve_lower(const basic_matrix<T>& l, const basic_vector<T>& b) {
    const std::size_t n = l.rows();
    if (l.cols() != n || b.size() != n) throw std::invalid_argument("solve_lower: shape mismatch");
    basic_vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        T acc = b[i];
        for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * x[j];
        if (abs_sq(l(i, i)) < 1e-300) throw std::runtime_error("solve_lower: singular");
        x[i] = acc * (T{1} / l(i, i));
    }
    return x;
}

/// Least-squares solution of min_x ||a x - y||_2 via QR (requires full
/// column rank).
template <typename T>
[[nodiscard]] basic_vector<T> least_squares(const basic_matrix<T>& a, const basic_vector<T>& y) {
    if (a.rows() != y.size()) throw std::invalid_argument("least_squares: shape mismatch");
    const auto qr = householder_qr(a);
    const auto qhy = qr.q.hermitian() * y;
    return solve_upper(qr.r, qhy);
}

/// Cholesky factorisation A = L L^H of a Hermitian positive-definite matrix;
/// throws std::runtime_error if A is not (numerically) positive definite.
template <typename T>
[[nodiscard]] basic_matrix<T> cholesky(const basic_matrix<T>& a) {
    const std::size_t n = a.rows();
    if (a.cols() != n) throw std::invalid_argument("cholesky: not square");
    basic_matrix<T> l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            T acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * conj_value(l(j, k));
            if (i == j) {
                const double d = std::real(cxd(acc));
                if (d <= 0.0) throw std::runtime_error("cholesky: not positive definite");
                l(i, j) = T{std::sqrt(d)};
            } else {
                l(i, j) = acc * (T{1} / l(j, j));
            }
        }
    }
    return l;
}

// ---------------------------------------------------------------------------
// Scratch-based variants for the detection hot path.
//
// Identical arithmetic to the allocating factorisations above — the only
// change is that every intermediate (the in-place reduction, the Q^H
// accumulator, the Householder vector) lives in a caller-owned scratch that
// is resized (capacity-reusing) instead of freshly allocated, so a warmed-up
// workspace performs the whole factorisation without touching the heap.
// ---------------------------------------------------------------------------

/// Reusable intermediates of householder_qr_into.
template <typename T>
struct qr_scratch {
    basic_matrix<T> work;   ///< in-place reduction to R
    basic_matrix<T> qfull;  ///< accumulates Q^H
    basic_vector<T> v;      ///< Householder vector of the current column
};

/// QR factorisation into a reused result; bit-identical to householder_qr.
template <typename T>
void householder_qr_into(const basic_matrix<T>& a, qr_scratch<T>& scratch, qr_result<T>& out) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) throw std::invalid_argument("householder_qr: requires rows >= cols");
    if (n == 0) throw std::invalid_argument("householder_qr: empty matrix");

    basic_matrix<T>& work = scratch.work;
    work.resize(m, n);
    for (std::size_t i = 0; i < m * n; ++i) work.data()[i] = a.data()[i];
    basic_matrix<T>& qfull = scratch.qfull;
    qfull.resize(m, m);
    for (std::size_t i = 0; i < m; ++i) qfull(i, i) = T{1};

    const double rank_tol = 1e-10 * std::max(1.0, a.norm_fro());

    for (std::size_t k = 0; k < n; ++k) {
        double norm_x = 0.0;
        for (std::size_t i = k; i < m; ++i) norm_x += abs_sq(work(i, k));
        norm_x = std::sqrt(norm_x);
        if (norm_x < rank_tol) {
            throw std::runtime_error("householder_qr: rank deficient matrix");
        }

        const T xk = work(k, k);
        const double axk = std::sqrt(abs_sq(xk));
        const T phase = axk > 1e-300 ? xk * (1.0 / axk) : T{1};
        const T alpha = phase * (-norm_x);

        basic_vector<T>& v = scratch.v;
        v.resize(m - k);
        v[0] = work(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) v[i - k] = work(i, k);
        double vnorm_sq = 0.0;
        for (std::size_t i = 0; i < v.size(); ++i) vnorm_sq += abs_sq(v[i]);
        if (vnorm_sq < 1e-300) continue;

        const auto apply = [&](basic_matrix<T>& mat, std::size_t col_begin,
                               std::size_t col_end) {
            for (std::size_t c = col_begin; c < col_end; ++c) {
                T dot{};
                for (std::size_t i = 0; i < v.size(); ++i) {
                    dot += conj_value(v[i]) * mat(k + i, c);
                }
                const T scale = dot * (2.0 / vnorm_sq);
                for (std::size_t i = 0; i < v.size(); ++i) {
                    mat(k + i, c) -= scale * v[i];
                }
            }
        };
        apply(work, k, n);
        apply(qfull, 0, m);
    }

    for (std::size_t k = 0; k < n; ++k) {
        const T d = work(k, k);
        const double ad = std::sqrt(abs_sq(d));
        if (ad < rank_tol) throw std::runtime_error("householder_qr: rank deficient matrix");
        const T ph = d * (1.0 / ad);
        const T inv_ph = conj_value(ph);
        for (std::size_t c = k; c < n; ++c) work(k, c) *= inv_ph;
        for (std::size_t c = 0; c < m; ++c) qfull(k, c) *= inv_ph;
    }

    out.r.resize(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) out.r(i, j) = work(i, j);
    }
    out.q.resize(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) out.q(i, j) = conj_value(qfull(j, i));
    }
}

/// Back substitution into a reused vector; bit-identical to solve_upper.
template <typename T>
void solve_upper_into(const basic_matrix<T>& r, const basic_vector<T>& b, basic_vector<T>& x) {
    const std::size_t n = r.rows();
    if (r.cols() != n || b.size() != n) throw std::invalid_argument("solve_upper: shape mismatch");
    x.resize(n);
    for (std::size_t ii = n; ii-- > 0;) {
        T acc = b[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x[j];
        if (abs_sq(r(ii, ii)) < 1e-300) throw std::runtime_error("solve_upper: singular");
        x[ii] = acc * (T{1} / r(ii, ii));
    }
}

/// Reusable intermediates of inverse_into.
template <typename T>
struct inverse_scratch {
    qr_scratch<T> qr;
    qr_result<T> factors;
    basic_vector<T> e;    ///< column c of Q^H
    basic_vector<T> col;  ///< column c of the inverse
};

/// Inverse of a square full-rank matrix via QR, into a reused matrix: column
/// c solves R x = (column c of Q^H).
template <typename T>
void inverse_into(const basic_matrix<T>& a, inverse_scratch<T>& scratch, basic_matrix<T>& out) {
    const std::size_t n = a.rows();
    if (a.cols() != n) throw std::invalid_argument("inverse: not square");
    householder_qr_into(a, scratch.qr, scratch.factors);
    out.resize(n, n);
    scratch.e.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t i = 0; i < n; ++i) scratch.e[i] = conj_value(scratch.factors.q(c, i));
        solve_upper_into(scratch.factors.r, scratch.e, scratch.col);
        for (std::size_t i = 0; i < n; ++i) out(i, c) = scratch.col[i];
    }
}

/// Allocating form of inverse_into.
template <typename T>
[[nodiscard]] basic_matrix<T> inverse(const basic_matrix<T>& a) {
    inverse_scratch<T> scratch;
    basic_matrix<T> out;
    inverse_into(a, scratch, out);
    return out;
}

/// Forward substitution into a reused vector; bit-identical to solve_lower.
template <typename T>
void solve_lower_into(const basic_matrix<T>& l, const basic_vector<T>& b, basic_vector<T>& x) {
    const std::size_t n = l.rows();
    if (l.cols() != n || b.size() != n) throw std::invalid_argument("solve_lower: shape mismatch");
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        T acc = b[i];
        for (std::size_t j = 0; j < i; ++j) acc -= l(i, j) * x[j];
        if (abs_sq(l(i, i)) < 1e-300) throw std::runtime_error("solve_lower: singular");
        x[i] = acc * (T{1} / l(i, i));
    }
}

/// Reusable intermediates of least_squares_into.
template <typename T>
struct ls_scratch {
    qr_scratch<T> qr;
    qr_result<T> factors;
    basic_vector<T> qhy;
};

/// Least squares into a reused vector; bit-identical to least_squares
/// (herm_matvec_into performs the Q^H y product with the exact operation
/// order of the materialised q.hermitian() * y).
template <typename T>
void least_squares_into(const basic_matrix<T>& a, const basic_vector<T>& y,
                        ls_scratch<T>& scratch, basic_vector<T>& x) {
    if (a.rows() != y.size()) throw std::invalid_argument("least_squares: shape mismatch");
    householder_qr_into(a, scratch.qr, scratch.factors);
    herm_matvec_into(scratch.factors.q, y, scratch.qhy);
    solve_upper_into(scratch.factors.r, scratch.qhy, x);
}

/// Cholesky into a reused matrix; bit-identical to cholesky.
template <typename T>
void cholesky_into(const basic_matrix<T>& a, basic_matrix<T>& l) {
    const std::size_t n = a.rows();
    if (a.cols() != n) throw std::invalid_argument("cholesky: not square");
    l.resize(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            T acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * conj_value(l(j, k));
            if (i == j) {
                const double d = std::real(cxd(acc));
                if (d <= 0.0) throw std::runtime_error("cholesky: not positive definite");
                l(i, j) = T{std::sqrt(d)};
            } else {
                l(i, j) = acc * (T{1} / l(j, j));
            }
        }
    }
}

}  // namespace hcq::linalg

#endif  // HCQ_LINALG_DECOMPOSE_H
