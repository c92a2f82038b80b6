// Dense row-major matrices and vectors over double or std::complex<double>.
//
// Problem sizes in this library are small (tens of antennas/users), so a
// straightforward dense implementation is both sufficient and easy to verify.
#ifndef HCQ_LINALG_MATRIX_H
#define HCQ_LINALG_MATRIX_H

#include <cmath>
#include <complex>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace hcq::linalg {

using cxd = std::complex<double>;

/// conj that is the identity on reals (std::conj(double) would promote).
[[nodiscard]] inline double conj_value(double x) noexcept { return x; }
[[nodiscard]] inline cxd conj_value(const cxd& x) noexcept { return std::conj(x); }

/// |x|^2 for real or complex scalars.
[[nodiscard]] inline double abs_sq(double x) noexcept { return x * x; }
[[nodiscard]] inline double abs_sq(const cxd& x) noexcept { return std::norm(x); }

/// Dense row-major matrix over scalar T (double or cxd).
template <typename T>
class basic_matrix {
public:
    basic_matrix() = default;

    /// rows x cols zero matrix.
    basic_matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

    /// Row-major construction from a flat list; size must be rows*cols.
    basic_matrix(std::size_t rows, std::size_t cols, std::initializer_list<T> values)
        : rows_(rows), cols_(cols), data_(values) {
        if (data_.size() != rows * cols) {
            throw std::invalid_argument("basic_matrix: initializer size mismatch");
        }
    }

    [[nodiscard]] static basic_matrix identity(std::size_t n) {
        basic_matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
        return m;
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Reshapes to rows x cols and zero-fills, reusing the existing
    /// allocation when it is large enough — the primitive behind every
    /// write-into-workspace overload (zero steady-state allocations once
    /// the scratch buffers have reached their high-water mark).
    void resize(std::size_t rows, std::size_t cols) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, T{});
    }

    /// Raw row-major storage (rows() * cols() elements); hot kernels index
    /// rows as data() + r * cols().
    [[nodiscard]] T* data() noexcept { return data_.data(); }
    [[nodiscard]] const T* data() const noexcept { return data_.data(); }

    /// Element capacity of the underlying allocation (for the workspace
    /// growth instrumentation).
    [[nodiscard]] std::size_t capacity() const noexcept { return data_.capacity(); }

    [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }

    /// Bounds-checked element access.
    [[nodiscard]] T& at(std::size_t r, std::size_t c) {
        check(r, c);
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
        check(r, c);
        return data_[r * cols_ + c];
    }

    /// Conjugate transpose (plain transpose for real T); allocating form of
    /// hermitian_into.
    [[nodiscard]] basic_matrix hermitian() const {
        basic_matrix out;
        hermitian_into(*this, out);
        return out;
    }

    /// Plain transpose.
    [[nodiscard]] basic_matrix transpose() const {
        basic_matrix out(cols_, rows_);
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
        }
        return out;
    }

    /// Frobenius norm.
    [[nodiscard]] double norm_fro() const {
        double s = 0.0;
        for (const auto& v : data_) s += abs_sq(v);
        return std::sqrt(s);
    }

    basic_matrix& operator+=(const basic_matrix& o) {
        require_same_shape(o);
        for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
        return *this;
    }
    basic_matrix& operator-=(const basic_matrix& o) {
        require_same_shape(o);
        for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
        return *this;
    }
    basic_matrix& operator*=(T scalar) {
        for (auto& v : data_) v *= scalar;
        return *this;
    }

    friend basic_matrix operator+(basic_matrix a, const basic_matrix& b) { return a += b; }
    friend basic_matrix operator-(basic_matrix a, const basic_matrix& b) { return a -= b; }
    friend basic_matrix operator*(basic_matrix a, T scalar) { return a *= scalar; }
    friend basic_matrix operator*(T scalar, basic_matrix a) { return a *= scalar; }

    /// Matrix product; allocating form of multiply_into.
    friend basic_matrix operator*(const basic_matrix& a, const basic_matrix& b) {
        basic_matrix out;
        multiply_into(a, b, out);
        return out;
    }

private:
    void check(std::size_t r, std::size_t c) const {
        if (r >= rows_ || c >= cols_) throw std::out_of_range("basic_matrix::at");
    }
    void require_same_shape(const basic_matrix& o) const {
        if (rows_ != o.rows_ || cols_ != o.cols_) {
            throw std::invalid_argument("basic_matrix: shape mismatch");
        }
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

/// Dense vector over scalar T.
template <typename T>
class basic_vector {
public:
    basic_vector() = default;
    explicit basic_vector(std::size_t n) : data_(n, T{}) {}
    basic_vector(std::initializer_list<T> values) : data_(values) {}
    explicit basic_vector(std::vector<T> values) : data_(std::move(values)) {}

    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

    /// Resizes to n elements and zero-fills, reusing the allocation.
    void resize(std::size_t n) { data_.assign(n, T{}); }

    [[nodiscard]] T* data() noexcept { return data_.data(); }
    [[nodiscard]] const T* data() const noexcept { return data_.data(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return data_.capacity(); }

    [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

    [[nodiscard]] T& at(std::size_t i) { return data_.at(i); }
    [[nodiscard]] const T& at(std::size_t i) const { return data_.at(i); }

    [[nodiscard]] std::vector<T>& raw() noexcept { return data_; }
    [[nodiscard]] const std::vector<T>& raw() const noexcept { return data_; }

    /// Euclidean norm.
    [[nodiscard]] double norm2() const {
        double s = 0.0;
        for (const auto& v : data_) s += abs_sq(v);
        return std::sqrt(s);
    }

    basic_vector& operator+=(const basic_vector& o) {
        require_same_size(o);
        for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
        return *this;
    }
    basic_vector& operator-=(const basic_vector& o) {
        require_same_size(o);
        for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
        return *this;
    }
    basic_vector& operator*=(T scalar) {
        for (auto& v : data_) v *= scalar;
        return *this;
    }

    friend basic_vector operator+(basic_vector a, const basic_vector& b) { return a += b; }
    friend basic_vector operator-(basic_vector a, const basic_vector& b) { return a -= b; }
    friend basic_vector operator*(basic_vector a, T scalar) { return a *= scalar; }
    friend basic_vector operator*(T scalar, basic_vector a) { return a *= scalar; }

private:
    void require_same_size(const basic_vector& o) const {
        if (data_.size() != o.data_.size()) {
            throw std::invalid_argument("basic_vector: size mismatch");
        }
    }

    std::vector<T> data_;
};

using cmat = basic_matrix<cxd>;
using cvec = basic_vector<cxd>;
using rmat = basic_matrix<double>;
using rvec = basic_vector<double>;

/// Inner product a^H b (conjugates the first argument for complex T).
template <typename T>
[[nodiscard]] T inner(const basic_vector<T>& a, const basic_vector<T>& b) {
    if (a.size() != b.size()) throw std::invalid_argument("inner: size mismatch");
    T acc{};
    for (std::size_t i = 0; i < a.size(); ++i) acc += conj_value(a[i]) * b[i];
    return acc;
}

// ---------------------------------------------------------------------------
// Write-into kernels for the detection hot path.
//
// Each kernel reuses the caller's output buffer (resize reuses capacity);
// hermitian() and both operator* forms are these kernels run on a fresh
// buffer.  Loops run over raw row pointers so both supported compilers
// auto-vectorise them at -O2 without intrinsics.
// ---------------------------------------------------------------------------

/// out = a * b, accumulating over k in ascending order and skipping
/// exact-zero a(r, k) terms.
template <typename T>
void multiply_into(const basic_matrix<T>& a, const basic_matrix<T>& b, basic_matrix<T>& out) {
    if (a.cols() != b.rows()) throw std::invalid_argument("matrix multiply: shape mismatch");
    out.resize(a.rows(), b.cols());
    const std::size_t bc = b.cols();
    for (std::size_t r = 0; r < a.rows(); ++r) {
        T* orow = out.data() + r * bc;
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const T ark = a(r, k);
            if (ark == T{}) continue;
            const T* brow = b.data() + k * bc;
            for (std::size_t c = 0; c < bc; ++c) orow[c] += ark * brow[c];
        }
    }
}

/// out = m * v, each entry accumulated in ascending column order.
template <typename T>
void matvec_into(const basic_matrix<T>& m, const basic_vector<T>& v, basic_vector<T>& out) {
    if (m.cols() != v.size()) throw std::invalid_argument("matrix-vector: shape mismatch");
    out.resize(m.rows());
    const std::size_t n = m.cols();
    const T* vp = v.data();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const T* row = m.data() + r * n;
        T acc{};
        for (std::size_t c = 0; c < n; ++c) acc += row[c] * vp[c];
        out[r] = acc;
    }
}

/// Matrix-vector product; allocating form of matvec_into.
template <typename T>
[[nodiscard]] basic_vector<T> operator*(const basic_matrix<T>& m, const basic_vector<T>& v) {
    basic_vector<T> out;
    matvec_into(m, v, out);
    return out;
}

/// out = m.hermitian() * v without materialising the transpose: entry i is
/// sum_j conj(m(j, i)) * v[j] accumulated in ascending j.
template <typename T>
void herm_matvec_into(const basic_matrix<T>& m, const basic_vector<T>& v, basic_vector<T>& out) {
    if (m.rows() != v.size()) throw std::invalid_argument("herm_matvec_into: shape mismatch");
    out.resize(m.cols());
    for (std::size_t i = 0; i < m.cols(); ++i) {
        T acc{};
        for (std::size_t j = 0; j < m.rows(); ++j) acc += conj_value(m(j, i)) * v[j];
        out[i] = acc;
    }
}

/// out = a.hermitian() (conjugate transpose) into a reused buffer.
template <typename T>
void hermitian_into(const basic_matrix<T>& a, basic_matrix<T>& out) {
    out.resize(a.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = conj_value(a(r, c));
    }
}

/// out = a.hermitian() * a without materialising the transpose: row r
/// accumulates conj(a(k, r)) * a(k, .) over ascending k, skipping exact-zero
/// a(k, r) terms.
template <typename T>
void gram_into(const basic_matrix<T>& a, basic_matrix<T>& out) {
    out.resize(a.cols(), a.cols());
    const std::size_t n = a.cols();
    for (std::size_t r = 0; r < n; ++r) {
        T* orow = out.data() + r * n;
        for (std::size_t k = 0; k < a.rows(); ++k) {
            const T ark = conj_value(a(k, r));
            if (ark == T{}) continue;
            const T* arow = a.data() + k * n;
            for (std::size_t c = 0; c < n; ++c) orow[c] += ark * arow[c];
        }
    }
}

/// y += alpha * x over raw spans (the classic axpy; hot solver row updates).
template <typename T>
void axpy(T alpha, const T* x, T* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace hcq::linalg

#endif  // HCQ_LINALG_MATRIX_H
