#include "nn/matrix.h"

#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace drlnoc::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

std::vector<double> Matrix::row(std::size_t r) const {
  assert(r < rows_);
  return std::vector<double>(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

void Matrix::set_row(std::size_t r, const std::vector<double>& values) {
  assert(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

void Matrix::save(std::ostream& os) const {
  os << rows_ << ' ' << cols_ << '\n';
  os.precision(17);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    os << data_[i] << (i + 1 == data_.size() ? '\n' : ' ');
  }
}

void Matrix::load(std::istream& is) {
  std::size_t rows = 0, cols = 0;
  if (!(is >> rows >> cols)) throw std::runtime_error("Matrix::load: header");
  if (rows != rows_ || cols != cols_) {
    throw std::runtime_error(
        "Matrix::load: block is " + std::to_string(rows) + "x" +
        std::to_string(cols) + " but " + std::to_string(rows_) + "x" +
        std::to_string(cols_) + " is expected");
  }
  for (double& v : data_) {
    if (!(is >> v)) throw std::runtime_error("Matrix::load: payload");
  }
}

std::size_t argmax_row(const Matrix& m, std::size_t r) {
  assert(r < m.rows() && m.cols() > 0);
  const double* row = m.row_data(r);
  std::size_t best = 0;
  for (std::size_t c = 1; c < m.cols(); ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

// The kernels below are raw-pointer, register-blocked rewrites of the
// original index-based loops. __restrict__ lets the compiler vectorise the
// contiguous inner loops (it cannot otherwise prove the output rows don't
// alias the inputs). Each output row accumulates FOUR nonzero rank-1 terms
// per pass, with the four adds written as a sequential chain — so every
// output element still sums its terms in ascending-k order with the
// exact-zero skip of the naive loops, and every result bit matches. The
// blocking matters because the naive form reloads and restores the whole C
// row once per k; the zero skip is also a real win on post-ReLU sparsity.

namespace {

/// Nonzero-term slab size (indices + coefficients staged on the stack) and
/// the register-tile width of the accumulation loop: 8 doubles = 4 SSE2 /
/// 2 AVX2 accumulator registers, held across the whole slab.
constexpr std::size_t kSlab = 256;
constexpr std::size_t kJTile = 8;

/// Accumulates `nnz` rank-1 terms into one C row: for each staged k (in
/// ascending order), ci[j] += av[t] * b(k, j). The j-tile keeps eight
/// output elements in registers across the whole slab, so C is loaded and
/// stored once per slab instead of once per term, and each element still
/// receives its terms one by one in ascending-k order (bit-exact).
inline void accumulate_row(double* __restrict__ ci, std::size_t n,
                           const double* __restrict__ pb,
                           const std::size_t* __restrict__ nz,
                           const double* __restrict__ av, std::size_t nnz) {
  std::size_t j = 0;
  for (; j + kJTile <= n; j += kJTile) {
    double acc[kJTile];
    for (std::size_t u = 0; u < kJTile; ++u) acc[u] = ci[j + u];
    for (std::size_t t = 0; t < nnz; ++t) {
      const double a = av[t];
      const double* bk = pb + nz[t] * n + j;
      for (std::size_t u = 0; u < kJTile; ++u) acc[u] += a * bk[u];
    }
    for (std::size_t u = 0; u < kJTile; ++u) ci[j + u] = acc[u];
  }
  for (; j < n; ++j) {
    double acc = ci[j];
    for (std::size_t t = 0; t < nnz; ++t) acc += av[t] * pb[nz[t] * n + j];
    ci[j] = acc;
  }
}

}  // namespace

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  c.resize(m, n, 0.0);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = pa + i * kk;
    double* ci = pc + i * n;
    // Per A row: stage the nonzero k's (ascending, slab at a time) with a
    // branchless cursor — the zero test is data-dependent and would
    // mispredict — then accumulate the slab into the C row.
    for (std::size_t k0 = 0; k0 < kk; k0 += kSlab) {
      const std::size_t k1 = std::min(kk, k0 + kSlab);
      std::size_t nz[kSlab];
      double av[kSlab];
      std::size_t nnz = 0;
      for (std::size_t k = k0; k < k1; ++k) {
        nz[nnz] = k;
        av[nnz] = ai[k];
        nnz += ai[k] != 0.0 ? 1 : 0;
      }
      if (nnz > 0) accumulate_row(ci, n, pb, nz, av, nnz);
    }
  }
}

void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  assert(&c != &a && &c != &b);
  const std::size_t rows = a.rows(), m = a.cols(), n = b.cols();
  c.resize(m, n, 0.0);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  // Interchanged loops (i outer) leave each element's ascending-k term
  // order untouched — only k varies per element — and enable the same
  // slab staging over A's column i (stride-m reads happen once, into the
  // contiguous coefficient buffer).
  for (std::size_t i = 0; i < m; ++i) {
    const double* acol = pa + i;
    double* ci = pc + i * n;
    for (std::size_t k0 = 0; k0 < rows; k0 += kSlab) {
      const std::size_t k1 = std::min(rows, k0 + kSlab);
      std::size_t nz[kSlab];
      double av[kSlab];
      std::size_t nnz = 0;
      for (std::size_t k = k0; k < k1; ++k) {
        const double v = acol[k * m];
        nz[nnz] = k;
        av[nnz] = v;
        nnz += v != 0.0 ? 1 : 0;
      }
      if (nnz > 0) accumulate_row(ci, n, pb, nz, av, nnz);
    }
  }
}

void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  assert(&c != &a && &c != &b);
  const std::size_t m = a.rows(), n = b.rows(), kk = a.cols();
  c.resize(m, n, 0.0);
  const double* __restrict__ pa = a.data();
  const double* __restrict__ pb = b.data();
  double* __restrict__ pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = pa + i * kk;
    double* ci = pc + i * n;
    // Four dot products at a time: independent scalar accumulators break
    // the FP-add dependency chain while each element still sums ascending-k.
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = pb + j * kk;
      const double* b1 = b0 + kk;
      const double* b2 = b1 + kk;
      const double* b3 = b2 + kk;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t k = 0; k < kk; ++k) {
        const double av = ai[k];
        s0 += av * b0[k];
        s1 += av * b1[k];
        s2 += av * b2[k];
        s3 += av * b3[k];
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* bj = pb + j * kk;
      double acc = 0.0;
      for (std::size_t k = 0; k < kk; ++k) acc += ai[k] * bj[k];
      ci[j] = acc;
    }
  }
}

void transpose_into(Matrix& dst, const Matrix& src) {
  assert(&dst != &src);
  const std::size_t m = src.rows(), n = src.cols();
  dst.resize(n, m);
  const double* __restrict__ ps = src.data();
  double* __restrict__ pd = dst.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) pd[j * m + i] = ps[i * n + j];
  }
}

void add_row_inplace(Matrix& a, const Matrix& row) {
  assert(row.rows() == 1 && row.cols() == a.cols());
  assert(&a != &row);
  const double* __restrict__ pr = row.data();
  double* __restrict__ pa = a.data();
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* ai = pa + i * n;
    for (std::size_t j = 0; j < n; ++j) ai[j] += pr[j];
  }
}

void column_sums_into(Matrix& s, const Matrix& a) {
  assert(&s != &a);
  const std::size_t n = a.cols();
  s.resize(1, n, 0.0);
  const double* __restrict__ pa = a.data();
  double* __restrict__ ps = s.data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ai = pa + i * n;
    for (std::size_t j = 0; j < n; ++j) ps[j] += ai[j];
  }
}

}  // namespace drlnoc::nn
