#include "strassen/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "sweep/pool.hpp"

namespace npac::strassen {

Matrix::Matrix(std::int64_t rows, std::int64_t cols, double fill)
    : rows_(rows), cols_(cols) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("Matrix: negative shape");
  }
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
               fill);
}

Matrix Matrix::random(std::int64_t rows, std::int64_t cols,
                      std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  for (double& value : m.data_) value = uniform(rng);
  return m;
}

Matrix Matrix::identity(std::int64_t n) {
  Matrix m(n, n);
  for (std::int64_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double best = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    best = std::max(best, std::abs(a.data_[i] - b.data_[i]));
  }
  return best;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Matrix +: shape mismatch");
  }
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    out.data()[i] = a.data()[i] + b.data()[i];
  }
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Matrix -: shape mismatch");
  }
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    out.data()[i] = a.data()[i] - b.data()[i];
  }
  return out;
}

Matrix classical_multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("classical_multiply: inner dim mismatch");
  }
  const std::int64_t n = a.rows();
  const std::int64_t k = a.cols();
  const std::int64_t m = b.cols();
  Matrix c(n, m);

  // Rows are independent, so the bytes do not depend on the split; blocks
  // of at least 2^16 multiply-adds keep small products off the pool.
  constexpr std::int64_t kMinMultiplyAddsPerBlock = std::int64_t{1} << 16;
  const std::int64_t blocks = std::clamp<std::int64_t>(
      n * k * m / kMinMultiplyAddsPerBlock, 1, std::max<std::int64_t>(n, 1));
  sweep::parallel_for(blocks, [&](std::int64_t block) {
    const auto [begin, end] = sweep::balanced_range(n, blocks, block);
    for (std::int64_t i = begin; i < end; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double aik = a.at(i, kk);
        if (aik == 0.0) continue;
        for (std::int64_t j = 0; j < m; ++j) {
          c.at(i, j) += aik * b.at(kk, j);
        }
      }
    }
  });
  return c;
}

double classical_flops(std::int64_t n, std::int64_t m, std::int64_t k) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(m) *
         static_cast<double>(k);
}

}  // namespace npac::strassen
