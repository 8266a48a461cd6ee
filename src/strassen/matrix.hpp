// Dense row-major matrices and the classical GEMM baseline.
//
// The paper's Experiment B runs the CAPS Strassen–Winograd implementation
// of Lipshitz et al.; this module supplies the dense substrate: a minimal
// value-type matrix, a blocked classical multiply (the correctness oracle
// and recursion cutoff), and helpers used by the Strassen–Winograd kernel.
#pragma once

#include <cstdint>
#include <vector>

namespace npac::strassen {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::int64_t rows, std::int64_t cols, double fill = 0.0);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  double& at(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  double at(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Deterministic pseudo-random fill in [-1, 1] (seeded).
  static Matrix random(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed);

  static Matrix identity(std::int64_t n);

  /// Largest absolute elementwise difference.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  bool operator==(const Matrix& other) const = default;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);

/// Blocked classical multiply (i-k-j order), parallel over row blocks on
/// sweep::parallel_for. The correctness oracle for the Strassen–Winograd
/// kernel.
Matrix classical_multiply(const Matrix& a, const Matrix& b);

/// Flop count of the classical algorithm: 2 n m k.
double classical_flops(std::int64_t n, std::int64_t m, std::int64_t k);

}  // namespace npac::strassen
