#include "strassen/winograd.hpp"

#include <stdexcept>

#include "sweep/pool.hpp"

namespace npac::strassen {

namespace {

Matrix quadrant(const Matrix& m, int qi, int qj) {
  const std::int64_t half = m.rows() / 2;
  Matrix out(half, half);
  const std::int64_t row0 = qi * half;
  const std::int64_t col0 = qj * half;
  for (std::int64_t i = 0; i < half; ++i) {
    for (std::int64_t j = 0; j < half; ++j) {
      out.at(i, j) = m.at(row0 + i, col0 + j);
    }
  }
  return out;
}

void place_quadrant(Matrix& m, int qi, int qj, const Matrix& block) {
  const std::int64_t half = m.rows() / 2;
  const std::int64_t row0 = qi * half;
  const std::int64_t col0 = qj * half;
  for (std::int64_t i = 0; i < half; ++i) {
    for (std::int64_t j = 0; j < half; ++j) {
      m.at(row0 + i, col0 + j) = block.at(i, j);
    }
  }
}

Matrix multiply_rec(const Matrix& a, const Matrix& b,
                    const WinogradOptions& options) {
  const std::int64_t n = a.rows();
  if (n <= options.cutoff || n % 2 != 0) {
    return classical_multiply(a, b);
  }

  const Matrix a11 = quadrant(a, 0, 0);
  const Matrix a12 = quadrant(a, 0, 1);
  const Matrix a21 = quadrant(a, 1, 0);
  const Matrix a22 = quadrant(a, 1, 1);
  const Matrix b11 = quadrant(b, 0, 0);
  const Matrix b12 = quadrant(b, 0, 1);
  const Matrix b21 = quadrant(b, 1, 0);
  const Matrix b22 = quadrant(b, 1, 1);

  // Winograd's 8 additive precombinations.
  const Matrix s1 = a21 + a22;
  const Matrix s2 = s1 - a11;
  const Matrix s3 = a11 - a21;
  const Matrix s4 = a12 - s2;
  const Matrix t1 = b12 - b11;
  const Matrix t2 = b22 - t1;
  const Matrix t3 = b22 - b12;
  const Matrix t4 = t2 - b21;

  // The seven products in four sections on parallel_for; inside a
  // section (a task of a multi-worker run) deeper levels run inline.
  Matrix p1, p2, p3, p4, p5, p6, p7;
  sweep::parallel_for(4, [&](std::int64_t section) {
    switch (section) {
      case 0:
        p1 = multiply_rec(a11, b11, options);
        p2 = multiply_rec(a12, b21, options);
        break;
      case 1:
        p3 = multiply_rec(s4, b22, options);
        p4 = multiply_rec(a22, t4, options);
        break;
      case 2:
        p5 = multiply_rec(s1, t1, options);
        p6 = multiply_rec(s2, t2, options);
        break;
      default:
        p7 = multiply_rec(s3, t3, options);
    }
  });

  // Winograd's 7 additive recombinations.
  const Matrix u2 = p1 + p6;
  const Matrix u3 = u2 + p7;
  const Matrix u4 = u2 + p5;

  Matrix c(n, n);
  place_quadrant(c, 0, 0, p1 + p2);
  place_quadrant(c, 0, 1, u4 + p3);
  place_quadrant(c, 1, 0, u3 - p4);
  place_quadrant(c, 1, 1, u3 + p5);
  return c;
}

}  // namespace

Matrix strassen_winograd(const Matrix& a, const Matrix& b,
                         const WinogradOptions& options) {
  if (a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows()) {
    throw std::invalid_argument(
        "strassen_winograd: matrices must be square and equal-sized");
  }
  if (options.cutoff < 1) {
    throw std::invalid_argument("strassen_winograd: cutoff must be >= 1");
  }
  return multiply_rec(a, b, options);
}

double strassen_flops(std::int64_t n, int levels) {
  if (n < 1 || levels < 0) {
    throw std::invalid_argument("strassen_flops: invalid arguments");
  }
  double flops = 0.0;
  double subproblems = 1.0;
  double dim = static_cast<double>(n);
  for (int level = 0; level < levels; ++level) {
    // 15 quarter-block additions of (dim/2)^2 elements each.
    flops += subproblems * 15.0 * (dim / 2.0) * (dim / 2.0);
    subproblems *= 7.0;
    dim /= 2.0;
  }
  flops += subproblems * classical_flops(static_cast<std::int64_t>(dim),
                                         static_cast<std::int64_t>(dim),
                                         static_cast<std::int64_t>(dim));
  return flops;
}

}  // namespace npac::strassen
