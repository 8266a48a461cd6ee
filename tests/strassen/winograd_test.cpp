// Strassen-Winograd kernel tests: correctness against classical GEMM
// across sizes and cutoffs, pooled-versus-inline byte identity, plus the
// flop model used by the computation-time estimates.
#include "strassen/winograd.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sweep/pool.hpp"

namespace npac::strassen {
namespace {

TEST(WinogradTest, MatchesClassicalOnSmallMatrix) {
  const Matrix a = Matrix::random(8, 8, 1);
  const Matrix b = Matrix::random(8, 8, 2);
  WinogradOptions options;
  options.cutoff = 2;
  const Matrix fast = strassen_winograd(a, b, options);
  const Matrix reference = classical_multiply(a, b);
  EXPECT_LT(Matrix::max_abs_diff(fast, reference), 1e-9);
}

TEST(WinogradTest, IdentityIsNeutral) {
  const Matrix a = Matrix::random(16, 16, 3);
  WinogradOptions options;
  options.cutoff = 4;
  const Matrix product = strassen_winograd(a, Matrix::identity(16), options);
  EXPECT_LT(Matrix::max_abs_diff(product, a), 1e-9);
}

TEST(WinogradTest, OddSizesFallBackToClassical) {
  const Matrix a = Matrix::random(7, 7, 4);
  const Matrix b = Matrix::random(7, 7, 5);
  WinogradOptions options;
  options.cutoff = 2;
  const Matrix fast = strassen_winograd(a, b, options);
  EXPECT_LT(Matrix::max_abs_diff(fast, classical_multiply(a, b)), 1e-9);
}

TEST(WinogradTest, MixedEvenOddRecursion) {
  // 12 = 2 * 6 = 4 * 3: recursion hits an odd size mid-way.
  const Matrix a = Matrix::random(12, 12, 6);
  const Matrix b = Matrix::random(12, 12, 7);
  WinogradOptions options;
  options.cutoff = 2;
  const Matrix fast = strassen_winograd(a, b, options);
  EXPECT_LT(Matrix::max_abs_diff(fast, classical_multiply(a, b)), 1e-9);
}

class WinogradSizeSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(WinogradSizeSweep, MatchesClassical) {
  const std::int64_t n = GetParam();
  const Matrix a = Matrix::random(n, n, 10 + static_cast<std::uint64_t>(n));
  const Matrix b = Matrix::random(n, n, 20 + static_cast<std::uint64_t>(n));
  WinogradOptions options;
  options.cutoff = 8;
  const Matrix fast = strassen_winograd(a, b, options);
  EXPECT_LT(Matrix::max_abs_diff(fast, classical_multiply(a, b)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WinogradSizeSweep,
                         ::testing::Values(1, 2, 16, 24, 32, 48, 64, 96, 128));

TEST(WinogradTest, PooledAndInlineCallsAgreeExactly) {
  // A top-level call forks its sections on the shared pool; a call from a
  // task of a 2-worker run does every level inline. The bytes must match.
  const Matrix a = Matrix::random(64, 64, 42);
  const Matrix b = Matrix::random(64, 64, 43);
  WinogradOptions options;
  options.cutoff = 8;
  const Matrix pooled = strassen_winograd(a, b, options);
  Matrix inline_product;
  sweep::ThreadPool pair(2);
  pair.run_indexed(2, [&](std::int64_t i) {
    if (i == 0) inline_product = strassen_winograd(a, b, options);
  });
  EXPECT_EQ(pooled, inline_product);
}

TEST(WinogradTest, Validation) {
  const Matrix square = Matrix::random(4, 4, 1);
  const Matrix rect = Matrix::random(4, 3, 1);
  EXPECT_THROW(strassen_winograd(square, rect), std::invalid_argument);
  WinogradOptions bad;
  bad.cutoff = 0;
  EXPECT_THROW(strassen_winograd(square, square, bad), std::invalid_argument);
}

TEST(StrassenFlopsTest, ZeroLevelsIsClassical) {
  EXPECT_DOUBLE_EQ(strassen_flops(64, 0), classical_flops(64, 64, 64));
}

TEST(StrassenFlopsTest, OneLevelIs7EighthsPlusAdditions) {
  const std::int64_t n = 64;
  const double expected =
      15.0 * (n / 2.0) * (n / 2.0) + 7.0 * classical_flops(n / 2, n / 2, n / 2);
  EXPECT_DOUBLE_EQ(strassen_flops(n, 1), expected);
}

TEST(StrassenFlopsTest, DeepRecursionBeatsClassical) {
  // With enough levels the flop count drops below 2n^3.
  EXPECT_LT(strassen_flops(1024, 6), classical_flops(1024, 1024, 1024));
}

TEST(StrassenFlopsTest, Validation) {
  EXPECT_THROW(strassen_flops(0, 1), std::invalid_argument);
  EXPECT_THROW(strassen_flops(4, -1), std::invalid_argument);
}

}  // namespace
}  // namespace npac::strassen
