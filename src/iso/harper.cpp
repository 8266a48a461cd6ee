#include "iso/harper.hpp"

#include <stdexcept>

namespace npac::iso {

std::vector<topo::VertexId> harper_set(int n, std::int64_t t) {
  if (n < 0 || n > 62 || t < 0 || t > (std::int64_t{1} << n)) {
    throw std::invalid_argument("harper_set: invalid n or t");
  }
  std::vector<topo::VertexId> set;
  set.reserve(static_cast<std::size_t>(t));
  for (std::int64_t v = 0; v < t; ++v) set.push_back(v);
  return set;
}

std::int64_t harper_cut(int n, std::int64_t t) {
  if (n < 0 || n > 62 || t < 0 || t > (std::int64_t{1} << n)) {
    throw std::invalid_argument("harper_cut: invalid n or t");
  }
  std::int64_t cut = 0;
  for (std::int64_t v = 0; v < t; ++v) {
    for (int bit = 0; bit < n; ++bit) {
      const std::int64_t u = v ^ (std::int64_t{1} << bit);
      if (u >= t) ++cut;
    }
  }
  return cut;
}

std::int64_t subcube_cut(int n, int k) {
  if (k < 0 || k > n) {
    throw std::invalid_argument("subcube_cut: require 0 <= k <= n");
  }
  return static_cast<std::int64_t>(n - k) * (std::int64_t{1} << k);
}

}  // namespace npac::iso
