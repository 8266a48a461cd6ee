// Locale-independent decimal rendering for ids and labels.
//
// Topology ids, machine names and partition labels are cache keys, digest
// inputs and printed output, so their bytes must not depend on the
// environment. A std::ostringstream takes the global C++ locale when it is
// made, and a digit-grouping locale prints 12 as "1,2"; std::to_chars
// ignores every locale (DESIGN.md decision #21).
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>

namespace npac::support {

/// Longest decimal rendering of a 64-bit integer: a sign and 19 digits
/// (int64), or 20 digits (uint64).
inline constexpr std::size_t kMaxIntChars = 20;

/// Writes `value` in decimal at `out` (kMaxIntChars bytes of room) and
/// returns the end.
template <std::integral Int>
char* put_int(char* out, Int value) {
  static_assert(sizeof(Int) <= 8, "put_int renders at most 64 bits");
  return std::to_chars(out, out + kMaxIntChars, value).ptr;
}

template <std::integral Int>
void append_int(std::string& out, Int value) {
  char digits[kMaxIntChars];
  out.append(digits, put_int(digits, value));
}

}  // namespace npac::support
