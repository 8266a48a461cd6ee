// A digit-grouping global locale for the tests that pin locale-independent
// output: a std::ostringstream made under it prints 12 as "1,2", while
// std::to_chars ignores it.
#pragma once

#include <locale>
#include <string>

namespace npac::test_support {

/// Groups every digit, so a stream that takes this locale prints 12 as
/// "1,2".
struct GroupEveryDigit : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\1"; }
};

/// Installs a GroupEveryDigit global locale for its lifetime.
class ScopedDigitGrouping {
 public:
  ScopedDigitGrouping()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new GroupEveryDigit))) {}
  ~ScopedDigitGrouping() { std::locale::global(previous_); }

  ScopedDigitGrouping(const ScopedDigitGrouping&) = delete;
  ScopedDigitGrouping& operator=(const ScopedDigitGrouping&) = delete;

 private:
  std::locale previous_;
};

}  // namespace npac::test_support
