// Every bench driver's --fast CSV, pinned. Each driver runs at --fast
// --threads 1, and its CSV is compared row by row with FNV-1a hashes of
// the expected lines. A mismatch names the driver and prints the first
// differing row. The pins were recorded with GCC 12.2 on x86-64 (Release).
// The build contracts no floating-point expressions (x86-64 has no FMA by
// default), so the 17-digit columns should read the same from any
// compiler; if a toolchain moves a pin, that is a finding to report, not
// a pin to re-record. A change that moves a driver's numbers on purpose (a
// model change) updates its pins and lists the old and new values in
// CHANGES.md.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace {

struct DriverPin {
  std::string driver;               ///< the executable is bench_<driver>
  std::vector<std::uint32_t> rows;  ///< FNV-1a of each line, header first
};

/// Names the parameter in gtest's output instead of dumping its bytes.
void PrintTo(const DriverPin& pin, std::ostream* out) { *out << pin.driver; }

const std::vector<DriverPin>& driver_pins() {
  static const std::vector<DriverPin> pins = {
    {"ablation_routing",
     {0xb18a5080, 0xcccd5e7f, 0xb31e7869, 0x7c6c2d36, 0xa2ffaebe, 0x2312c693}},
    {"ext_interference",
     {0x8c5ac702, 0x039913ad, 0x4f91700f, 0x245bd6d1, 0x942da719}},
    {"ext_kernels",
     {0x08dc646f, 0xacca4982, 0x36e32522, 0x6cb0ff3c}},
    {"ext_mapping",
     {0xc33c7424, 0x01a28ade, 0xb0d41949, 0x78e497f0, 0x3aa76c56, 0xce291453,
      0x47f075c2}},
    {"ext_sched_scale",
     {0x9edd85bb, 0xf9d35346, 0xef0e7905, 0xaa119186, 0x4493ee8b, 0xb2cff797,
      0x95397b0c, 0xf781cc35, 0x5f1b551c, 0x7b03d26f, 0x3ec914e4, 0xd08a0799,
      0xaa587dd6, 0xe12b78d2, 0xa5684809, 0x9f3c5a38, 0x3604d89e, 0xda0cf12c,
      0xc34018cb, 0x10955fc1, 0xd59f3550, 0x3c006676, 0xe7578761, 0xe5926cb6,
      0x6655f23b}},
    {"ext_sched_topologies",
     {0xbc1f602a, 0xf8580838, 0x7c62c8fa, 0x920050d4, 0xacc9a429, 0xb4de9e0c,
      0x8eb0f516, 0x0500219d, 0x80e03a40, 0xc74c47a7, 0xcfb9a0e0, 0x54505c64,
      0x07d4f2a0, 0xd590d0ee, 0xb1aeafc5, 0x04deb5ca, 0x60386ba5, 0x70ad7e6f,
      0x902328eb, 0xd83ebb23, 0xa9464c5d, 0x026ddd9b, 0xe5ffe75a, 0x7138e388,
      0xcaad239f, 0xd461a6a4, 0x1b1ad9c5, 0x6e4adfca, 0xf301c2c5, 0x9318f887,
      0x133a52b0, 0x5fb22ea5, 0xb9e56c3e, 0xd7de5bf1, 0xd2be9399, 0xe5afc60e,
      0xd7073759, 0x2f56ab62, 0x139af9ce, 0x14a561c8, 0x691b643d, 0xc29027c5,
      0xd637cf32, 0x5b3d7cad, 0xc5f7b905, 0xb54248b5, 0x1a5bb7d6, 0xd97fcbca,
      0xf35e9a45, 0x3abc9f8a, 0xb139e3d6, 0x86324490, 0x5cb04735, 0x5ad23e85,
      0x89e8543a}},
    {"ext_scheduler",
     {0xb0128447, 0xb98d2595, 0x11d2fb16, 0xe1537c4b, 0xb564bd7a, 0x117a2d50,
      0x2288c666, 0xdf77e48c, 0x0b5da391, 0x7b1ea3eb, 0xa8488602, 0x48063c6a,
      0xf4081ce7, 0x4a9b669d, 0xd3f8337a, 0x2a0c2ac7, 0x1a199013, 0x531b8f20,
      0x07462e4d}},
    {"ext_sequoia",
     {0x2b6bd6a8, 0xaf13a849, 0xaf66ce25, 0x9166f5c0, 0xd14ca7bf, 0x5b13f9aa,
      0x55214830, 0x19433ea8, 0x4a235d45, 0x968064c9, 0xa1340f4a, 0x630f1203,
      0xccad43ff, 0x98a241ad, 0xffbeb451, 0xaad8a43d, 0x324544f8, 0x2af90486,
      0xbb92cf64, 0xd2c99c4b, 0x9d97e357, 0x8f1d178e, 0x307feeac, 0x90045e06,
      0xfcb78246}},
    {"ext_topologies",
     {0xbcdb0338, 0xb47c6726, 0x53168333, 0x5c5679c8, 0x33c54472, 0xf5480c9c}},
    {"fig1_mira_bisection",
     {0x84382b13, 0xa16c14b9, 0x2db3e3dc, 0xd1d7c409, 0xc67edad8, 0xb73522ef,
      0xa7ca9a94, 0x6f4e127d, 0xb4db922f, 0xf45e9b0a, 0xd1e489ff}},
    {"fig2_juqueen_bisection",
     {0x2b6bd6a8, 0xaf13a849, 0xaf66ce25, 0x9166f5c0, 0xd14ca7bf, 0x40591133,
      0x45c85fe6, 0x74cf2810, 0x55214830, 0x0ae83306, 0x01388208, 0x41265238,
      0xb812aaf4, 0x56bf34f6, 0x3c67b11b, 0xb02408ac, 0x09ccfeb5, 0xcac59476,
      0xd1635946, 0x6e22c97c}},
    {"fig3_mira_pairing",
     {0x92b1a7cc, 0xe70479f2, 0x83bfdf70, 0x923bd168, 0xc5df37f0}},
    {"fig4_juqueen_pairing",
     {0x92b1a7cc, 0xe70479f2, 0xcec88031, 0x83bfdf70, 0x58887950, 0xeee19ba7}},
    {"fig5_matmul_comm",
     {0x87ea36f0, 0x80f96cb9, 0x45c73367, 0x1eb82ad9, 0x15d5ea2a}},
    {"fig6_strong_scaling",
     {0x0745164e, 0xcd19ed5f, 0xa14fb654, 0x81bca226}},
    {"fig7_machine_design",
     {0xa4c155da, 0x5233f869, 0xb79c430c, 0x320f3430, 0xc6da4b77, 0x583c2758,
      0x54222876, 0xd65188cf, 0x2a96829e, 0x72672d44, 0xfa9bce83, 0x613b67ca,
      0x0bfa29a3, 0x00931a0e, 0x32e2259a, 0xb3796a27, 0x90385393, 0xc063b305,
      0x793eee83, 0xa3e86f78, 0xe8880a5a, 0x8bfa3608, 0x5bc1e05e, 0xe1f200dc,
      0x42c67500}},
    {"table1_mira_proposals",
     {0x84382b13, 0xd1d7c409, 0xc67edad8, 0xb73522ef, 0xa7ca9a94}},
    {"table2_juqueen_bestworst",
     {0x2b6bd6a8, 0xd14ca7bf, 0x45c85fe6, 0x55214830, 0x01388208, 0xb812aaf4,
      0x3c67b11b}},
    {"table3_matmul_params",
     {0x14097bed, 0x954cfeb7, 0xe85dd1f9, 0x2bd97a5f, 0xb16afd48}},
    {"table4_scaling_params",
     {0xc37a493d, 0x624e21c0, 0x3d04542f, 0xea00f2df}},
    {"table5_machine_design",
     {0xa4c155da, 0x5233f869, 0xb79c430c, 0x320f3430, 0xc6da4b77, 0x583c2758,
      0x54222876, 0xd65188cf, 0x2a96829e, 0x72672d44, 0xfa9bce83, 0x613b67ca,
      0x0bfa29a3, 0x00931a0e, 0x32e2259a, 0xb3796a27, 0x90385393, 0xc063b305,
      0x793eee83, 0xa3e86f78, 0xe8880a5a, 0x8bfa3608, 0x5bc1e05e, 0xe1f200dc,
      0x42c67500}},
    {"table6_mira_full",
     {0x84382b13, 0xa16c14b9, 0x2db3e3dc, 0xd1d7c409, 0xc67edad8, 0xb73522ef,
      0xa7ca9a94, 0x6f4e127d, 0xb4db922f, 0xf45e9b0a, 0xd1e489ff}},
    {"table7_juqueen_full",
     {0x2b6bd6a8, 0xaf13a849, 0xaf66ce25, 0x9166f5c0, 0xd14ca7bf, 0x40591133,
      0x45c85fe6, 0x74cf2810, 0x55214830, 0x0ae83306, 0x01388208, 0x41265238,
      0xb812aaf4, 0x56bf34f6, 0x3c67b11b, 0xb02408ac, 0x09ccfeb5, 0xcac59476,
      0xd1635946, 0x6e22c97c}},
    {"topologies",
     {0xc2a50627, 0xa92a4f30, 0x14060f21, 0x9d870a3a, 0xd2a3a922, 0x3de53f48,
      0x176da11b, 0x811c9dc5, 0x59162683, 0x03aaa95c, 0xe59e0512, 0xcc2f8912}},
  };
  return pins;
}

std::uint32_t fnv1a(const std::string& bytes) {
  std::uint32_t hash = 0x811c9dc5u;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x01000193u;
  }
  return hash;
}

/// Runs bench_<driver> --fast --threads 1 and returns its CSV's lines.
std::vector<std::string> fast_csv_rows(const std::string& driver) {
  const std::string csv = testing::TempDir() + "driver_csv_" + driver + "_" +
                          std::to_string(::getpid()) + ".csv";
  const std::string command = std::string(NPAC_BENCH_DIR) + "/bench_" +
                              driver + " --fast --threads 1 --csv " + csv +
                              " > /dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream in(csv);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  std::remove(csv.c_str());
  return rows;
}

class DriverCsvTest : public testing::TestWithParam<DriverPin> {};

TEST_P(DriverCsvTest, FastCsvMatchesItsPins) {
  const DriverPin& pin = GetParam();
  const std::vector<std::string> rows = fast_csv_rows(pin.driver);
  for (std::size_t i = 0; i < std::min(rows.size(), pin.rows.size()); ++i) {
    ASSERT_EQ(fnv1a(rows[i]), pin.rows[i])
        << "bench_" << pin.driver << ": first differing CSV row is line "
        << i + 1 << ":\n  " << rows[i];
  }
  ASSERT_EQ(rows.size(), pin.rows.size())
      << "bench_" << pin.driver << ": CSV row count changed";
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, DriverCsvTest, testing::ValuesIn(driver_pins()),
    [](const testing::TestParamInfo<DriverPin>& info) {
      return info.param.driver;
    });

TEST(DriverCsvPinsTest, EveryDriverHasPins) {
  std::size_t drivers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(NPAC_BENCH_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench_", 0) == 0 && entry.is_regular_file()) ++drivers;
  }
  EXPECT_EQ(drivers, driver_pins().size());
}

}  // namespace
