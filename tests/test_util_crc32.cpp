// util::crc32 (slicing-by-8) against the bytewise CRC-32 it replaced.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace cbe::util {
namespace {

/// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the definition.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t len,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, CheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(s.data(), s.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buf(64 + 8);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + start;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len))
          << "start " << start << " len " << len;
      ASSERT_EQ(crc32(p, len, 0x12345678u),
                reference_crc32(p, len, 0x12345678u))
          << "seeded, start " << start << " len " << len;
    }
  }
}

TEST(Crc32, IncrementalUpdateEqualsOneShot) {
  std::vector<unsigned char> buf(61);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut,
                    crc32(buf.data(), cut)),
              whole)
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace cbe::util
