// Tests for the binary coding helpers used by the log format.
#include <gtest/gtest.h>

#include "util/coding.h"

namespace semcc {
namespace {

TEST(Coding, FixedWidthRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU16(&buf, 0xbeef);
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  ASSERT_TRUE(dec.GetU8(&a));
  ASSERT_TRUE(dec.GetU16(&b));
  ASSERT_TRUE(dec.GetU32(&c));
  ASSERT_TRUE(dec.GetU64(&d));
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.empty());
}

TEST(Coding, LengthPrefixedStrings) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string("\0binary\0", 8));
  Decoder dec(buf);
  std::string s;
  ASSERT_TRUE(dec.GetLengthPrefixed(&s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.GetLengthPrefixed(&s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.GetLengthPrefixed(&s));
  EXPECT_EQ(s.size(), 8u);
  EXPECT_TRUE(dec.empty());
}

TEST(Coding, UnderrunDetected) {
  std::string buf;
  PutU32(&buf, 7);
  Decoder dec(buf);
  uint64_t v64;
  EXPECT_FALSE(dec.GetU64(&v64));
  uint32_t v32;
  Decoder dec2(buf.substr(0, 2));
  EXPECT_FALSE(dec2.GetU32(&v32));
}

TEST(Coding, TruncatedLengthPrefixDetected) {
  std::string buf;
  PutU32(&buf, 100);  // claims 100 bytes, provides none
  Decoder dec(buf);
  std::string s;
  EXPECT_FALSE(dec.GetLengthPrefixed(&s));
}

TEST(Coding, RemainingTracksConsumption) {
  std::string buf;
  PutU32(&buf, 1);
  PutU32(&buf, 2);
  Decoder dec(buf);
  EXPECT_EQ(dec.remaining(), 8u);
  uint32_t v;
  ASSERT_TRUE(dec.GetU32(&v));
  EXPECT_EQ(dec.remaining(), 4u);
}

}  // namespace
}  // namespace semcc
