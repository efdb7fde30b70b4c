#include "proto/wire.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace cosched {
namespace {

TEST(Wire, U64RoundTrip) {
  WireWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16384,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) w.put_u64(v);
  WireReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.get_u64(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, VarintIsCompact) {
  WireWriter w;
  w.put_u64(5);
  EXPECT_EQ(w.bytes().size(), 1u);
  WireWriter w2;
  w2.put_u64(300);
  EXPECT_EQ(w2.bytes().size(), 2u);
}

TEST(Wire, I64ZigZagRoundTrip) {
  WireWriter w;
  const std::int64_t values[] = {0, -1, 1, -2, 63, -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (auto v : values) w.put_i64(v);
  WireReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.get_i64(), v);
}

TEST(Wire, SmallNegativesAreCompact) {
  WireWriter w;
  w.put_i64(-1);
  EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(Wire, BoolAndU8) {
  WireWriter w;
  w.put_bool(true);
  w.put_bool(false);
  w.put_u8(0xAB);
  WireReader r(w.bytes());
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u8(), 0xAB);
}

TEST(Wire, StringRoundTrip) {
  WireWriter w;
  w.put_string("");
  w.put_string("hello");
  w.put_string(std::string("\0binary\xff", 8));
  WireReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), std::string("\0binary\xff", 8));
}

TEST(Wire, TruncatedInputThrows) {
  WireWriter w;
  w.put_u64(1ULL << 40);
  auto bytes = w.take();
  bytes.pop_back();
  WireReader r(bytes);
  EXPECT_THROW(r.get_u64(), ParseError);
}

TEST(Wire, TruncatedStringThrows) {
  WireWriter w;
  w.put_u64(100);  // claims 100 bytes follow
  WireReader r(w.bytes());
  EXPECT_THROW(r.get_string(), ParseError);
}

TEST(Wire, OverlongVarintThrows) {
  // 11 continuation bytes cannot encode a u64.
  std::vector<std::uint8_t> bad(11, 0xFF);
  WireReader r(bad);
  EXPECT_THROW(r.get_u64(), ParseError);
}

TEST(Wire, EmptyReaderThrows) {
  WireReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.get_u8(), ParseError);
}

TEST(Wire, FuzzRoundTrip) {
  Rng rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    WireWriter w;
    std::vector<std::int64_t> vals;
    const int n = static_cast<int>(rng.uniform_int(1, 50));
    for (int i = 0; i < n; ++i) {
      vals.push_back(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                     std::numeric_limits<std::int64_t>::max()));
      w.put_i64(vals.back());
    }
    WireReader r(w.bytes());
    for (auto v : vals) EXPECT_EQ(r.get_i64(), v);
    EXPECT_TRUE(r.exhausted());
  }
}

// -- inline varint fast path against the byte-at-a-time decoder -----------

/// The varint decoder as it was before the in-place fast path: one bounds
/// check, one overflow check and one shift per byte.
struct ReferenceDecode {
  std::optional<std::uint64_t> value;  ///< nullopt: ParseError
  std::size_t consumed = 0;
};

ReferenceDecode reference_get_u64(std::span<const std::uint8_t> data) {
  std::uint64_t v = 0;
  int shift = 0;
  for (std::size_t pos = 0;;) {
    if (pos >= data.size()) return {};
    const std::uint8_t b = data[pos++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e))) return {};
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return {v, pos};
    shift += 7;
  }
}

/// Decodes one varint at the front of `data` with both decoders and checks
/// they agree on the value, the bytes consumed, and whether it throws.
void expect_same_decode(const std::vector<std::uint8_t>& data) {
  const ReferenceDecode want = reference_get_u64(data);
  WireReader r(data);
  if (!want.value) {
    EXPECT_THROW(r.get_u64(), ParseError) << "size " << data.size();
    return;
  }
  EXPECT_EQ(r.get_u64(), *want.value) << "size " << data.size();
  EXPECT_EQ(data.size() - r.remaining(), want.consumed);
}

/// Every trailing-byte count from none to past the 10-byte fast-path
/// threshold, so each case runs on both paths.
void expect_same_decode_with_padding(std::vector<std::uint8_t> bytes) {
  for (int pad = 0; pad <= 12; ++pad) {
    expect_same_decode(bytes);
    bytes.push_back(static_cast<std::uint8_t>(pad * 37));
  }
}

TEST(WireFastPath, EveryVarintLengthMatchesTheReference) {
  Rng rng(77);
  for (int len = 1; len <= 10; ++len) {
    // Smallest and largest value of this encoded length, plus randoms.
    const std::uint64_t lo = len == 1 ? 0 : 1ULL << (7 * (len - 1));
    const std::uint64_t hi = len == 10
                                 ? std::numeric_limits<std::uint64_t>::max()
                                 : (1ULL << (7 * len)) - 1;
    std::vector<std::uint64_t> values = {lo, hi};
    for (int i = 0; i < 20; ++i)
      values.push_back(lo + rng.next() % (hi - lo + 1));
    for (std::uint64_t v : values) {
      WireWriter w;
      w.put_u64(v);
      ASSERT_EQ(w.bytes().size(), static_cast<std::size_t>(len)) << v;
      expect_same_decode_with_padding(w.bytes());
    }
  }
}

TEST(WireFastPath, TruncationAtEveryByteThrows) {
  for (int len = 1; len <= 10; ++len) {
    WireWriter w;
    w.put_u64(len == 10 ? std::numeric_limits<std::uint64_t>::max()
                        : (1ULL << (7 * len)) - 1);
    for (int cut = 0; cut < len; ++cut) {
      const std::vector<std::uint8_t> prefix(w.bytes().begin(),
                                             w.bytes().begin() + cut);
      expect_same_decode(prefix);
      WireReader r(prefix);
      EXPECT_THROW(r.get_u64(), ParseError) << "len " << len << " cut " << cut;
    }
  }
}

TEST(WireFastPath, TenthByteOverflowValuesMatchTheReference) {
  // Nine continuation bytes put 63 bits in place; the tenth byte may only
  // add bit 63 (0x00/0x01), and a continuation there runs past 64 bits.
  for (int last = 0; last <= 0xff; ++last) {
    std::vector<std::uint8_t> bytes(9, 0xff);
    bytes.push_back(static_cast<std::uint8_t>(last));
    expect_same_decode_with_padding(bytes);
    WireReader r(bytes);
    if (last == 0x00 || last == 0x01) {
      EXPECT_NO_THROW(r.get_u64());
    } else {
      EXPECT_THROW(r.get_u64(), ParseError) << "tenth byte " << last;
    }
  }
}

TEST(WireFastPath, StreamOfMixedLengthsMatchesTheReference) {
  // A long buffer decoded end to end: the reader crosses from the fast path
  // to the checked path as the tail shrinks below 10 bytes.
  Rng rng(5);
  WireWriter w;
  for (int i = 0; i < 500; ++i)
    w.put_u64(rng.next() >> rng.uniform_int(0, 63));
  const std::vector<std::uint8_t>& bytes = w.bytes();
  WireReader r(bytes);
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const ReferenceDecode want = reference_get_u64(
        std::span<const std::uint8_t>(bytes).subspan(pos));
    ASSERT_TRUE(want.value.has_value());
    ASSERT_EQ(r.get_u64(), *want.value);
    pos += want.consumed;
    ASSERT_EQ(bytes.size() - r.remaining(), pos);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(WireFastPath, PutBytesAppendsVerbatim) {
  WireWriter w;
  w.put_u8(7);
  const std::vector<std::uint8_t> raw = {0x80, 0x01, 0xff};
  w.put_bytes(raw);
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{7, 0x80, 0x01, 0xff}));
}

}  // namespace
}  // namespace cosched
