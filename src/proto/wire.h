// Wire primitives: LEB128 varints (zig-zag for signed) over a byte buffer.
//
// The paper's mechanism rests on "a lightweight protocol for coordination
// between policy domains".  We give that protocol a concrete, compact binary
// encoding so the same messages run over the in-process loopback used by the
// simulator and the socket channel used by the live daemons.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace cosched {

class WireWriter {
 public:
  WireWriter() = default;
  /// Continues appending to `buf` (take() hands it back).
  explicit WireWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u64(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_i64(std::int64_t v) { put_u64(zigzag(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Doubles travel as IEEE-754 bit patterns (exact round-trip; used by the
  /// snapshot codec, never by protocol messages).
  void put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_string(const std::string& s);
  /// Appends already-encoded bytes verbatim (no length prefix).
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() {
    if (pos_ < data_.size()) return data_[pos_++];
    return get_u8_slow();
  }
  /// Fast path: with at least 10 bytes left no varint can run off the end,
  /// so one of up to 9 bytes decodes in place without bounds checks (9
  /// bytes carry at most 63 bits, so none can overflow).  A 10-byte varint,
  /// where the overflow check lives, and every read near the end of the
  /// buffer take the byte-at-a-time path.
  std::uint64_t get_u64() {
    if (data_.size() - pos_ >= 10) {
      const std::uint8_t* p = data_.data() + pos_;
      std::uint64_t v = 0;
      for (int i = 0; i < 9; ++i) {
        v |= static_cast<std::uint64_t>(p[i] & 0x7f) << (7 * i);
        if (!(p[i] & 0x80)) {
          pos_ += static_cast<std::size_t>(i) + 1;
          return v;
        }
      }
    }
    return get_u64_slow();
  }
  std::int64_t get_i64() { return unzigzag(get_u64()); }
  bool get_bool() { return get_u8() != 0; }
  double get_double() { return std::bit_cast<double>(get_u64()); }
  std::string get_string();

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  static std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

 private:
  std::uint8_t get_u8_slow();
  std::uint64_t get_u64_slow();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cosched
