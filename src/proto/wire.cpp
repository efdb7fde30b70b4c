#include "proto/wire.h"

namespace cosched {

void WireWriter::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t WireReader::get_u8_slow() {
  if (pos_ >= data_.size()) throw ParseError("wire: truncated u8");
  return data_[pos_++];
}

std::uint64_t WireReader::get_u64_slow() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= data_.size()) throw ParseError("wire: truncated varint");
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e)))
      throw ParseError("wire: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

std::string WireReader::get_string() {
  const std::uint64_t n = get_u64();
  if (n > remaining()) throw ParseError("wire: truncated string");
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return s;
}

}  // namespace cosched
