#include "serial/reader.hpp"

namespace causim::serial {

std::uint8_t ByteReader::get_u8() {
  if (!ok_ || pos_ + 1 > size_) return static_cast<std::uint8_t>(fail());
  return buf_[pos_++];
}

std::uint64_t ByteReader::get_varint() {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (shift >= 64) return fail();  // overlong varint
    const std::uint8_t b = get_u8();
    if (!ok_) return 0;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::string ByteReader::get_string() {
  // `len > size_ - pos_` rather than `pos_ + len > size_`: a hostile
  // varint can make the addition wrap.
  const std::size_t len = get_varint();
  if (!ok_ || len > size_ - pos_) {
    fail();
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(buf_ + pos_), len);
  pos_ += len;
  return s;
}

void ByteReader::skip(std::size_t len) {
  if (!ok_ || len > size_ - pos_) {
    fail();
    return;
  }
  pos_ += len;
}

}  // namespace causim::serial
