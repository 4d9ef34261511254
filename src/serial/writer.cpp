#include "serial/writer.hpp"

namespace causim::serial {

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void ByteWriter::put_string(std::string_view s) {
  put_varint(s.size());
  put_bytes(s.data(), s.size());
}

}  // namespace causim::serial
