// ByteReader — bounds-checked decoder for the causim wire format.
//
// Mirrors ByteWriter exactly. Malformed input (out-of-bounds read,
// overlong varint, dest-set member outside its universe, or a broken
// structure rule a decoder reports through fail()) is a recoverable decode
// error, not a panic: the failing read returns a zero value without
// advancing, the reader latches ok() == false, and every subsequent read
// also fails. Callers that treat malformed bytes as a protocol bug —
// everything decoding frames the simulation itself produced — assert
// ok() after decoding (deterministic simulations make the panic
// reproducible); callers facing untrusted or fault-corrupted bytes
// (Envelope::try_decode, the fuzz tests) branch on it instead.
#pragma once

#include <cstdint>
#include <string>

#include "common/dest_set.hpp"
#include "common/ids.hpp"
#include "serial/writer.hpp"

namespace causim::serial {

class ByteReader {
 public:
  ByteReader(const Bytes& buf, ClockWidth cw = ClockWidth::k4Bytes)
      : buf_(buf.data()), size_(buf.size()), clock_width_(cw) {}
  ByteReader(const std::uint8_t* data, std::size_t size, ClockWidth cw = ClockWidth::k4Bytes)
      : buf_(data), size_(size), clock_width_(cw) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16() { return static_cast<std::uint16_t>(get_fixed(2)); }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_fixed(4)); }
  std::uint64_t get_u64() { return get_fixed(8); }
  std::uint64_t get_varint();
  std::uint64_t get_clock() { return get_fixed(static_cast<std::size_t>(clock_width_)); }

  SiteId get_site() { return get_u16(); }
  VarId get_var() { return get_u32(); }
  WriteId get_write_id();
  DestSet get_dest_set();
  std::string get_string();
  void skip(std::size_t len);

  /// False once any read failed; sticky. Check after a sequence of reads —
  /// intermediate zero returns are indistinguishable from real zeros.
  bool ok() const { return ok_; }

  /// Latches the error; returns 0 so failing reads can `return fail()`.
  /// Decoders call it too when values read fine but break a rule of the
  /// structure they form (e.g. a KS log whose entries are out of order).
  std::uint64_t fail() {
    ok_ = false;
    return 0;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  std::uint64_t get_fixed(std::size_t width);

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
  ClockWidth clock_width_;
  bool ok_ = true;
};

}  // namespace causim::serial
