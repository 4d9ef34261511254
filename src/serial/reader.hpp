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

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/dest_set.hpp"
#include "common/ids.hpp"
#include "serial/writer.hpp"

namespace causim::serial {

/// Loads `width` (<= 8) bytes at `p`, least significant first on every
/// host, in one word copy.
inline std::uint64_t load_le(const std::uint8_t* p, std::size_t width) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, width);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

// The raw decoders behind ByteReader, for a decoder that walks a block
// itself (KsLog): each reads one field at `p`, bounded by `end`, and
// returns the byte after it, or nullptr when the bytes are short or the
// field is malformed.

/// A WriteId: writer u16, then the clock at width `cw`.
inline const std::uint8_t* load_write_id(const std::uint8_t* p, const std::uint8_t* end,
                                         ClockWidth cw, WriteId& w) {
  const std::size_t width = 2 + static_cast<std::size_t>(cw);
  if (static_cast<std::size_t>(end - p) < width) return nullptr;
  w.writer = static_cast<SiteId>(load_le(p, 2));
  w.clock = static_cast<WriteClock>(cw == ClockWidth::k8Bytes ? load_le(p + 2, 8)
                                                              : load_le(p + 2, 4));
  return p + width;
}

/// A dest set (serial::store_dest_set) into `d`, replacing its contents.
/// Members may come in any order and repeat; a count beyond the universe or
/// the bytes, or a member outside the universe, is malformed.
inline const std::uint8_t* load_dest_set(const std::uint8_t* p, const std::uint8_t* end,
                                         DestSet& d) {
  if (end - p < 4) return nullptr;
  const auto n = static_cast<SiteId>(load_le(p, 2));
  const auto count = static_cast<SiteId>(load_le(p + 2, 2));
  p += 4;
  d = DestSet(n);
  if (count > n || static_cast<std::size_t>(end - p) < 2 * static_cast<std::size_t>(count)) {
    return nullptr;
  }
  for (SiteId i = 0; i < count; ++i, p += 2) {
    const auto s = static_cast<SiteId>(load_le(p, 2));
    if (s >= n) return nullptr;  // DestSet::insert would panic
    d.insert(s);
  }
  return p;
}

/// Checks a dest set as load_dest_set does without building it: sets `n` to
/// its universe and `has` to whether `s` is a member.
inline const std::uint8_t* scan_dest_set(const std::uint8_t* p, const std::uint8_t* end,
                                         SiteId s, SiteId& n, bool& has) {
  if (end - p < 4) return nullptr;
  n = static_cast<SiteId>(load_le(p, 2));
  const auto count = static_cast<SiteId>(load_le(p + 2, 2));
  p += 4;
  if (count > n || static_cast<std::size_t>(end - p) < 2 * static_cast<std::size_t>(count)) {
    return nullptr;
  }
  bool outside = false;
  bool found = false;
  for (SiteId i = 0; i < count; ++i, p += 2) {
    const auto member = static_cast<SiteId>(load_le(p, 2));
    outside |= member >= n;
    found |= member == s;
  }
  if (outside) return nullptr;
  has = found;
  return p;
}

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
  std::uint64_t get_clock() {
    return clock_width_ == ClockWidth::k8Bytes ? get_fixed(8) : get_fixed(4);
  }

  SiteId get_site() { return get_u16(); }
  VarId get_var() { return get_u32(); }
  WriteId get_write_id() {
    WriteId w{0, 0};
    if (ok_) advance(load_write_id(buf_ + pos_, buf_ + size_, clock_width_, w));
    return w;
  }
  /// See load_dest_set.
  DestSet get_dest_set() {
    DestSet d;
    if (ok_) advance(load_dest_set(buf_ + pos_, buf_ + size_, d));
    return d;
  }
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
  ClockWidth clock_width() const { return clock_width_; }

  /// The unread bytes, for a decoder that walks them with the load_*
  /// helpers and then skip()s what it consumed (or fail()s).
  const std::uint8_t* cursor() const { return buf_ + pos_; }

 private:
  /// Moves to `next` (a load_* result); nullptr latches the error.
  bool advance(const std::uint8_t* next) {
    if (next == nullptr) {
      fail();
      return false;
    }
    pos_ = static_cast<std::size_t>(next - buf_);
    return true;
  }

  std::uint64_t get_fixed(std::size_t width) {
    if (!ok_ || width > size_ - pos_) return fail();
    const std::uint64_t v = load_le(buf_ + pos_, width);
    pos_ += width;
    return v;
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
  ClockWidth clock_width_;
  bool ok_ = true;
};

}  // namespace causim::serial
