// ByteWriter — the causim wire format encoder.
//
// The paper's headline metric is the exact byte size of protocol meta-data
// on SM / FM / RM messages, so messages are genuinely serialized rather
// than size-estimated. The format is little-endian with fixed-width
// integers by default; LEB128 varints are available for the encoding
// ablation. Clock entries (matrix / vector / log clocks) are written
// through put_clock(), whose width is 4 bytes by default and 8 bytes in
// "wide" mode, approximating the JDK object footprint of the paper's
// testbed (see DESIGN.md §1).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/dest_set.hpp"
#include "common/ids.hpp"

namespace causim::serial {

using Bytes = std::vector<std::uint8_t>;

/// Global clock-entry width selector (4 = native, 8 = JDK-like).
enum class ClockWidth : std::uint8_t { k4Bytes = 4, k8Bytes = 8 };

/// Stores the low `width` (<= 8) bytes of `v` at `p`, least significant
/// first on every host, in one word copy; returns the byte after them.
inline std::uint8_t* store_le(std::uint8_t* p, std::uint64_t v, std::size_t width) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, width);
  return p + width;
}

inline std::uint8_t* store_clock(std::uint8_t* p, std::uint64_t v, ClockWidth cw) {
  return cw == ClockWidth::k8Bytes ? store_le(p, v, 8) : store_le(p, v, 4);
}

/// A WriteId: writer u16, then the clock at width `cw`.
inline std::uint8_t* store_write_id(std::uint8_t* p, const WriteId& w, ClockWidth cw) {
  return store_clock(store_le(p, w.writer, 2), w.clock, cw);
}

/// A dest set as an explicit member list: universe u16, count u16, then
/// each member u16 in increasing order — d.wire_bytes() bytes. Destination
/// lists are the object the Opt-Track pruning rules shrink, so their wire
/// size must shrink with them; a bitset would hide that below 64 sites.
inline std::uint8_t* store_dest_set(std::uint8_t* p, const DestSet& d) {
  std::uint8_t* const count = store_le(p, d.universe_size(), 2);
  p = count + 2;
  d.for_each([&p](SiteId s) { p = store_le(p, s, 2); });
  store_le(count, static_cast<std::uint64_t>(p - count - 2) / 2, 2);  // members stored
  return p;
}

class ByteWriter {
 public:
  explicit ByteWriter(ClockWidth cw = ClockWidth::k4Bytes) : clock_width_(cw) {}

  /// Writes into `buffer` (cleared first), reusing its capacity — the
  /// pooled encode path (serial::BufferPool) hands recycled frames in here.
  ByteWriter(ClockWidth cw, Bytes&& buffer) : clock_width_(cw), buf_(std::move(buffer)) {
    buf_.clear();
  }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { put_fixed(v, 2); }
  void put_u32(std::uint32_t v) { put_fixed(v, 4); }
  void put_u64(std::uint64_t v) { put_fixed(v, 8); }

  /// Unsigned LEB128.
  void put_varint(std::uint64_t v);

  /// One logical clock entry, at the configured width.
  void put_clock(std::uint64_t v) {
    store_clock(extend(static_cast<std::size_t>(clock_width_)), v, clock_width_);
  }

  void put_site(SiteId s) { put_u16(s); }
  void put_var(VarId v) { put_u32(v); }
  void put_write_id(const WriteId& w) {
    store_write_id(extend(2 + static_cast<std::size_t>(clock_width_)), w, clock_width_);
  }

  /// Member-list encoding (see store_dest_set).
  void put_dest_set(const DestSet& d) { store_dest_set(extend(d.wire_bytes()), d); }

  void put_bytes(const void* data, std::size_t len);
  void put_string(std::string_view s);

  /// Appends `len` zero bytes — models an opaque payload of that size
  /// without the caller materializing it.
  void put_opaque(std::size_t len) { extend(len); }

  /// Grows the buffer by `len` zero bytes and returns where they start:
  /// an encoder that knows a block's exact size (KsLog::serialize) sizes
  /// the buffer once and stores the block through the store_* helpers.
  std::uint8_t* extend(std::size_t len) {
    const std::size_t at = buf_.size();
    buf_.resize(at + len);
    return buf_.data() + at;
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  ClockWidth clock_width() const { return clock_width_; }

 private:
  void put_fixed(std::uint64_t v, std::size_t width) { store_le(extend(width), v, width); }

  ClockWidth clock_width_;
  Bytes buf_;
};

}  // namespace causim::serial
