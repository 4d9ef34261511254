// Coalescer / CoalescerTable — the one framing-and-flush core under both
// coalescing layers: BatchingTransport (one slot per (from, to) channel)
// and GatewayMailbox (one slot per (origin cell, destination cell) pair).
//
// A coalescing layer keeps one pending frame per *slot*, appends each
// message to it, and ships the frame when a threshold trips: message count,
// accumulated bytes, or a flush timer, so a lone message never waits
// forever. Every frame has the same layout, all little-endian:
//
//   tag | header | u32 count | (u32 len | entry)*
//
// The tag and the fixed-length header are the layer's Framing plus per-slot
// header bytes (0xB4 with no header for batch frames; 0xB5 with the origin
// and destination cell for mailbox frames). An entry is opaque to the core:
// a bare payload, or a routing prefix followed by a payload. The core never
// looks inside a header or an entry and never asks which layer it serves —
// slot keys, ship targets and entry checks come in as data and callbacks.
//
// Receiving is two walks with zero scratch: the first validates the whole
// frame, including the layer's check of every entry, before the second
// delivers anything, so a truncated or corrupted frame never hands a
// receiver a partial batch. Like the rest of the frame path the core
// recycles buffers through the shared serial::BufferPool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "net/timer.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/reader.hpp"

namespace causim::obs {
class MetricsRegistry;
}  // namespace causim::obs

namespace causim::net {

/// Thresholds of one coalescing layer (EngineConfig::batch and
/// EngineConfig::gateway), validated by engine::validate when enabled.
struct CoalesceConfig {
  /// Off by default, so a run is byte-identical to one without the layer's
  /// coalescing (see each layer for what "off" keeps).
  bool enabled = false;
  /// Ship a frame when it holds this many messages.
  std::uint32_t max_messages = 16;
  /// Ship a non-empty frame this long after its first message (µs,
  /// simulated or real per the TimerDriver). Bounds the latency a message
  /// can sit waiting for company.
  SimTime max_delay = 1 * kMillisecond;
};

/// Ship a frame once it holds this many bytes, headers included. A single
/// oversized message still ships, as a frame of one, so this is a target,
/// not a cap on frame size.
inline constexpr std::size_t kFlushBytes = 16 * 1024;

/// A frame layout: the tag byte and the length of the fixed header between
/// the tag and the count. Tags must stay disjoint from every other first
/// byte on the wire (Envelope kinds 0–2, ReliableChannel 0xD1/0xA2/0xA3,
/// the 0xB6 enroute wrap), so a mis-routed frame is detected rather than
/// misparsed.
struct Framing {
  std::uint8_t tag = 0;
  std::size_t header_bytes = 0;
};

/// Why a frame shipped.
enum class Flush : std::uint8_t {
  kCount = 0,  // max_messages reached
  kSize,       // kFlushBytes reached
  kTimer,      // flush timer fired
  kForced,     // explicit flush (drain/shutdown)
};

struct Frame {
  serial::Bytes bytes;
  Flush reason = Flush::kForced;
  std::uint32_t messages = 0;
};

/// One slot's pending frame: the pure append/flush state machine — no
/// transport, no timer, no lock — so tests can drive its boundaries.
class Coalescer {
 public:
  /// Every frame starts with `framing.tag` and then `header`, which must be
  /// framing.header_bytes long.
  Coalescer(const Framing& framing, const serial::Bytes& header,
            std::uint32_t max_messages);

  /// Frames are acquired from `pool` and consumed payloads released back to
  /// it. Null (the default) falls back to plain allocation.
  void set_buffer_pool(serial::BufferPool* pool) { pool_ = pool; }

  /// Appends one entry, `prefix` followed by `payload` (the payload buffer
  /// is consumed and recycled). Returns the completed frame when this
  /// append tripped the count or the size threshold — count is checked
  /// first — and nullopt while the slot keeps accumulating.
  std::optional<Frame> append(serial::Bytes&& payload,
                              std::span<const std::uint8_t> prefix = {});

  /// Ships the pending frame; nullopt when nothing is buffered.
  std::optional<Frame> flush(Flush reason = Flush::kForced);

  std::uint32_t buffered_messages() const { return pending_messages_; }

  // -- lifetime counters --
  std::uint64_t frames() const { return frames_; }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t flushes(Flush reason) const {
    return flushes_[static_cast<std::size_t>(reason)];
  }

 private:
  /// Tag and header: the first bytes of every frame. The count follows and
  /// is patched in place at flush time.
  serial::Bytes head_;
  std::uint32_t max_messages_;
  serial::BufferPool* pool_ = nullptr;
  serial::Bytes pending_;
  std::uint32_t pending_messages_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t flushes_[4] = {0, 0, 0, 0};
};

namespace detail {

/// The one structural walk over a frame: tag, header, a non-zero count,
/// every length prefix and the exact trailing boundary. Calls
/// `fn(entry, len)` per entry and stops at the first false.
template <typename Fn>
bool walk_entries(const serial::Bytes& frame, const Framing& framing, Fn&& fn) {
  serial::ByteReader r(frame);
  if (r.get_u8() != framing.tag) return false;
  r.skip(framing.header_bytes);
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count == 0) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = r.get_u32();
    if (!r.ok() || r.remaining() < len) return false;
    if (!fn(frame.data() + (frame.size() - r.remaining()), std::size_t{len})) {
      return false;
    }
    r.skip(len);
  }
  return r.ok() && r.done();  // no trailing garbage
}

}  // namespace detail

/// Validates `frame` completely — tag, header, count, every length prefix,
/// the exact trailing boundary, and `check(entry, len)` on every entry —
/// and only then calls `deliver(entry, len)` once per entry in append
/// order. Returns false without calling `deliver` on any violation. `check`
/// must have no side effects: it may see some entries of a frame that is
/// rejected later.
template <typename Check, typename Deliver>
bool decode_frame(const serial::Bytes& frame, const Framing& framing,
                  Check&& check, Deliver&& deliver) {
  if (!detail::walk_entries(frame, framing, check)) return false;
  detail::walk_entries(frame, framing,
                       [&deliver](const std::uint8_t* entry, std::size_t len) {
                         deliver(entry, len);
                         return true;
                       });
  return true;
}

/// The keyed slot table a coalescing layer is built on: one Coalescer per
/// slot behind its own mutex, and at most one flush timer per pending
/// frame (armed by the append that starts a frame; a threshold flush in
/// between makes the firing a no-op).
class CoalescerTable {
 public:
  /// Hands a completed frame of `slot` to the transport below. Runs with the
  /// slot's mutex held: the send must happen inside the critical section
  /// that ordered the flush, or two racing flushes could invert frame order
  /// and break FIFO. That is safe because every layer below releases its
  /// own locks before calling further down.
  using Ship = std::function<void(std::size_t slot, Frame&& frame)>;

  /// One slot per element of `headers`; each must be framing.header_bytes
  /// long.
  CoalescerTable(TimerDriver& timer, const CoalesceConfig& config,
                 const Framing& framing,
                 const std::vector<serial::Bytes>& headers, Ship ship);

  /// Wires `pool` into every slot. Call before the first append; null
  /// disables pooling (the default).
  void set_buffer_pool(serial::BufferPool* pool);

  /// Appends one entry to `slot`'s frame and ships the frame if a threshold
  /// tripped; otherwise arms the slot's flush timer if the frame is fresh.
  void append(std::size_t slot, serial::Bytes&& payload,
              std::span<const std::uint8_t> prefix = {});

  /// Ships every non-empty frame, in slot order.
  void flush_all();

  // -- counters summed over slots --
  std::uint64_t frames() const;
  std::uint64_t messages() const;
  std::uint64_t flushes(Flush reason) const;
  std::uint64_t buffered_messages() const;

  /// Folds the counters into `registry`: `<prefix>.frames.count`,
  /// `<prefix>.flush_{count,size,timer,forced}.count` and the
  /// `<prefix>.avg_messages_per_frame` gauge.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

 private:
  struct Slot {
    explicit Slot(Coalescer c) : coalescer(std::move(c)) {}
    std::mutex mutex;
    Coalescer coalescer;
    bool timer_armed = false;
  };

  void on_timer(std::size_t slot);
  template <typename Fn>
  std::uint64_t sum(Fn fn) const;

  TimerDriver& timer_;
  const SimTime max_delay_;
  const Ship ship_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace causim::net
