// ReliableChannel / ReliableTransport — exactly-once FIFO delivery on top
// of a lossy, duplicating, reordering channel (causim::faults).
//
// The paper's system model assumes reliable FIFO channels (TCP, §II-B);
// the fault-injection layer deliberately breaks that assumption, and this
// sublayer restores it the way TCP does: every app-level packet on a
// directed (from, to) channel is wrapped in a DATA frame carrying a
// per-channel sequence number, the receiver releases frames strictly in
// sequence (buffering out-of-order arrivals, suppressing duplicates) and
// answers every DATA frame with a cumulative ACK, and the sender
// retransmits unacked frames on a timeout that backs off exponentially
// and resets on forward progress.
//
// The ARQ policy is configurable (ReliableConfig):
//   * go-back-N (default) — on timeout, resend *everything* unacked.
//     Simple, and byte-identical to the layer's original behaviour.
//   * selective repeat — the receiver piggybacks the sequence numbers it
//     holds out of order (a SACK list) on every cumulative ACK, and the
//     sender resends only the frames the receiver is actually missing.
//   * adaptive RTO — Jacobson/Karels SRTT/RTTVAR estimation from ACK
//     round-trip samples with Karn's rule (retransmitted frames are never
//     sampled), replacing the fixed initial timeout; retransmission is
//     age-gated per frame so a timer firing never resends data that has
//     not yet been in flight for a full RTO.
//
// ReliableChannel is the pure per-channel state machine — no transport,
// no timers, no locks — so property tests can drive it through adversarial
// drop/duplication/reordering sequences directly (tests/
// test_reliable_channel.cpp). Its common path takes no container node:
// the sender keeps unacked frames in a deque indexed by sequence number
// (the window is always contiguous), an in-order DATA frame is released
// straight from the frame without entering the reorder map, and a caller
// that hands Ingest::released back (recycle()) lets the next frame reuse
// it. With a buffer pool attached, a send, its in-order receipt and its
// cumulative ACK allocate nothing once warm but the window deque's chunk
// (one per ten frames with libstdc++). ReliableTransport composes n×n channels with
// an inner (typically fault-injected) Transport and a TimerDriver into a
// drop-in net::Transport: protocol and runtime code above it still sees
// the reliable FIFO substrate it was written against.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/ids.hpp"
#include "net/timer.hpp"
#include "net/transport.hpp"
#include "serial/buffer_pool.hpp"

namespace causim::obs {
class MetricsRegistry;
}  // namespace causim::obs

namespace causim::net {

/// Retransmission policy of the reliability sublayer.
enum class ArqMode : std::uint8_t {
  /// Timeout resends every unacked frame; ACKs are plain cumulative.
  kGoBackN = 0,
  /// ACKs carry a SACK list of out-of-order frames the receiver already
  /// holds; timeout resends only frames not covered by cum-ack or SACK.
  kSelectiveRepeat,
};

inline const char* to_string(ArqMode mode) {
  switch (mode) {
    case ArqMode::kGoBackN: return "go-back-N";
    case ArqMode::kSelectiveRepeat: return "selective-repeat";
  }
  return "??";
}

struct ReliableConfig {
  /// First retransmission timeout — and, without adaptive_rto, the value
  /// the RTO resets to on ACK progress. Should comfortably exceed one
  /// round trip; spurious retransmits are suppressed as duplicates but
  /// waste wire bytes.
  SimTime rto_initial = 400 * kMillisecond;
  /// Backoff ceiling (and the adaptive estimator's upper clamp).
  SimTime rto_max = 10 * kSecond;
  /// RTO multiplier applied on every timeout that actually retransmits;
  /// cleared when an ACK acknowledges new data.
  double rto_backoff = 2.0;
  /// Retransmission policy. The default keeps the original go-back-N wire
  /// format and timing byte-identical.
  ArqMode arq = ArqMode::kGoBackN;
  /// Jacobson/Karels RTT estimation: RTO = SRTT + 4·RTTVAR (clamped to
  /// [rto_min, rto_max]), sampled from ACKs of never-retransmitted frames
  /// (Karn's rule), with rto_initial as the pre-sample fallback. Also
  /// age-gates retransmission: a timer firing resends only frames whose
  /// last transmission is at least one RTO old, so pipelined traffic never
  /// triggers spurious resends of data still legitimately in flight.
  bool adaptive_rto = false;
  /// Lower clamp of the adaptive estimator — the RFC 6298 minimum-RTO
  /// idea. The conservative default (= rto_initial) means adaptation only
  /// ever *raises* the timeout above the old fixed value; lower it when
  /// the deployment's worst-case RTT is known to be smaller.
  SimTime rto_min = 400 * kMillisecond;
};

class ReliableChannel {
 public:
  static constexpr std::uint8_t kDataFrame = 0xD1;
  static constexpr std::uint8_t kAckFrame = 0xA2;
  /// Selective-repeat ACK: the cumulative value, then a u8 count and
  /// `count` LE u64 sequence numbers the receiver holds out of order.
  static constexpr std::uint8_t kSackFrame = 0xA3;
  /// u8 frame tag + u64 seq (DATA) or cumulative ack (ACK/SACK).
  static constexpr std::size_t kFrameHeaderBytes = 9;
  /// SACK list cap (the count is a single byte). A reorder buffer deeper
  /// than this just advertises its first 255 entries — correctness never
  /// depends on SACK, it only suppresses redundant resends.
  static constexpr std::size_t kMaxSackEntries = 255;

  explicit ReliableChannel(ReliableConfig config = {});

  /// Frames (DATA, ACK, retransmission copies) are acquired from `pool` and
  /// acked/consumed frames released back to it. Null (the default) falls
  /// back to plain allocation — the state machine itself is unchanged.
  void set_buffer_pool(serial::BufferPool* pool) { pool_ = pool; }

  // ---- sender half ----

  /// Wraps `payload` into a DATA frame, assigns the next sequence number
  /// and remembers the frame for retransmission until acked. `now` stamps
  /// the transmission for RTT sampling and age-gating (ignored — and safely
  /// omittable — without adaptive_rto).
  serial::Bytes send(const serial::Bytes& payload, SimTime now = 0);

  /// True while unacked data exists (a retransmission timer must be armed).
  bool timer_needed() const { return !unacked_.empty(); }

  /// Current retransmission timeout.
  SimTime rto() const { return rto_; }

  /// Earliest instant any outstanding frame becomes eligible for
  /// retransmission (last transmission + current RTO, over frames a
  /// timeout would actually resend). Only meaningful while timer_needed().
  SimTime next_deadline() const;

  struct Frame {
    std::uint64_t seq = 0;
    serial::Bytes bytes;
  };

  /// Retransmission timeout fired: returns the frames to resend in
  /// sequence order — every unacked frame under go-back-N, only
  /// un-SACKed frames under selective repeat, and (with adaptive_rto)
  /// only frames at least one RTO old. Multiplies the RTO by the backoff
  /// factor (up to the ceiling) when anything was actually resent. Empty
  /// when nothing is eligible.
  std::vector<Frame> on_timer(SimTime now = 0);

  // ---- ingest (both halves) ----

  struct Released {
    std::uint64_t seq = 0;
    serial::Bytes payload;
  };

  struct Ingest {
    /// In-order payloads this frame unlocked (DATA only; possibly several
    /// when it filled a reorder gap, empty for duplicates/out-of-order).
    std::vector<Released> released;
    /// Cumulative ACK frame to send back to the peer (every DATA frame,
    /// including duplicates, is answered — the previous ACK may be lost).
    serial::Bytes ack;
    bool was_ack = false;
    bool was_duplicate = false;
    /// An ACK acknowledged at least one new frame (resets the backoff).
    bool made_progress = false;
    /// The frame was syntactically invalid (truncated header, unknown tag,
    /// SACK list overrunning the frame) and was ignored without touching
    /// any channel state.
    bool malformed = false;
    /// The frame was a well-formed ACK/SACK claiming data this sender
    /// never sent (cum > next_seq, or a SACK entry >= next_seq); it was
    /// rejected without advancing sender state — a corrupted or forged
    /// ACK must not fake delivery.
    bool ack_rejected = false;
    /// Adaptive RTO: round-trip sample taken from this ACK (µs; 0 = none,
    /// e.g. every acked frame had been retransmitted — Karn's rule).
    SimTime rtt_sample = 0;
  };

  /// Feeds one frame received from the peer (DATA for the incoming
  /// direction, ACK/SACK for the outgoing one). `now` feeds RTT sampling,
  /// as in send().
  Ingest on_frame(const serial::Bytes& frame, SimTime now = 0);

  /// Hands back a spent Ingest::released vector; the next DATA frame's
  /// Ingest reuses its capacity instead of allocating. Optional.
  void recycle(std::vector<Released>&& spent) {
    spent.clear();
    spare_released_ = std::move(spent);
  }

  // ---- introspection ----

  /// The knobs this channel was built with (per-channel configs differ
  /// under a topology with per-scope ARQ overrides).
  const ReliableConfig& config() const { return config_; }

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t unacked() const { return static_cast<std::uint64_t>(unacked_.size()); }
  std::uint64_t next_expected() const { return next_expected_; }
  std::size_t reorder_buffered() const { return reorder_.size(); }
  std::uint64_t retransmit_count() const { return retransmits_; }
  std::uint64_t dup_suppressed() const { return dup_suppressed_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t malformed_count() const { return malformed_; }
  std::uint64_t acks_rejected() const { return acks_rejected_; }
  /// Outstanding frames currently covered by a SACK (selective repeat).
  std::uint64_t sacked_outstanding() const { return sacked_outstanding_; }

  // -- adaptive RTO estimator --

  std::uint64_t rtt_samples() const { return rtt_samples_; }
  /// Smoothed RTT estimate in µs (0 before the first sample).
  SimTime srtt() const { return static_cast<SimTime>(srtt_); }
  /// RTT mean deviation in µs (0 before the first sample).
  SimTime rttvar() const { return static_cast<SimTime>(rttvar_); }

 private:
  struct Outstanding {
    serial::Bytes bytes;       // framed copy kept for retransmission
    SimTime first_tx = 0;      // original send instant (RTT sample base)
    SimTime last_tx = 0;       // most recent (re)transmission
    bool retransmitted = false;  // Karn: excluded from RTT sampling
    bool sacked = false;       // receiver holds it (selective repeat only)
  };

  std::uint64_t first_unacked() const { return next_seq_ - unacked_.size(); }
  serial::Bytes make_ack();
  serial::Bytes make_frame(std::uint8_t tag, std::uint64_t value,
                           const serial::Bytes* payload) const;
  serial::Bytes pooled_copy(const serial::Bytes& bytes) const;
  Ingest ingest_ack(std::uint8_t tag, const serial::Bytes& frame, SimTime now);
  /// Selective repeat: true when a timeout should NOT resend this frame
  /// (the receiver already holds it) — except the all-sacked probe case.
  bool skip_sacked(std::uint64_t seq, const Outstanding& frame) const;
  void record_rtt_sample(SimTime sample);
  /// The RTO an ACK making progress resets to: the clamped estimator value
  /// under adaptive_rto (once a sample exists), rto_initial otherwise.
  SimTime progress_rto() const;

  ReliableConfig config_;
  SimTime rto_;
  serial::BufferPool* pool_ = nullptr;

  // sender half
  std::uint64_t next_seq_ = 0;
  /// Frames sent and not yet cumulatively acked: seqs [first_unacked(),
  /// next_seq_), one entry each, so a seq indexes its frame directly.
  std::deque<Outstanding> unacked_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t sacked_outstanding_ = 0;
  std::uint64_t acks_rejected_ = 0;
  std::uint64_t malformed_ = 0;

  // adaptive RTO estimator (Jacobson/Karels, RFC 6298 constants)
  bool has_srtt_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  std::uint64_t rtt_samples_ = 0;

  // receiver half
  std::uint64_t next_expected_ = 0;
  /// Out-of-order payloads (seq > next_expected_); an in-order frame is
  /// released without passing through here.
  std::map<std::uint64_t, serial::Bytes> reorder_;
  std::vector<Released> spare_released_;  // see recycle()
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t acks_sent_ = 0;
};

/// Transport decorator restoring exactly-once FIFO delivery over a lossy
/// inner transport. packets_sent()/packets_delivered() count app-level
/// packets (one per outer send / one per handler invocation), so the
/// cluster quiescence invariant "sent == delivered" keeps holding with
/// faults between the runtimes and the wire.
class ReliableTransport final : public Transport, public PacketHandler {
 public:
  /// Per-channel ARQ configuration: maps a directed (from, to) channel to
  /// its knobs. Lets a topology give WAN links a different retransmission
  /// policy than LAN links (topo::LinkProfile::reliable).
  using ConfigFn = std::function<ReliableConfig(SiteId from, SiteId to)>;

  /// Attaches itself as the inner transport's handler for every site, so
  /// construct the stack bottom-up and attach the real handlers here.
  ReliableTransport(Transport& inner, TimerDriver& timer, ReliableConfig config = {});

  /// Same, with every directed channel configured independently. The
  /// uniform ctor delegates here, so both build byte-identical stacks for
  /// a constant ConfigFn.
  ReliableTransport(Transport& inner, TimerDriver& timer, const ConfigFn& config_of);

  void attach(SiteId site, PacketHandler* handler) override;
  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return inner_.size(); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;
  /// Keeps the sink for kRetransmit/kRttSample events and forwards it down
  /// the stack.
  void set_trace_sink(obs::TraceSink* sink) override;

  /// Wires `pool` into every per-channel state machine and recycles
  /// consumed wire frames (ACKs, duplicates, absorbed DATA) through it.
  /// Call before the first send; null disables pooling (the default).
  void set_buffer_pool(serial::BufferPool* pool);

  void on_packet(Packet packet) override;

  /// Blocks until every app-level packet has been delivered, handled and
  /// acked (thread runs; under the DES the simulator draining implies it).
  /// Only meaningful once the application layer has stopped initiating new
  /// work, exactly like ThreadTransport::quiesce().
  void wait_quiescent();
  bool quiescent() const;

  std::uint64_t retransmits() const;
  std::uint64_t dup_suppressed() const;
  std::uint64_t acks_sent() const;
  /// Frames handed to the inner transport (first transmissions +
  /// retransmissions + ACKs) — the wire amplification factor of the
  /// reliability layer.
  std::uint64_t frames_sent() const;
  /// Wire frames dropped as syntactically invalid (truncated, unknown tag,
  /// bad SACK list) instead of crashing — the recoverable-wire-boundary
  /// policy of Envelope::try_decode applied to this layer's own frames.
  std::uint64_t malformed() const;
  /// Well-formed ACKs rejected for claiming never-sent data.
  std::uint64_t acks_rejected() const;
  /// RTT samples folded into the adaptive estimators (all channels).
  std::uint64_t rtt_samples() const;

  /// Folds the layer's counters into `registry` under net.reliable.* —
  /// deliberately disjoint from the protocol's msg.* namespace.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct Chan {
    ReliableChannel channel;
    bool timer_armed = false;
  };

  std::size_t index(SiteId from, SiteId to) const {
    return static_cast<std::size_t>(from) * n_ + to;
  }
  /// Arms the retransmission timer for channel `idx` (= from * n + to) if
  /// needed (lock held).
  void arm_locked(std::size_t idx, SimTime now);
  void on_rto(std::size_t idx);

  Transport& inner_;
  TimerDriver& timer_;
  const SiteId n_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Chan> chans_;
  std::vector<PacketHandler*> handlers_;
  std::uint64_t sent_ = 0;       // app-level packets accepted by send()
  std::uint64_t delivered_ = 0;  // app-level packets fully handled
  std::uint64_t frames_sent_ = 0;
  std::uint64_t wire_malformed_ = 0;  // dropped before reaching a channel
  std::size_t reorder_hwm_ = 0;
  obs::TraceSink* trace_ = nullptr;
  serial::BufferPool* pool_ = nullptr;
};

}  // namespace causim::net
