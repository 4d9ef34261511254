// TraceEvent — one typed record of the structured trace (causim::obs).
//
// Events cover the full message lifecycle the paper's aggregates hide:
// an operation is issued, an SM/FM/RM is sent, the transport holds it on
// the wire, delivers it, the receiver buffers it while the activation
// predicate is false, activates (applies) it, and the protocol merges or
// prunes its causal log along the way. Under the discrete-event simulator
// every timestamp comes from Simulator::now(), so a trace is a pure
// function of (schedule, seed) and two identical runs serialize to
// byte-identical files (asserted by tests/test_obs.cpp).
//
// The struct is a fixed-size POD so the recording sink can be a
// preallocated ring buffer with no per-event allocation.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "common/message_kind.hpp"

namespace causim::obs {

enum class TraceEventType : std::uint8_t {
  /// Application subsystem issued an operation (a = var, b = 1 for a
  /// write, 0 for a read).
  kOpIssue = 0,
  /// Operation completed (writes complete inline; for remote reads
  /// dur = fetch round-trip).
  kOpComplete,
  /// A message left the site (kind = SM/FM/RM, peer = destination,
  /// a = var, b = header+meta bytes).
  kSend,
  /// Transport accepted a packet onto the wire (peer = destination,
  /// dur = one-way delay incl. FIFO clamping, a = channel seq, b = bytes).
  kWireDelay,
  /// Transport handed a packet to the receiver (peer = sender,
  /// a = channel seq, b = bytes).
  kDeliver,
  /// An SM arrived but the activation predicate was false; it entered the
  /// pending queue (peer = sender, a = var, b = queue depth after).
  kBuffered,
  /// A pending SM was applied (peer = sender, a = var, dur = time spent
  /// buffered, b = 1 if it had been buffered, 0 if applied on arrival).
  kActivated,
  /// Causal-fetch extension: an FM was held back by its guard (peer =
  /// reader, a = var).
  kFetchHeld,
  /// A previously held FM was served (peer = reader, a = var).
  kFetchServed,
  /// Protocol merged piggybacked/stored meta-data into its local log
  /// (a = entries before, b = entries after).
  kLogMerge,
  /// Protocol pruned/purged its log (a = entries before, b = entries after).
  kLogPrune,
  /// The fault-injection layer discarded a packet (probabilistic loss or a
  /// scripted pause window; site = sender, peer = destination, b = bytes).
  /// Strictly a causim::faults event — never emitted by protocol code.
  kDrop,
  /// The reliability sublayer re-sent an unacked DATA frame after a
  /// retransmission timeout (site = sender, peer = destination,
  /// a = reliable channel seq, b = frame bytes). Also faults-layer-only.
  kRetransmit,
  /// The adaptive-RTO estimator folded in a round-trip sample taken from a
  /// cumulative ACK of a never-retransmitted frame (Karn's rule; site =
  /// data sender, peer = acking site, a = sample µs, b = resulting RTO µs).
  /// Emitted only with ReliableConfig::adaptive_rto; faults-layer-only.
  kRttSample,
  /// Periodic per-site instant from the live time-series sampler
  /// (obs::live, see ClusterConfig::live): a = pending (buffered) SM count
  /// at the sample instant, b = the sampler's monotonically increasing
  /// sample ordinal, c = causal-log entry count, d = serialized causal-log
  /// bytes. ts is the tick's timeseries-row timestamp on every substrate.
  /// Emitted only when live telemetry with a sample interval is attached;
  /// obs::analysis builds the log-occupancy series from these events.
  kTimeSample,
  /// Provenance span: one segment of a buffered SM's dependency wait. The
  /// activation predicate named a specific blocking dependency (see
  /// pack_blocking_dep); this event closes that segment when the blocker
  /// resolved — either because the predicate moved on to the next blocker
  /// or because the SM activated. ts = when this blocker became the
  /// blocking dependency, dur = how long it blocked, peer = the SM's
  /// sender, a = var, b = the SM's packed WriteId, c = the packed resolved
  /// blocker, d = the packed next blocker (0 when the SM is about to
  /// activate). Consecutive segments tile [receipt, apply), so their durs
  /// sum to the matching kActivated's dur exactly.
  kDepSatisfied,
  /// The batching layer shipped one coalesced frame (site = sender,
  /// peer = destination, a = batched message count, b = frame bytes).
  /// Emitted only with EngineConfig::batch.enabled — the coalescing
  /// transport edge, see net::BatchingTransport.
  kBatchFlush,
  /// The cross-DC gateway layer shipped one mailbox frame over a WAN link
  /// (site = origin gateway, peer = destination gateway, a = coalesced
  /// message count, b = frame bytes, c = origin cell index, d = destination
  /// cell index). Emitted only with a multi-cell topology and
  /// EngineConfig::gateway.enabled — see net::GatewayMailbox.
  kGatewayForward,
};

inline const char* to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kOpIssue: return "op_issue";
    case TraceEventType::kOpComplete: return "op_complete";
    case TraceEventType::kSend: return "send";
    case TraceEventType::kWireDelay: return "wire_delay";
    case TraceEventType::kDeliver: return "deliver";
    case TraceEventType::kBuffered: return "buffered";
    case TraceEventType::kActivated: return "activated";
    case TraceEventType::kFetchHeld: return "fetch_held";
    case TraceEventType::kFetchServed: return "fetch_served";
    case TraceEventType::kLogMerge: return "log_merge";
    case TraceEventType::kLogPrune: return "log_prune";
    case TraceEventType::kDrop: return "drop";
    case TraceEventType::kRetransmit: return "retransmit";
    case TraceEventType::kRttSample: return "rtt_sample";
    case TraceEventType::kTimeSample: return "time_sample";
    case TraceEventType::kDepSatisfied: return "dep_satisfied";
    case TraceEventType::kBatchFlush: return "batch_flush";
    case TraceEventType::kGatewayForward: return "gateway_forward";
  }
  return "??";
}

struct TraceEvent {
  TraceEventType type = TraceEventType::kOpIssue;
  /// Message kind for kSend; transport events are kind-agnostic (the wire
  /// carries opaque bytes) and leave the default.
  MessageKind kind = MessageKind::kSM;
  /// Site where the event happened.
  SiteId site = kInvalidSite;
  /// Other endpoint for message events; kInvalidSite otherwise.
  SiteId peer = kInvalidSite;
  /// Timestamp on the stack clock: Simulator::now() microseconds under the
  /// DES; ThreadTransport::now(), microseconds since the transport's
  /// construction, under threads.
  SimTime ts = 0;
  /// Span length in the same unit (0 for instants).
  SimTime dur = 0;
  /// Type-specific arguments (see the enum's comments).
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// Two more type-specific arguments. Provenance: kSend (SM), kBuffered
  /// and kActivated carry c = pack_write_id(write); kBuffered additionally
  /// carries d = the packed blocking dependency; kDepSatisfied uses both.
  /// kTimeSample carries c = log entries, d = log bytes, and
  /// kGatewayForward the origin/destination cells (see the enum). 0
  /// everywhere else, and 0 on traces recorded before the fields existed —
  /// readers must treat 0 as "not recorded".
  std::uint64_t c = 0;
  std::uint64_t d = 0;
};

/// WriteId <-> trace argument packing: (writer << 32) | clock. Writer ids
/// are 16 bits and clocks 32, so the pack is lossless; 0 is never a valid
/// packed id (a real write has clock >= 1), making it the "absent" marker.
inline std::uint64_t pack_write_id(WriteId w) {
  return (static_cast<std::uint64_t>(w.writer) << 32) | w.clock;
}

inline WriteId unpack_write_id(std::uint64_t packed) {
  return WriteId{static_cast<SiteId>(packed >> 32),
                 static_cast<WriteClock>(packed & 0xFFFFFFFFull)};
}

/// Blocking-dependency packing for kBuffered.d / kDepSatisfied.c|d. Same
/// layout as pack_write_id plus a tag bit: bit 48 set means `value` is a
/// per-site activation *ordinal* (the value-th SM from `writer` applied at
/// the blocked site — Full-Track counts per-destination deliveries, not
/// writer clocks), clear means `value` is the writer's clock, i.e. a real
/// WriteId (Opt-P / Opt-Track / Opt-Track-CRP). Bit 48 rather than 63 so
/// every packed value stays below 2^53 and survives the JSON double
/// round-trip of the Chrome trace format losslessly.
constexpr std::uint64_t kBlockingDepOrdinalBit = 1ull << 48;

inline std::uint64_t pack_blocking_dep(SiteId writer, WriteClock value,
                                       bool is_ordinal) {
  return (is_ordinal ? kBlockingDepOrdinalBit : 0ull) |
         (static_cast<std::uint64_t>(writer) << 32) | value;
}

}  // namespace causim::obs
