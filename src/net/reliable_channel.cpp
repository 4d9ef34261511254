#include "net/reliable_channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace causim::net {

namespace {

std::uint64_t read_u64(const serial::Bytes& frame, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(frame[at + i]) << (8 * i);
  }
  return v;
}

std::uint64_t frame_value(const serial::Bytes& frame) { return read_u64(frame, 1); }

SimTime clamp_time(double value, SimTime lo, SimTime hi) {
  if (value <= static_cast<double>(lo)) return lo;
  if (value >= static_cast<double>(hi)) return hi;
  return static_cast<SimTime>(value);
}

}  // namespace

ReliableChannel::ReliableChannel(ReliableConfig config)
    : config_(config), rto_(config.rto_initial) {
  CAUSIM_CHECK(config_.rto_initial > 0, "rto_initial must be positive");
  CAUSIM_CHECK(config_.rto_max >= config_.rto_initial, "rto_max below rto_initial");
  CAUSIM_CHECK(config_.rto_backoff >= 1.0, "rto_backoff must be >= 1");
  if (config_.adaptive_rto) {
    CAUSIM_CHECK(config_.rto_min > 0, "rto_min must be positive");
    CAUSIM_CHECK(config_.rto_max >= config_.rto_min, "rto_max below rto_min");
  }
}

serial::Bytes ReliableChannel::make_frame(std::uint8_t tag, std::uint64_t value,
                                          const serial::Bytes* payload) const {
  serial::Bytes out = pool_ != nullptr ? pool_->acquire() : serial::Bytes{};
  out.reserve(kFrameHeaderBytes + (payload ? payload->size() : 0));
  out.push_back(tag);
  for (std::size_t i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  if (payload != nullptr) out.insert(out.end(), payload->begin(), payload->end());
  return out;
}

serial::Bytes ReliableChannel::pooled_copy(const serial::Bytes& bytes) const {
  return pool_ != nullptr ? pool_->copy(bytes.data(), bytes.size()) : bytes;
}

serial::Bytes ReliableChannel::send(const serial::Bytes& payload, SimTime now) {
  const std::uint64_t seq = next_seq_++;
  serial::Bytes frame = make_frame(kDataFrame, seq, &payload);
  unacked_.push_back(Outstanding{pooled_copy(frame), now, now, false, false});
  return frame;
}

bool ReliableChannel::skip_sacked(std::uint64_t seq, const Outstanding& frame) const {
  if (config_.arq != ArqMode::kSelectiveRepeat || !frame.sacked) return false;
  // Corner case: a stale SACK (reordered ACK channel) can leave *every*
  // outstanding frame marked sacked, with the cumulative ACK that would
  // clear them lost. The receiver holds (or has delivered) all of them, so
  // resending the lowest frame is a pure ACK-eliciting probe — without it
  // the channel would wedge.
  return !(sacked_outstanding_ == unacked_.size() && seq == first_unacked());
}

SimTime ReliableChannel::next_deadline() const {
  SimTime deadline = std::numeric_limits<SimTime>::max();
  std::uint64_t seq = first_unacked();
  for (const Outstanding& frame : unacked_) {
    if (!skip_sacked(seq++, frame)) deadline = std::min(deadline, frame.last_tx + rto_);
  }
  return deadline;
}

std::vector<ReliableChannel::Frame> ReliableChannel::on_timer(SimTime now) {
  std::vector<Frame> out;
  if (unacked_.empty()) return out;
  out.reserve(unacked_.size());
  std::uint64_t seq = first_unacked();
  for (Outstanding& frame : unacked_) {
    const std::uint64_t this_seq = seq++;
    if (skip_sacked(this_seq, frame)) continue;
    // Age gate (adaptive only): a frame still legitimately in flight —
    // transmitted less than one RTO ago — is not resent just because an
    // older frame's timer happened to fire.
    if (config_.adaptive_rto && now - frame.last_tx < rto_) continue;
    frame.retransmitted = true;
    frame.last_tx = now;
    out.push_back(Frame{this_seq, pooled_copy(frame.bytes)});
    ++retransmits_;
  }
  if (!out.empty()) {
    const double next = static_cast<double>(rto_) * config_.rto_backoff;
    rto_ = next >= static_cast<double>(config_.rto_max) ? config_.rto_max
                                                        : static_cast<SimTime>(next);
  }
  return out;
}

serial::Bytes ReliableChannel::make_ack() {
  ++acks_sent_;
  if (config_.arq == ArqMode::kGoBackN) {
    return make_frame(kAckFrame, next_expected_, nullptr);
  }
  // Selective repeat: piggyback the out-of-order frames already held, so
  // the peer resends only what is actually missing.
  serial::Bytes out = make_frame(kSackFrame, next_expected_, nullptr);
  const std::size_t count = std::min(reorder_.size(), kMaxSackEntries);
  out.push_back(static_cast<std::uint8_t>(count));
  std::size_t emitted = 0;
  for (const auto& [seq, payload] : reorder_) {
    if (emitted++ == count) break;
    for (std::size_t i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
    }
  }
  return out;
}

void ReliableChannel::record_rtt_sample(SimTime sample) {
  const auto r = static_cast<double>(sample);
  if (!has_srtt_) {
    srtt_ = r;
    rttvar_ = r / 2.0;
    has_srtt_ = true;
  } else {
    // RFC 6298: RTTVAR first (it uses the previous SRTT), β=1/4, α=1/8.
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - r);
    srtt_ = 0.875 * srtt_ + 0.125 * r;
  }
  ++rtt_samples_;
}

SimTime ReliableChannel::progress_rto() const {
  if (config_.adaptive_rto && has_srtt_) {
    return clamp_time(srtt_ + 4.0 * rttvar_, config_.rto_min, config_.rto_max);
  }
  return config_.rto_initial;
}

ReliableChannel::Ingest ReliableChannel::ingest_ack(std::uint8_t tag,
                                                    const serial::Bytes& frame,
                                                    SimTime now) {
  Ingest out;
  out.was_ack = true;
  const std::uint64_t value = frame_value(frame);

  // Parse and validate everything before mutating: a rejected frame must
  // leave the channel exactly as it found it.
  std::size_t sack_count = 0;
  std::size_t sack_at = 0;
  if (tag == kSackFrame) {
    if (frame.size() < kFrameHeaderBytes + 1) {
      out.malformed = true;
      ++malformed_;
      return out;
    }
    sack_count = frame[kFrameHeaderBytes];
    sack_at = kFrameHeaderBytes + 1;
    if (frame.size() < sack_at + 8 * sack_count) {
      out.malformed = true;
      ++malformed_;
      return out;
    }
  }
  if (value > next_seq_) {
    out.ack_rejected = true;
    ++acks_rejected_;
    return out;
  }
  for (std::size_t i = 0; i < sack_count; ++i) {
    if (read_u64(frame, sack_at + 8 * i) >= next_seq_) {
      out.ack_rejected = true;
      ++acks_rejected_;
      return out;
    }
  }

  // One RTT sample per ACK, from the freshest frame it newly covers that
  // was never retransmitted (Karn's rule).
  SimTime sample_base = -1;

  // Cumulative: `value` is the peer's next_expected, acking all seq < value.
  while (!unacked_.empty() && first_unacked() < value) {
    Outstanding& frame_state = unacked_.front();
    if (frame_state.sacked) --sacked_outstanding_;
    if (!frame_state.retransmitted) {
      sample_base = std::max(sample_base, frame_state.first_tx);
    }
    if (pool_ != nullptr) pool_->release(std::move(frame_state.bytes));
    unacked_.pop_front();
    out.made_progress = true;
  }
  if (config_.arq == ArqMode::kSelectiveRepeat) {
    for (std::size_t i = 0; i < sack_count; ++i) {
      // Validated above: seq < next_seq_. Below the window means acked.
      const std::uint64_t seq = read_u64(frame, sack_at + 8 * i);
      if (seq < first_unacked()) continue;
      Outstanding& held = unacked_[seq - first_unacked()];
      if (held.sacked) continue;
      held.sacked = true;
      ++sacked_outstanding_;
      if (!held.retransmitted) sample_base = std::max(sample_base, held.first_tx);
      out.made_progress = true;
    }
  }
  if (out.made_progress) {
    if (config_.adaptive_rto && sample_base >= 0 && now > sample_base) {
      out.rtt_sample = now - sample_base;
      record_rtt_sample(out.rtt_sample);
    }
    rto_ = progress_rto();
  }
  return out;
}

ReliableChannel::Ingest ReliableChannel::on_frame(const serial::Bytes& frame,
                                                  SimTime now) {
  Ingest out;
  // Wire input is untrusted: a truncated or unknown frame is counted and
  // dropped, never a panic (the recoverable-wire-boundary policy).
  if (frame.size() < kFrameHeaderBytes) {
    out.malformed = true;
    ++malformed_;
    return out;
  }
  const std::uint8_t tag = frame[0];
  if (tag == kAckFrame || tag == kSackFrame) return ingest_ack(tag, frame, now);
  if (tag != kDataFrame) {
    out.malformed = true;
    ++malformed_;
    return out;
  }
  const std::uint64_t seq = frame_value(frame);
  out.released = std::move(spare_released_);
  const auto payload = [&] {
    return pool_ != nullptr ? pool_->copy(frame.data() + kFrameHeaderBytes,
                                          frame.size() - kFrameHeaderBytes)
                            : serial::Bytes(frame.begin() + kFrameHeaderBytes, frame.end());
  };
  if (seq == next_expected_) {
    // In order: released straight from the frame. Nothing at this seq can
    // be buffered (the gap it fills only ever held later frames).
    out.released.push_back(Released{seq, payload()});
    ++next_expected_;
    // It may have filled a gap: release the buffered run behind it.
    while (!reorder_.empty() && reorder_.begin()->first == next_expected_) {
      out.released.push_back(Released{next_expected_, std::move(reorder_.begin()->second)});
      reorder_.erase(reorder_.begin());
      ++next_expected_;
    }
  } else if (seq < next_expected_ || reorder_.count(seq) != 0) {
    out.was_duplicate = true;
    ++dup_suppressed_;
  } else {
    reorder_.emplace(seq, payload());
  }
  // Every DATA frame is acked, duplicates included: the duplicate usually
  // means our previous ACK was lost.
  out.ack = make_ack();
  return out;
}

// ---------------------------------------------------------------------------

ReliableTransport::ReliableTransport(Transport& inner, TimerDriver& timer,
                                     ReliableConfig config)
    : ReliableTransport(inner, timer,
                        [&config](SiteId, SiteId) { return config; }) {}

ReliableTransport::ReliableTransport(Transport& inner, TimerDriver& timer,
                                     const ConfigFn& config_of)
    : inner_(inner),
      timer_(timer),
      n_(inner.size()),
      handlers_(n_, nullptr) {
  CAUSIM_CHECK(config_of != nullptr,
               "ReliableTransport needs a per-channel config function");
  chans_.reserve(static_cast<std::size_t>(n_) * n_);
  for (SiteId from = 0; from < n_; ++from) {
    for (SiteId to = 0; to < n_; ++to) {
      chans_.push_back(Chan{ReliableChannel(config_of(from, to)), false});
    }
  }
  for (SiteId s = 0; s < n_; ++s) inner_.attach(s, this);
}

void ReliableTransport::attach(SiteId site, PacketHandler* handler) {
  CAUSIM_CHECK(site < n_, "attach: site " << site << " out of range");
  std::lock_guard lock(mutex_);
  handlers_[site] = handler;
}

void ReliableTransport::send(SiteId from, SiteId to, serial::Bytes bytes) {
  const SimTime now = timer_.now();
  serial::Bytes frame;
  {
    std::lock_guard lock(mutex_);
    ++sent_;
    ++frames_sent_;
    const std::size_t idx = index(from, to);
    frame = chans_[idx].channel.send(bytes, now);
    // The app payload was copied into the DATA frame; recycle the caller's
    // buffer instead of letting it drain the pool.
    if (pool_ != nullptr) pool_->release(std::move(bytes));
    arm_locked(idx, now);
  }
  // Outside the lock: the inner transport never calls back synchronously,
  // but its own locks should not nest under ours. Two app threads racing
  // here can hand frames to the wire out of seq order; the receiver's
  // reorder buffer absorbs that.
  inner_.send(from, to, std::move(frame));
}

void ReliableTransport::arm_locked(std::size_t idx, SimTime now) {
  Chan& chan = chans_[idx];
  if (chan.timer_armed || !chan.channel.timer_needed()) return;
  chan.timer_armed = true;
  SimTime delay = chan.channel.rto();
  if (chan.channel.config().adaptive_rto) {
    // Fire at the earliest per-frame deadline; a firing that finds nothing
    // aged out simply rearms, so progress pushes the real timeout forward.
    const SimTime deadline = chan.channel.next_deadline();
    delay = deadline > now ? deadline - now : 1;
  }
  // (this, idx) fits std::function's inline buffer: arming allocates nothing.
  timer_.schedule(delay, [this, idx] { on_rto(idx); });
}

void ReliableTransport::on_rto(std::size_t idx) {
  const auto from = static_cast<SiteId>(idx / n_);
  const auto to = static_cast<SiteId>(idx % n_);
  const SimTime now = timer_.now();
  std::vector<ReliableChannel::Frame> frames;
  {
    std::lock_guard lock(mutex_);
    Chan& chan = chans_[idx];
    chan.timer_armed = false;
    frames = chan.channel.on_timer(now);
    frames_sent_ += frames.size();
    arm_locked(idx, now);
  }
  for (ReliableChannel::Frame& f : frames) {
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kRetransmit;
      e.site = from;
      e.peer = to;
      e.ts = now;
      e.a = f.seq;
      e.b = f.bytes.size();
      trace_->emit(e);
    }
    inner_.send(from, to, std::move(f.bytes));
  }
}

void ReliableTransport::set_buffer_pool(serial::BufferPool* pool) {
  std::lock_guard lock(mutex_);
  pool_ = pool;
  for (Chan& chan : chans_) chan.channel.set_buffer_pool(pool);
}

void ReliableTransport::on_packet(Packet packet) {
  // A frame too short to carry a tag + sequence number is dropped here —
  // it cannot even be routed to a channel.
  if (packet.bytes.size() < ReliableChannel::kFrameHeaderBytes) {
    std::lock_guard lock(mutex_);
    ++wire_malformed_;
    if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
    return;
  }
  const std::uint8_t tag = packet.bytes[0];
  const bool is_ack =
      tag == ReliableChannel::kAckFrame || tag == ReliableChannel::kSackFrame;
  if (!is_ack && tag != ReliableChannel::kDataFrame) {
    std::lock_guard lock(mutex_);
    ++wire_malformed_;
    if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
    return;
  }
  const SimTime now = timer_.now();
  if (is_ack) {
    // An ACK from `packet.from` acknowledges the data channel running the
    // other way: packet.to -> packet.from.
    const std::size_t idx = index(packet.to, packet.from);
    SimTime rtt_sample = 0;
    SimTime rto_after = 0;
    {
      std::lock_guard lock(mutex_);
      const ReliableChannel::Ingest ingest =
          chans_[idx].channel.on_frame(packet.bytes, now);
      rtt_sample = ingest.rtt_sample;
      rto_after = chans_[idx].channel.rto();
      if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
      cv_.notify_all();
    }
    if (trace_ != nullptr && rtt_sample > 0) {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kRttSample;
      e.site = packet.to;  // the data sender's track, like kRetransmit
      e.peer = packet.from;
      e.ts = now;
      e.a = static_cast<std::uint64_t>(rtt_sample);
      e.b = static_cast<std::uint64_t>(rto_after);
      trace_->emit(e);
    }
    return;
  }
  std::vector<ReliableChannel::Released> released;
  serial::Bytes ack;
  PacketHandler* handler = nullptr;
  const std::size_t idx = index(packet.from, packet.to);
  {
    std::lock_guard lock(mutex_);
    ReliableChannel::Ingest ingest = chans_[idx].channel.on_frame(packet.bytes, now);
    reorder_hwm_ = std::max(reorder_hwm_, chans_[idx].channel.reorder_buffered());
    released = std::move(ingest.released);
    ack = std::move(ingest.ack);
    ++frames_sent_;  // the ACK below
    handler = handlers_[packet.to];
    // The DATA frame is spent: its payload was copied into the reorder
    // buffer (or it was a suppressed duplicate) and the ACK is built.
    if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
  }
  inner_.send(packet.to, packet.from, std::move(ack));
  CAUSIM_CHECK(handler != nullptr, "packet for unattached site " << packet.to);
  // Handlers run outside the lock: they may send (re-entering this layer)
  // and they take the site's own lock, which must never nest inside ours.
  for (std::size_t i = 0; i < released.size(); ++i) {
    ReliableChannel::Released& r = released[i];
    handler->on_packet(Packet{packet.from, packet.to, r.seq, std::move(r.payload)});
    {
      std::lock_guard lock(mutex_);
      ++delivered_;
      // The last release hands the vector back for the channel's next frame.
      if (i + 1 == released.size()) chans_[idx].channel.recycle(std::move(released));
    }
    cv_.notify_all();
  }
}

bool ReliableTransport::quiescent() const {
  std::lock_guard lock(mutex_);
  if (sent_ != delivered_) return false;
  for (const Chan& chan : chans_) {
    if (chan.channel.unacked() != 0) return false;
  }
  return true;
}

void ReliableTransport::wait_quiescent() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] {
    if (sent_ != delivered_) return false;
    for (const Chan& chan : chans_) {
      if (chan.channel.unacked() != 0) return false;
    }
    return true;
  });
}

std::uint64_t ReliableTransport::packets_sent() const {
  std::lock_guard lock(mutex_);
  return sent_;
}

std::uint64_t ReliableTransport::packets_delivered() const {
  std::lock_guard lock(mutex_);
  return delivered_;
}

void ReliableTransport::set_trace_sink(obs::TraceSink* sink) {
  {
    std::lock_guard lock(mutex_);
    trace_ = sink;
  }
  inner_.set_trace_sink(sink);
}

std::uint64_t ReliableTransport::retransmits() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const Chan& chan : chans_) total += chan.channel.retransmit_count();
  return total;
}

std::uint64_t ReliableTransport::dup_suppressed() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const Chan& chan : chans_) total += chan.channel.dup_suppressed();
  return total;
}

std::uint64_t ReliableTransport::acks_sent() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const Chan& chan : chans_) total += chan.channel.acks_sent();
  return total;
}

std::uint64_t ReliableTransport::frames_sent() const {
  std::lock_guard lock(mutex_);
  return frames_sent_;
}

std::uint64_t ReliableTransport::malformed() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = wire_malformed_;
  for (const Chan& chan : chans_) total += chan.channel.malformed_count();
  return total;
}

std::uint64_t ReliableTransport::acks_rejected() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const Chan& chan : chans_) total += chan.channel.acks_rejected();
  return total;
}

std::uint64_t ReliableTransport::rtt_samples() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const Chan& chan : chans_) total += chan.channel.rtt_samples();
  return total;
}

void ReliableTransport::export_metrics(obs::MetricsRegistry& registry) const {
  std::lock_guard lock(mutex_);
  std::uint64_t retransmits = 0, dups = 0, acks = 0, malformed = wire_malformed_;
  std::uint64_t rejected = 0, samples = 0;
  double srtt_sum = 0.0, rto_sum = 0.0;
  std::uint64_t sampled_chans = 0;
  for (const Chan& chan : chans_) {
    retransmits += chan.channel.retransmit_count();
    dups += chan.channel.dup_suppressed();
    acks += chan.channel.acks_sent();
    malformed += chan.channel.malformed_count();
    rejected += chan.channel.acks_rejected();
    samples += chan.channel.rtt_samples();
    if (chan.channel.rtt_samples() > 0) {
      ++sampled_chans;
      srtt_sum += static_cast<double>(chan.channel.srtt());
      rto_sum += static_cast<double>(chan.channel.rto());
    }
  }
  registry.counter("net.reliable.data.count").add(sent_);
  registry.counter("net.reliable.retransmit.count").add(retransmits);
  registry.counter("net.reliable.dup.count").add(dups);
  registry.counter("net.reliable.ack.count").add(acks);
  registry.counter("net.reliable.frames.count").add(frames_sent_);
  registry.counter("net.reliable.malformed.count").add(malformed);
  registry.counter("net.reliable.ack_rejected.count").add(rejected);
  registry.counter("net.reliable.rtt_sample.count").add(samples);
  registry.gauge("net.reliable.reorder.high_water")
      .set(static_cast<double>(reorder_hwm_));
  // Mean over the channels that actually took samples (0 before any).
  registry.gauge("net.reliable.srtt.us")
      .set(sampled_chans == 0 ? 0.0 : srtt_sum / static_cast<double>(sampled_chans));
  registry.gauge("net.reliable.rto.us")
      .set(sampled_chans == 0 ? 0.0 : rto_sum / static_cast<double>(sampled_chans));
}

}  // namespace causim::net
