#include "net/sim_transport.hpp"

#include <algorithm>
#include <utility>

#include "common/panic.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace causim::net {

SimTransport::SimTransport(sim::Simulator& simulator, const sim::LatencyModel& latency,
                           SiteId n, std::uint64_t seed)
    : simulator_(simulator),
      latency_(latency),
      rng_(seed, /*stream=*/0x7261'6e73'706f'7274ULL),
      handlers_(n, nullptr),
      last_delivery_(static_cast<std::size_t>(n) * n, 0),
      channel_seq_(static_cast<std::size_t>(n) * n, 0) {}

void SimTransport::attach(SiteId site, PacketHandler* handler) {
  CAUSIM_CHECK(site < handlers_.size(), "attach: site " << site << " out of range");
  handlers_[site] = handler;
}

void SimTransport::send(SiteId from, SiteId to, serial::Bytes bytes) {
  CAUSIM_CHECK(to < handlers_.size() && handlers_[to] != nullptr,
               "send to unattached site " << to);
  const SimTime delay = latency_.sample_for(rng_, from, to, bytes.size());
  CAUSIM_CHECK(delay >= 0, "negative latency sampled");
  const std::size_t channel = static_cast<std::size_t>(from) * handlers_.size() + to;
  SimTime& last = last_delivery_[channel];
  const SimTime now = simulator_.now();
  const SimTime at = std::max(now + delay, last + 1);
  last = at;
  ++sent_;
  Packet p{from, to, channel_seq_[channel]++, std::move(bytes)};
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kWireDelay;
    e.site = from;
    e.peer = to;
    e.ts = now;
    e.dur = at - now;
    e.a = p.seq;
    e.b = p.bytes.size();
    trace_->emit(e);
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(p));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = std::move(p);
  }
  simulator_.schedule_at(at, [this, slot] { deliver(slot); });
}

void SimTransport::deliver(std::uint32_t slot) {
  Packet p = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  ++delivered_;
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kDeliver;
    e.site = p.to;
    e.peer = p.from;
    e.ts = simulator_.now();
    e.a = p.seq;
    e.b = p.bytes.size();
    trace_->emit(e);
  }
  handlers_[p.to]->on_packet(std::move(p));
}

}  // namespace causim::net
