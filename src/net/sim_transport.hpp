// SimTransport — discrete-event implementation of the Transport interface.
//
// Each send samples a one-way delay from the latency model; FIFO order per
// channel is enforced by never scheduling a delivery earlier than the
// previous delivery on the same (from, to) channel (TCP gives exactly this
// guarantee: arbitrary delay, order preserved).
//
// A packet in flight waits in a recycled slab, and its delivery event
// captures only (this, slot), which std::function stores inline: once the
// slab and the simulator's queue are warm, a send and its delivery
// allocate nothing (the bytes themselves come from the caller's pool).
#pragma once

#include <cstdint>
#include <vector>

#include "net/transport.hpp"
#include "sim/latency.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace causim::net {

class SimTransport final : public Transport {
 public:
  /// The latency model must outlive the transport.
  SimTransport(sim::Simulator& simulator, const sim::LatencyModel& latency,
               SiteId n, std::uint64_t seed);

  void attach(SiteId site, PacketHandler* handler) override;
  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return static_cast<SiteId>(handlers_.size()); }
  std::uint64_t packets_sent() const override { return sent_; }
  std::uint64_t packets_delivered() const override { return delivered_; }
  void set_trace_sink(obs::TraceSink* sink) override { trace_ = sink; }

 private:
  void deliver(std::uint32_t slot);

  sim::Simulator& simulator_;
  const sim::LatencyModel& latency_;
  sim::Pcg32 rng_;
  std::vector<PacketHandler*> handlers_;
  // last_delivery_[from * n + to]: latest delivery time scheduled on the channel.
  std::vector<SimTime> last_delivery_;
  // channel_seq_[from * n + to]: next FIFO sequence number on the channel.
  std::vector<std::uint64_t> channel_seq_;
  // Packets in flight, indexed by the slot their delivery event carries.
  std::vector<Packet> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace causim::net
