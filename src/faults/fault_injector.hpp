// FaultInjector — a Transport decorator that makes the wire unreliable on
// purpose (causim::faults).
//
// The injector sits between the reliability sublayer and the real
// transport. On every send it consults the FaultPlan and its own seeded
// Pcg32 (one RNG, drawn in a fixed order per packet, so the fault sequence
// is a pure function of (plan, seed) under the DES) to drop, duplicate, or
// extra-delay the packet before handing it to the inner transport. Pause
// windows are evaluated against the TimerDriver clock at send time for
// both endpoints of the packet.
//
// Accounting is deliberately transparent: packets_sent()/packets_delivered()
// delegate to the inner transport, so the injector's own loss never shows
// up in the conservation checks the layers above run — the reliability
// layer's app-level counters are the ones that must balance. What the
// injector did is reported separately through export_metrics() (faults.*)
// and kDrop trace events.
//
// The plan's per-channel lookup is resolved once, at construction, into an
// n × n table of ChannelFaults, so a send reads its channel's rates by
// index instead of searching the plan's override map.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "faults/fault_plan.hpp"
#include "net/timer.hpp"
#include "net/transport.hpp"
#include "sim/rng.hpp"

namespace causim::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace causim::obs

namespace causim::faults {

class FaultInjector final : public net::Transport {
 public:
  /// `timer` supplies both the clock for pause windows and the scheduling
  /// facility for injected extra delay; it must match the inner transport
  /// (SimTimerDriver over SimTransport, ThreadTimerDriver over
  /// ThreadTransport) or injected delays would run on the wrong clock.
  FaultInjector(net::Transport& inner, net::TimerDriver& timer, FaultPlan plan,
                std::uint64_t seed);

  void attach(SiteId site, net::PacketHandler* handler) override;
  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override;
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;
  /// Keeps the sink for kDrop events and forwards it to the inner transport.
  void set_trace_sink(obs::TraceSink* sink) override;

  const FaultPlan& plan() const { return plan_; }

  std::uint64_t drops() const;
  std::uint64_t dups() const;
  std::uint64_t delays() const;

  /// Folds the injector's counters into `registry` under faults.* —
  /// disjoint from both the protocol's msg.* and the reliability layer's
  /// net.reliable.* namespaces.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  void forward(SiteId from, SiteId to, serial::Bytes bytes, SimTime extra_delay);

  net::Transport& inner_;
  net::TimerDriver& timer_;
  const FaultPlan plan_;
  const SiteId n_;
  /// channel_faults_[from * n + to]: the channel's override in plan_, or
  /// its default_faults.
  std::vector<ChannelFaults> channel_faults_;

  mutable std::mutex mutex_;
  sim::Pcg32 rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t dups_ = 0;
  std::uint64_t delays_ = 0;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace causim::faults
