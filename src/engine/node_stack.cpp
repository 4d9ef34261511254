#include "engine/node_stack.hpp"

#include <utility>

#include "causal/factory.hpp"
#include "common/panic.hpp"
#include "obs/live/live_telemetry.hpp"

namespace causim::engine {

NodeStack::NodeStack(const EngineConfig& config, Wiring wiring)
    : config_(config),
      placement_(config.sites, config.variables, config.effective_replication(),
                 config.seed, config.placement_strategy, config.fetch_policy),
      wire_(wiring.wire) {
  validate_or_panic(config_);
  CAUSIM_CHECK(wire_ != nullptr, "NodeStack needs a wire transport");
  CAUSIM_CHECK(wire_->size() == config_.sites,
               "wire transport sized for " << wire_->size() << " sites, config has "
                                           << config_.sites);
  if (!config_.fetch_distances.empty()) {
    placement_.set_distances(config_.fetch_distances);
  }

  // Fault stack, bottom-up: wire -> injector -> reliability layer. Any
  // active fault implies the reliability layer (the protocols assume the
  // reliable FIFO channels of §II-B); with neither configured the sites
  // talk to the wire directly and nothing below observes a difference.
  // A topology's per-scope faults compile into per-channel overrides of
  // the base plan once, here, so the injector and the "is anything faulty"
  // decision see the same effective plan.
  edge_ = wire_;
  const faults::FaultPlan effective_plan =
      config_.topology.compile_fault_plan(config_.fault_plan, config_.sites);
  const bool faulty = effective_plan.any();
  if (faulty || config_.reliable_channel ||
      config_.topology.any_reliable_override()) {
    CAUSIM_CHECK(wiring.make_timer != nullptr,
                 "this config needs a timer-driven layer but the wiring has no "
                 "timer factory");
    timer_ = wiring.make_timer();
    if (faulty) {
      injector_ = std::make_unique<faults::FaultInjector>(
          *edge_, *timer_, effective_plan, config_.seed);
      edge_ = injector_.get();
    }
    if (config_.topology.any_reliable_override()) {
      // Per-channel ARQ: each directed channel inherits its scope profile's
      // override, falling back to the global config — so a WAN scope can
      // run a different retransmission policy than the LAN links.
      const topo::Topology& topology = config_.topology;
      const net::ReliableConfig base = config_.reliable_config;
      reliable_ = std::make_unique<net::ReliableTransport>(
          *edge_, *timer_, [&topology, &base](SiteId from, SiteId to) {
            if (from == to) return base;
            return topology.profile(from, to).reliable.value_or(base);
          });
    } else {
      reliable_ = std::make_unique<net::ReliableTransport>(
          *edge_, *timer_, config_.reliable_config);
    }
    reliable_->set_buffer_pool(&pool_);
    edge_ = reliable_.get();
  }
  // The coalescing layer sits *above* the reliability layer: one reliable
  // DATA frame then carries a whole batch, amortizing the ACK and
  // retransmission machinery — batching below it would coalesce ACKs
  // instead of protocol messages.
  if (config_.batch.enabled) {
    CAUSIM_CHECK(wiring.make_timer != nullptr,
                 "batching needs a flush timer but the wiring has no timer "
                 "factory");
    if (timer_ == nullptr) timer_ = wiring.make_timer();
    batching_ =
        std::make_unique<net::BatchingTransport>(*edge_, *timer_, config_.batch);
    batching_->set_buffer_pool(&pool_);
    edge_ = batching_.get();
  }
  // The cross-DC gateway layer tops the tower for any multi-cell topology:
  // above batching, so an intra-cell enroute hop is itself coalesced, and
  // above reliability, so mailbox frames ride the reliable WAN channels.
  // With gateway.enabled off it is a counting pass-through (the LAN/WAN
  // scope split of msg.{lan,wan}.* still wants the layer).
  if (config_.topology.multi_cell()) {
    CAUSIM_CHECK(wiring.make_timer != nullptr,
                 "the gateway layer needs a flush timer but the wiring has no "
                 "timer factory");
    if (timer_ == nullptr) timer_ = wiring.make_timer();
    gateway_ = std::make_unique<net::GatewayMailbox>(
        *edge_, *timer_, config_.gateway,
        config_.topology.routing(config_.sites));
    gateway_->set_buffer_pool(&pool_);
    edge_ = gateway_.get();
  }
  // Live telemetry interposes in front of the user's sink: site/transport
  // events flow through the online tracker and are forwarded unchanged.
  // The tracker reads only event timestamps, so every layer must stamp
  // them on the stack clock.
  obs::TraceSink* sink = config_.trace_sink;
  if (config_.live != nullptr) {
    CAUSIM_CHECK(wiring.now_fn != nullptr,
                 "a live tracker needs the stack clock but the wiring has no now_fn");
    config_.live->set_downstream(config_.trace_sink);
    sink = config_.live;
  }
  edge_->set_trace_sink(sink);

  runtimes_.reserve(config_.sites);
  for (SiteId i = 0; i < config_.sites; ++i) {
    auto protocol = causal::make_protocol(config_.protocol, i, config_.sites,
                                          config_.protocol_options);
    runtimes_.push_back(std::make_unique<dsm::SiteRuntime>(
        i, placement_, *edge_, std::move(protocol),
        config_.record_history ? &history_ : nullptr,
        config_.protocol_options.clock_width, wiring.now_fn, config_.causal_fetch));
    runtimes_.back()->set_trace_sink(sink);
    runtimes_.back()->set_buffer_pool(&pool_);
    edge_->attach(i, runtimes_.back().get());
  }
}

void NodeStack::live_sample(SimTime now) {
  obs::live::LiveTelemetry* live = config_.live;
  if (live == nullptr) return;
  obs::live::StackGauges gauges;
  const std::uint64_t ordinal = live->samples_recorded();
  for (auto& r : runtimes_) {
    const dsm::SiteRuntime::LiveSample s = r->live_sample(ordinal, now);
    gauges.buffered_sm += s.pending_updates;
    gauges.log_entries += s.log_entries;
    gauges.log_bytes += s.log_bytes;
  }
  const std::uint64_t sent = wire_->packets_sent();
  const std::uint64_t delivered = wire_->packets_delivered();
  gauges.wire_inflight = sent >= delivered ? sent - delivered : 0;
  if (reliable_ != nullptr) {
    gauges.reliable_frames = reliable_->frames_sent();
    gauges.retransmits = reliable_->retransmits();
  }
  live->record_sample(now, gauges);
}

void NodeStack::verify_quiescent() const {
  CAUSIM_CHECK(wire_->packets_sent() == wire_->packets_delivered(),
               "network did not drain");
  if (reliable_ != nullptr) {
    // The app-level view must also balance: every packet a site sent was
    // handed to its peer exactly once despite drops/dups below.
    CAUSIM_CHECK(reliable_->quiescent(),
                 "reliability layer did not drain: "
                     << reliable_->packets_sent() << " sent, "
                     << reliable_->packets_delivered() << " delivered");
  }
  if (batching_ != nullptr) {
    // Message-level conservation above the coalescing boundary: nothing
    // still buffered in a pending frame, every batched message unpacked
    // and handed up exactly once.
    CAUSIM_CHECK(batching_->quiescent(),
                 "batching layer did not drain: "
                     << batching_->buffered_messages() << " buffered, "
                     << batching_->packets_sent() << " sent, "
                     << batching_->packets_delivered() << " delivered");
    CAUSIM_CHECK(batching_->malformed() == 0,
                 "batching layer dropped " << batching_->malformed()
                                           << " malformed frames");
  }
  if (gateway_ != nullptr) {
    // Message-level conservation above the mailbox boundary: no mailbox
    // still holds messages, every accepted message fanned out exactly once.
    CAUSIM_CHECK(gateway_->quiescent(),
                 "gateway layer did not drain: "
                     << gateway_->buffered_messages() << " buffered, "
                     << gateway_->packets_sent() << " sent, "
                     << gateway_->packets_delivered() << " delivered");
    CAUSIM_CHECK(gateway_->malformed() == 0,
                 "gateway layer dropped " << gateway_->malformed()
                                          << " malformed frames");
  }
  for (SiteId s = 0; s < config_.sites; ++s) {
    CAUSIM_CHECK(runtimes_[s]->pending_updates() == 0,
                 "site " << s << " finished with unapplied updates");
    CAUSIM_CHECK(!runtimes_[s]->fetch_pending(),
                 "site " << s << " finished with an unanswered fetch");
    CAUSIM_CHECK(runtimes_[s]->pending_remote_fetches() == 0,
                 "site " << s << " finished holding fetch requests");
  }
}

stats::MessageStats NodeStack::aggregate_message_stats() const {
  stats::MessageStats total;
  for (const auto& r : runtimes_) total += r->message_stats();
  return total;
}

stats::Summary NodeStack::aggregate_log_entries() const {
  stats::Summary total;
  for (const auto& r : runtimes_) total += r->log_entries();
  return total;
}

stats::Summary NodeStack::aggregate_fetch_latency() const {
  stats::Summary total;
  for (const auto& r : runtimes_) total += r->fetch_latency();
  return total;
}

stats::Summary NodeStack::aggregate_apply_delay() const {
  stats::Summary total;
  for (const auto& r : runtimes_) total += r->apply_delay();
  return total;
}

std::uint64_t NodeStack::total_applies() const {
  std::uint64_t total = 0;
  for (const auto& r : runtimes_) total += r->total_applies();
  return total;
}

void NodeStack::export_metrics(obs::MetricsRegistry& registry) const {
  for (const auto& r : runtimes_) r->export_metrics(registry);
  if (reliable_ != nullptr) reliable_->export_metrics(registry);
  if (batching_ != nullptr) batching_->export_metrics(registry);
  if (gateway_ != nullptr) gateway_->export_metrics(registry);
  if (injector_ != nullptr) injector_->export_metrics(registry);
}

checker::CheckResult NodeStack::check(checker::CheckOptions options) const {
  return checker::check_causal_consistency(
      history_.events(), config_.sites,
      [this](VarId var) { return placement_.replicas(var); }, options);
}

}  // namespace causim::engine
