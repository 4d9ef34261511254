#include "net/gateway_mailbox.hpp"

#include <utility>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"

namespace causim::net {

namespace {

/// The mailbox headers in slot order: slot oc * cells + dc carries the u16
/// origin cell and the u16 destination cell.
std::vector<serial::Bytes> mailbox_headers(std::size_t cells) {
  std::vector<serial::Bytes> headers;
  headers.reserve(cells * cells);
  for (std::size_t oc = 0; oc < cells; ++oc) {
    for (std::size_t dc = 0; dc < cells; ++dc) {
      headers.push_back({static_cast<std::uint8_t>(oc),
                         static_cast<std::uint8_t>(oc >> 8),
                         static_cast<std::uint8_t>(dc),
                         static_cast<std::uint8_t>(dc >> 8)});
    }
  }
  return headers;
}

/// Enroute wrap header: the tag and the u16 final destination.
constexpr std::size_t kEnrouteHeaderBytes = 3;

std::uint16_t u16_at(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

GatewayMailbox::GatewayMailbox(Transport& inner, TimerDriver& timer,
                               const CoalesceConfig& config,
                               CellRouting routing)
    : inner_(inner),
      timer_(timer),
      coalescing_(config.enabled),
      routing_(std::move(routing)),
      mailboxes_(timer, config, kFraming, mailbox_headers(routing_.cells()),
                 [this](std::size_t slot, Frame&& frame) {
                   ship(slot, std::move(frame));
                 }) {
  CAUSIM_CHECK(routing_.cells() >= 2,
               "GatewayMailbox over " << routing_.cells()
                                      << " cell(s) — skip the layer instead");
  CAUSIM_CHECK(routing_.cell_of.size() == inner_.size(),
               "CellRouting covers " << routing_.cell_of.size()
                                     << " sites but the transport has "
                                     << inner_.size());
  handlers_.resize(inner_.size(), nullptr);
  for (SiteId i = 0; i < inner_.size(); ++i) inner_.attach(i, this);
}

void GatewayMailbox::attach(SiteId site, PacketHandler* handler) {
  handlers_[site] = handler;
}

void GatewayMailbox::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  inner_.set_trace_sink(sink);
}

void GatewayMailbox::set_buffer_pool(serial::BufferPool* pool) {
  pool_ = pool;
  mailboxes_.set_buffer_pool(pool);
}

void GatewayMailbox::send(SiteId from, SiteId to, serial::Bytes bytes) {
  const bool wan = !routing_.same_cell(from, to);
  const std::size_t oc = routing_.cell_of[from];
  const SiteId gw = routing_.gateways[oc];
  {
    std::lock_guard lock(stats_mutex_);
    ++sent_;
    if (wan) {
      ++wan_messages_;
      wan_bytes_ += bytes.size();
      // Without coalescing a cross-cell send still counts as one WAN frame
      // at this layer, so the ext_geo A/B compares apples.
      if (!coalescing_) ++wan_passthrough_;
      if (coalescing_ && from != gw) ++enroute_;
    } else {
      ++lan_messages_;
      lan_bytes_ += bytes.size();
    }
  }
  if (!wan || !coalescing_) {
    inner_.send(from, to, std::move(bytes));
    return;
  }
  if (from == gw) {
    // The gateway's own cross-cell traffic joins the mailbox directly.
    mailbox_append(oc, routing_.cell_of[to], from, to, std::move(bytes));
    return;
  }
  serial::Bytes wrap = pool_ != nullptr ? pool_->acquire() : serial::Bytes{};
  wrap.reserve(kEnrouteHeaderBytes + bytes.size());
  wrap.push_back(kEnrouteTag);
  wrap.push_back(static_cast<std::uint8_t>(to));
  wrap.push_back(static_cast<std::uint8_t>(to >> 8));
  wrap.insert(wrap.end(), bytes.begin(), bytes.end());
  if (pool_ != nullptr) pool_->release(std::move(bytes));
  inner_.send(from, gw, std::move(wrap));
}

void GatewayMailbox::mailbox_append(std::size_t oc, std::size_t dc,
                                    SiteId from, SiteId to,
                                    serial::Bytes&& payload) {
  const std::uint8_t route[4] = {
      static_cast<std::uint8_t>(from), static_cast<std::uint8_t>(from >> 8),
      static_cast<std::uint8_t>(to), static_cast<std::uint8_t>(to >> 8)};
  mailboxes_.append(oc * routing_.cells() + dc, std::move(payload), route);
}

void GatewayMailbox::ship(std::size_t slot, Frame&& frame) {
  const std::size_t oc = slot / routing_.cells();
  const std::size_t dc = slot % routing_.cells();
  const SiteId gw_from = routing_.gateways[oc];
  const SiteId gw_to = routing_.gateways[dc];
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kGatewayForward;
    e.site = gw_from;
    e.peer = gw_to;
    e.ts = timer_.now();
    e.a = frame.messages;
    e.b = frame.bytes.size();
    e.c = oc;
    e.d = dc;
    trace_->emit(e);
  }
  inner_.send(gw_from, gw_to, std::move(frame.bytes));
}

void GatewayMailbox::on_packet(Packet packet) {
  // The layer's three frame shapes are disjoint in their first byte:
  // Envelope kinds are 0–2, the enroute tag is 0xB6, the mailbox tag 0xB5
  // (and the lower layers' 0xB4/0xD1/0xA2/0xA3 never surface here). An
  // empty or unrecognized-tag packet is plain app traffic and passes
  // through — only a *claimed* gateway frame that fails validation counts
  // as malformed.
  if (!packet.bytes.empty() && packet.bytes[0] == kEnrouteTag) {
    on_enroute(std::move(packet));
    return;
  }
  if (!packet.bytes.empty() && packet.bytes[0] == kFraming.tag) {
    on_mailbox(std::move(packet));
    return;
  }
  PacketHandler* handler = handlers_[packet.to];
  CAUSIM_CHECK(handler != nullptr,
               "gateway delivery for site " << packet.to << " with no handler");
  handler->on_packet(std::move(packet));
  std::lock_guard lock(stats_mutex_);
  ++delivered_;
}

void GatewayMailbox::on_enroute(Packet&& packet) {
  // Only a non-gateway site of this gateway's own cell may use it as its
  // enroute hop, and only towards another cell. A sender from another cell
  // would put a foreign origin into this cell's mailbox, and the peer
  // gateway would then reject the whole mailbox frame — every valid entry
  // with it.
  const SiteId gw = packet.to;
  const serial::Bytes& bytes = packet.bytes;
  const SiteId final_to =
      bytes.size() >= kEnrouteHeaderBytes ? u16_at(&bytes[1]) : kInvalidSite;
  if (final_to >= inner_.size() ||
      routing_.gateways[routing_.cell_of[gw]] != gw || packet.from == gw ||
      !routing_.same_cell(packet.from, gw) ||
      routing_.same_cell(gw, final_to)) {
    count_malformed();
    return;
  }
  serial::Bytes payload = copy(bytes.data() + kEnrouteHeaderBytes,
                               bytes.size() - kEnrouteHeaderBytes);
  const SiteId origin = packet.from;
  if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
  mailbox_append(routing_.cell_of[gw], routing_.cell_of[final_to], origin,
                 final_to, std::move(payload));
}

void GatewayMailbox::on_mailbox(Packet&& packet) {
  // The header's routing is checked before any decode: the frame must come
  // from its origin cell's gateway and land at its destination cell's
  // gateway. The decode then checks that every entry's endpoints lie in
  // that cell pair before anything is delivered, so a corrupted entry
  // mid-frame can never fan out a partial mailbox.
  const serial::Bytes& bytes = packet.bytes;
  const std::size_t cells = routing_.cells();
  if (bytes.size() < 1 + kFraming.header_bytes) {
    count_malformed();
    return;
  }
  const std::uint16_t oc = u16_at(&bytes[1]);
  const std::uint16_t dc = u16_at(&bytes[3]);
  if (oc >= cells || dc >= cells || routing_.gateways[oc] != packet.from ||
      routing_.gateways[dc] != packet.to) {
    count_malformed();
    return;
  }
  const auto routable = [this, oc, dc](const std::uint8_t* entry,
                                       std::size_t len) {
    if (len < 4) return false;
    const SiteId from = u16_at(entry);
    const SiteId to = u16_at(entry + 2);
    return from < routing_.cell_of.size() && to < routing_.cell_of.size() &&
           routing_.cell_of[from] == oc && routing_.cell_of[to] == dc;
  };
  std::uint32_t unpacked = 0;
  const bool ok = decode_frame(
      bytes, kFraming, routable,
      [&](const std::uint8_t* entry, std::size_t len) {
        const SiteId to = u16_at(entry + 2);
        PacketHandler* handler = handlers_[to];
        CAUSIM_CHECK(handler != nullptr,
                     "gateway fan-out for site " << to << " with no handler");
        // Entries keep the mailbox frame's channel seq: they share its slot
        // in the gateway-pair FIFO, and append order preserves per-origin
        // send order.
        handler->on_packet(
            Packet{u16_at(entry), to, packet.seq, copy(entry + 4, len - 4)});
        ++unpacked;
      });
  if (!ok) {
    count_malformed();
    return;
  }
  if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
  std::lock_guard lock(stats_mutex_);
  delivered_ += unpacked;
}

void GatewayMailbox::count_malformed() {
  std::lock_guard lock(stats_mutex_);
  ++malformed_;
}

serial::Bytes GatewayMailbox::copy(const std::uint8_t* data, std::size_t len) {
  return pool_ != nullptr ? pool_->copy(data, len)
                          : serial::Bytes(data, data + len);
}

std::uint64_t GatewayMailbox::packets_sent() const {
  std::lock_guard lock(stats_mutex_);
  return sent_;
}

std::uint64_t GatewayMailbox::packets_delivered() const {
  std::lock_guard lock(stats_mutex_);
  return delivered_;
}

bool GatewayMailbox::quiescent() const {
  if (buffered_messages() != 0) return false;
  std::lock_guard lock(stats_mutex_);
  return sent_ == delivered_;
}

std::uint64_t GatewayMailbox::lan_messages() const {
  std::lock_guard lock(stats_mutex_);
  return lan_messages_;
}

std::uint64_t GatewayMailbox::wan_messages() const {
  std::lock_guard lock(stats_mutex_);
  return wan_messages_;
}

std::uint64_t GatewayMailbox::lan_bytes() const {
  std::lock_guard lock(stats_mutex_);
  return lan_bytes_;
}

std::uint64_t GatewayMailbox::wan_bytes() const {
  std::lock_guard lock(stats_mutex_);
  return wan_bytes_;
}

std::uint64_t GatewayMailbox::wan_frames() const {
  const std::uint64_t total = mailbox_frames();
  std::lock_guard lock(stats_mutex_);
  return total + wan_passthrough_;
}

std::uint64_t GatewayMailbox::enroute_messages() const {
  std::lock_guard lock(stats_mutex_);
  return enroute_;
}

std::uint64_t GatewayMailbox::malformed() const {
  std::lock_guard lock(stats_mutex_);
  return malformed_;
}

void GatewayMailbox::export_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("msg.lan.count").add(lan_messages());
  registry.counter("msg.lan.bytes").add(lan_bytes());
  registry.counter("msg.wan.count").add(wan_messages());
  registry.counter("msg.wan.bytes").add(wan_bytes());
  mailboxes_.export_metrics(registry, "net.gateway");
  registry.counter("net.gateway.wan_frames.count").add(wan_frames());
  registry.counter("net.gateway.frame_messages.count").add(mailbox_messages());
  registry.counter("net.gateway.enroute.count").add(enroute_messages());
  registry.counter("net.gateway.malformed.count").add(malformed());
}

}  // namespace causim::net
