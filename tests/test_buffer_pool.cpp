// serial::BufferPool unit tests plus the allocation bound the pooled
// encode path promises: once warm, encoding an Envelope into a pooled
// frame and recycling it performs zero heap allocations per message.
//
// The bound is measured with replacement global operator new/delete that
// count while a flag is up — no malloc hooks, no sampling, an exact count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <new>

#include "causal/opt_track.hpp"
#include "dsm/cluster.hpp"
#include "dsm/envelope.hpp"
#include "net/batching_transport.hpp"
#include "net/reliable_channel.hpp"
#include "net/sim_transport.hpp"
#include "net/timer.hpp"
#include "serial/buffer_pool.hpp"
#include "serial/writer.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"
#include "workload/schedule.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Only the unsized form frees, out of line, and the other forms forward to
// it: an inlined free() right after an inlined new-expression is what
// GCC 12's -Wmismatched-new-delete flags.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace causim::serial {
namespace {

TEST(BufferPool, AcquireStartsEmptyAndCountsMisses) {
  BufferPool pool;
  const Bytes b = pool.acquire();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
}

TEST(BufferPool, ReleaseRecyclesCapacity) {
  BufferPool pool;
  Bytes b = pool.acquire();
  b.resize(256);
  const std::uint8_t* data = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);

  const Bytes again = pool.acquire();
  EXPECT_TRUE(again.empty());  // contents are discarded...
  EXPECT_GE(again.capacity(), 256u);  // ...the capacity is what recycles
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, ZeroCapacityReleaseIsSkipped) {
  BufferPool pool;
  pool.release(Bytes{});
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BufferPool, CopyProducesPooledDuplicate) {
  BufferPool pool;
  Bytes warm(64, 0xAB);
  pool.release(std::move(warm));

  const std::uint8_t src[] = {1, 2, 3, 4};
  const Bytes out = pool.copy(src, sizeof(src));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[3], 4u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, PooledEncodePathIsAllocationFreeOnceWarm) {
  BufferPool pool;

  dsm::Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = 3;
  env.var = 17;
  env.value.id = 42;
  env.value.payload_bytes = 64;
  env.write.writer = 3;
  env.write.clock = 9;
  env.meta.assign(96, 0x5C);  // a realistic piggyback block

  const auto encode_once = [&] {
    ByteWriter w(ClockWidth::k8Bytes, pool.acquire());
    env.encode_into(w);
    pool.release(w.take());
  };

  // Warm-up: the first round grows the pooled buffer to frame size.
  for (int i = 0; i < 8; ++i) encode_once();

  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) encode_once();
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state pooled encode must not touch the heap";
}

TEST(BufferPool, ReliableStackSteadyStateDrawsNothingNewFromThePool) {
  // Regression for the send-path leak: ReliableTransport::send used to
  // copy the app payload into the DATA frame and then destroy the caller's
  // pooled buffer without releasing it, draining the pool by one buffer
  // per message — so steady state kept missing (and allocating) forever.
  // With the recycle in place, a warmed-up stack serves every buffer of
  // the reliable path (payload, DATA frame, retransmission copy, reorder
  // slot, ACK) from the free list: the miss counter goes flat.
  sim::Simulator simulator;
  sim::UniformLatency latency(1000, 5000);
  net::SimTransport wire(simulator, latency, 2, 1);
  net::SimTimerDriver timer(simulator);
  net::ReliableTransport reliable(wire, timer);
  BufferPool pool;
  reliable.set_buffer_pool(&pool);

  // The app layer above the stack recycles what it is handed, exactly like
  // SiteRuntime's receive path.
  struct Recycler final : net::PacketHandler {
    BufferPool* pool = nullptr;
    std::uint64_t delivered = 0;
    void on_packet(net::Packet packet) override {
      ++delivered;
      pool->release(std::move(packet.bytes));
    }
  };
  Recycler sink0, sink1;
  sink0.pool = sink1.pool = &pool;
  reliable.attach(0, &sink0);
  reliable.attach(1, &sink1);

  const auto round = [&] {
    for (int i = 0; i < 50; ++i) {
      Bytes payload = pool.acquire();
      payload.assign(64, static_cast<std::uint8_t>(i));
      reliable.send(0, 1, std::move(payload));
    }
    simulator.run();
  };

  round();  // warm-up: the pool grows to the stack's peak working set
  round();
  const std::uint64_t warm_misses = pool.misses();
  EXPECT_GT(warm_misses, 0u);  // the warm-up really did populate the pool
  for (int i = 0; i < 3; ++i) round();
  EXPECT_EQ(pool.misses(), warm_misses)
      << "steady-state reliable path drew new buffers from the heap: the "
         "send-side recycle regressed";
  EXPECT_EQ(sink1.delivered, 250u);
  EXPECT_EQ(reliable.retransmits(), 0u);  // clean wire: pure steady state
}

TEST(BufferPool, CoalescingRoundTripIsAllocationFreeOnceWarm) {
  // The batching edge promises the same per-message bound the plain
  // encode path holds: once the pool is warm, appending a pooled frame,
  // flushing the batch, decoding it and copying every sub-message back
  // out of the pool touches the heap zero times.
  BufferPool pool;
  net::Coalescer coalescer(net::BatchingTransport::kFraming, {},
                           /*max_messages=*/8);
  coalescer.set_buffer_pool(&pool);

  dsm::Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = 3;
  env.var = 17;
  env.value.id = 42;
  env.value.payload_bytes = 64;
  env.write.writer = 3;
  env.write.clock = 9;
  env.meta.assign(96, 0x5C);

  const auto round = [&] {
    std::optional<net::Frame> frame;
    for (int i = 0; i < 8; ++i) {
      ByteWriter w(ClockWidth::k8Bytes, pool.acquire());
      env.encode_into(w);
      auto flushed = coalescer.append(w.take());
      if (flushed.has_value()) frame = std::move(flushed);
    }
    EXPECT_TRUE(frame.has_value());  // the 8th append trips max_messages
    if (!frame.has_value()) return;
    // Receive side: every sub-message is a pooled copy, recycled like
    // SiteRuntime recycles what it is handed; the frame itself recycles
    // too.
    net::decode_frame(
        frame->bytes, net::BatchingTransport::kFraming,
        [](const std::uint8_t*, std::size_t) { return true; },
        [&pool](const std::uint8_t* data, std::size_t len) {
          pool.release(pool.copy(data, len));
        });
    pool.release(std::move(frame->bytes));
  };

  for (int i = 0; i < 8; ++i) round();  // warm-up

  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 500; ++i) round();
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state coalescing must not touch the heap";
}

TEST(BufferPool, BatchedReliableStackMissesStayFlatAcrossLongRun) {
  // The full tower the coalescing lane ships: batching above the reliable
  // layer over a simulated wire, everything sharing one pool. After
  // warm-up the pool serves the whole working set — batch frames, DATA
  // frames, ACKs, sub-message copies — so the miss counter goes flat no
  // matter how many more rounds run.
  sim::Simulator simulator;
  sim::UniformLatency latency(1000, 5000);
  net::SimTransport wire(simulator, latency, 2, 1);
  net::SimTimerDriver timer(simulator);
  net::ReliableTransport reliable(wire, timer);
  net::CoalesceConfig config;
  config.enabled = true;
  config.max_messages = 10;
  config.max_delay = kMillisecond;
  net::BatchingTransport batching(reliable, timer, config);
  BufferPool pool;
  reliable.set_buffer_pool(&pool);
  batching.set_buffer_pool(&pool);

  struct Recycler final : net::PacketHandler {
    BufferPool* pool = nullptr;
    std::uint64_t delivered = 0;
    void on_packet(net::Packet packet) override {
      ++delivered;
      pool->release(std::move(packet.bytes));
    }
  };
  Recycler sink0, sink1;
  sink0.pool = sink1.pool = &pool;
  batching.attach(0, &sink0);
  batching.attach(1, &sink1);

  const auto round = [&] {
    for (int i = 0; i < 50; ++i) {
      Bytes payload = pool.acquire();
      payload.assign(64, static_cast<std::uint8_t>(i));
      batching.send(0, 1, std::move(payload));
    }
    simulator.run();  // drains threshold flushes AND the 1 ms flush timer
  };

  round();  // warm-up
  round();
  const std::uint64_t warm_misses = pool.misses();
  EXPECT_GT(warm_misses, 0u);
  for (int i = 0; i < 4; ++i) round();
  EXPECT_EQ(pool.misses(), warm_misses)
      << "steady-state coalescing path drew new buffers from the heap";
  EXPECT_EQ(sink1.delivered, 300u);
  EXPECT_TRUE(batching.quiescent());
  EXPECT_EQ(batching.malformed(), 0u);
  EXPECT_GT(batching.frames_sent(), 0u);
  // 50 messages per round at a 10-message threshold: real coalescing.
  EXPECT_LT(batching.frames_sent(), batching.messages_batched());
}

TEST(SmReceipt, OptTrackSteadyStateAllocatesAtMostTwoBlocks) {
  // One SM receipt at the paper's point (shrunk to n = 10): the piggyback
  // is scanned in place in the frame and its bytes are copied into a
  // recycled buffer, the one that held the LastWriteOn bytes the previous
  // apply replaced; the pending update is the one new block. The receiver has applied every write the
  // piggyback names, so each SM is applied on arrival.
  dsm::ClusterConfig config;
  config.sites = 10;
  config.replication = 3;
  config.record_history = false;
  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 60;
  dsm::Cluster cluster(config);
  cluster.execute(workload::generate_schedule(config.sites, wl));

  constexpr SiteId kSender = 0;
  VarId var = 0;
  while (cluster.placement().replicas(var).count() < 2) ++var;
  SiteId receiver = 0;
  while (receiver == kSender || !cluster.placement().replicated_at(var, receiver)) ++receiver;
  const auto& sender =
      dynamic_cast<const causal::OptTrack&>(cluster.site(kSender).protocol());
  ByteWriter meta;
  sender.log().serialize(meta);
  ASSERT_GT(sender.log().size(), 10u);
  BufferPool& pool = cluster.stack().buffer_pool();

  WriteClock clock = 1u << 20;
  const auto receive = [&] {
    dsm::Envelope env;
    env.kind = MessageKind::kSM;
    env.sender = kSender;
    env.var = var;
    env.write = WriteId{kSender, ++clock};
    env.meta = meta.bytes();
    net::Packet packet{kSender, receiver, 0, env.encode(ClockWidth::k4Bytes)};
    g_allocations.store(0);
    g_counting.store(true);
    cluster.site(receiver).on_packet(std::move(packet));
    g_counting.store(false);
    // Take the recycled frame back out, so the pool's free list does not
    // grow across the loop.
    (void)pool.acquire();
    return g_allocations.load();
  };

  for (int i = 0; i < 16; ++i) receive();  // warm-up
  std::uint64_t total = 0;
  std::uint64_t most = 0;
  constexpr int kReceipts = 200;
  for (int i = 0; i < kReceipts; ++i) {
    const std::uint64_t n = receive();
    total += n;
    most = std::max(most, n);
  }
  EXPECT_EQ(cluster.site(receiver).pending_updates(), 0u);
  // At most one more now and then: the pending queue's deque may take a
  // fresh chunk.
  EXPECT_LE(total, 2u * kReceipts);
  EXPECT_LE(most, 2u);
}

TEST(DesCore, WarmSimTransportDeliveryOfAPooledPacketAllocatesNothing) {
  // A packet waits in the transport's slab and its delivery event captures
  // (transport, slot), which std::function holds inline; the queue entry
  // is a POD in a vector. Once the slab, the queue and the pool are warm,
  // a send and its delivery touch the heap zero times.
  sim::Simulator simulator;
  sim::UniformLatency latency(1000, 5000);
  net::SimTransport wire(simulator, latency, 2, 1);
  BufferPool pool;
  struct Recycler final : net::PacketHandler {
    BufferPool* pool = nullptr;
    std::uint64_t delivered = 0;
    void on_packet(net::Packet packet) override {
      ++delivered;
      pool->release(std::move(packet.bytes));
    }
  };
  Recycler sink;
  sink.pool = &pool;
  wire.attach(0, &sink);
  wire.attach(1, &sink);

  const auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      Bytes bytes = pool.acquire();
      bytes.assign(96, static_cast<std::uint8_t>(i));
      wire.send(static_cast<SiteId>(i % 2), static_cast<SiteId>(1 - i % 2), std::move(bytes));
    }
    while (simulator.step()) {
    }
  };
  round();  // warm-up: slab, queue and pool grow to the round's peak
  round();

  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 100; ++i) round();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u) << "a warm DES delivery allocated";
  EXPECT_EQ(sink.delivered, 102u * 64u);
}

TEST(DesCore, ReliableChannelInOrderRoundTripAllocatesOnlyWindowChunks) {
  // Send, in-order receipt and cumulative ACK with a warm pool: frames and
  // payload copies come from the pool, the in-order frame skips the
  // reorder map, and the released vector is recycled. What is left is the
  // unacked window's deque taking a fresh chunk every few frames.
  BufferPool pool;
  net::ReliableConfig config;
  config.arq = net::ArqMode::kSelectiveRepeat;
  config.adaptive_rto = true;
  net::ReliableChannel sender(config);
  net::ReliableChannel receiver(config);
  sender.set_buffer_pool(&pool);
  receiver.set_buffer_pool(&pool);
  const Bytes payload(96, 0x5C);
  SimTime now = 0;
  const auto round_trip = [&] {
    Bytes frame = sender.send(payload, now);
    net::ReliableChannel::Ingest data = receiver.on_frame(frame, now + 1);
    pool.release(std::move(frame));
    EXPECT_EQ(data.released.size(), 1u);
    for (net::ReliableChannel::Released& r : data.released) pool.release(std::move(r.payload));
    receiver.recycle(std::move(data.released));
    EXPECT_TRUE(sender.on_frame(data.ack, now + 2).made_progress);
    pool.release(std::move(data.ack));
    now += 3;
  };
  for (int i = 0; i < 64; ++i) round_trip();  // warm-up

  g_allocations.store(0);
  g_counting.store(true);
  constexpr int kFrames = 1000;
  for (int i = 0; i < kFrames; ++i) round_trip();
  g_counting.store(false);
  std::cout << "reliable channel: " << g_allocations.load() << " blocks per " << kFrames
            << " in-order frames\n";
  EXPECT_LE(g_allocations.load(), kFrames / 8u);
}

TEST(DesCore, GeoStackBlocksPerOpStayBounded) {
  // The geo lane's shape at 8 sites: Opt-Track-CRP over two cells, a
  // lossy WAN under selective-repeat ARQ with adaptive RTO, batching and
  // the gateway. Heap blocks are counted over the whole run of two
  // schedules that differ only in length; the difference per extra op is
  // the steady-state cost, free of set-up and warm-up. Nearly all of it is
  // two blocks per SM receipt (the pending update and its decoded
  // piggyback): 0.8 writes per op, each received at 7 sites.
  const auto blocks_for = [](std::size_t ops_per_site) {
    dsm::ClusterConfig config;
    config.sites = 8;
    config.variables = 100;
    config.protocol = causal::ProtocolKind::kOptTrackCrp;
    config.record_history = false;
    config.seed = 1;
    topo::LinkProfile intra;
    topo::LinkProfile inter;
    inter.latency_lo = inter.latency_hi = 20 * kMillisecond;
    inter.faults.drop_rate = 0.02;
    net::ReliableConfig wan;
    wan.arq = net::ArqMode::kSelectiveRepeat;
    wan.adaptive_rto = true;
    wan.rto_initial = 100 * kMillisecond;
    wan.rto_min = 50 * kMillisecond;
    inter.reliable = wan;
    config.topology = topo::Topology::blocks(config.sites, 2, intra, inter);
    config.batch.enabled = true;
    config.gateway.enabled = true;
    config.gateway.max_delay = 10 * kMillisecond;
    workload::WorkloadParams wl;
    wl.variables = config.variables;
    wl.write_rate = 0.8;
    wl.gap_lo = 1 * kMillisecond;
    wl.gap_hi = 10 * kMillisecond;
    wl.ops_per_site = ops_per_site;
    wl.seed = 1;
    const workload::Schedule schedule = workload::generate_schedule(config.sites, wl);
    dsm::Cluster cluster(config);
    g_allocations.store(0);
    g_counting.store(true);
    cluster.execute(schedule);
    g_counting.store(false);
    return g_allocations.load();
  };
  constexpr std::size_t kShort = 500;
  constexpr std::size_t kLong = 1000;
  const std::uint64_t shorter = blocks_for(kShort);
  const std::uint64_t longer = blocks_for(kLong);
  ASSERT_GT(longer, shorter);
  const double per_op =
      static_cast<double>(longer - shorter) / static_cast<double>(8 * (kLong - kShort));
  std::cout << "geo stack: " << per_op << " heap blocks per extra op\n";
  // The bound is the measured value (11.98), rounded up.
  EXPECT_LE(per_op, 12.0);
}

}  // namespace
}  // namespace causim::serial
