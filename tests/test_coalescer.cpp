// The coalescing core (net/coalescer.hpp) under both of its framings: the
// 0xB4 batch frame (no header, bare payload entries, as BatchingTransport
// builds them) and the 0xB5 mailbox frame (cell-pair header, entries led by
// a from/to routing prefix, as GatewayMailbox builds them). Every case is
// one function over a Layout and is registered once per framing:
//
//   * thresholds: the count, size and timer flushes trip exactly at their
//     boundaries and account every flush;
//   * round trips: every entry comes back byte-exact in append order, and
//     envelopes of every kind survive either framing at both clock widths;
//   * adversarial frames: a bad tag, a wrong count, trailing garbage, every
//     truncation and every single-byte corruption either rejects with zero
//     entries delivered or decodes the whole frame — never a partial batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "dsm/envelope.hpp"
#include "net/batching_transport.hpp"
#include "net/coalescer.hpp"
#include "net/gateway_mailbox.hpp"
#include "sim/rng.hpp"

namespace causim {
namespace {

using dsm::Envelope;
using serial::Bytes;

struct Layout {
  net::Framing framing;
  Bytes header;
  /// Entries carry a u16 from, u16 to routing prefix before the payload.
  bool routed = false;
};

const Layout kBatch{net::BatchingTransport::kFraming, {}, false};
const Layout kMailbox{net::GatewayMailbox::kFraming, {2, 0, 5, 0}, true};

/// A count threshold no test reaches.
constexpr std::uint32_t kNever = 1u << 30;

net::Coalescer coalescer_for(const Layout& l, std::uint32_t max_messages = kNever) {
  return net::Coalescer(l.framing, l.header, max_messages);
}

Bytes payload_of(std::uint64_t seed, std::size_t len) {
  sim::Pcg32 rng(seed, /*stream=*/7);
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

/// The routing prefix entry `i` carries under `l`.
Bytes prefix_of(const Layout& l, std::size_t i) {
  if (!l.routed) return {};
  const auto from = static_cast<SiteId>(i);
  const auto to = static_cast<SiteId>(50 + i);
  return {static_cast<std::uint8_t>(from), static_cast<std::uint8_t>(from >> 8),
          static_cast<std::uint8_t>(to), static_cast<std::uint8_t>(to >> 8)};
}

/// What decode hands back for entry `i`: its prefix, then its payload.
Bytes entry_of(const Layout& l, std::size_t i, const Bytes& payload) {
  Bytes entry = prefix_of(l, i);
  entry.insert(entry.end(), payload.begin(), payload.end());
  return entry;
}

std::optional<net::Frame> append(net::Coalescer& c, const Layout& l,
                                 std::size_t i, Bytes payload) {
  const Bytes prefix = prefix_of(l, i);
  return c.append(std::move(payload), prefix);
}

/// decode_frame into a vector of entries; nullopt on reject, asserting that
/// a rejected frame delivered nothing.
std::optional<std::vector<Bytes>> decode_all(const Layout& l, const Bytes& frame) {
  std::vector<Bytes> out;
  const bool ok = net::decode_frame(
      frame, l.framing, [](const std::uint8_t*, std::size_t) { return true; },
      [&out](const std::uint8_t* entry, std::size_t len) {
        out.emplace_back(entry, entry + len);
      });
  if (!ok) {
    EXPECT_TRUE(out.empty()) << "rejected frame delivered " << out.size()
                             << " entries — partial delivery";
    return std::nullopt;
  }
  return out;
}

Bytes valid_frame(const Layout& l, std::size_t messages) {
  net::Coalescer c = coalescer_for(l);
  for (std::size_t i = 0; i < messages; ++i) {
    append(c, l, i, payload_of(i, 5 + i * 3));
  }
  auto frame = c.flush();
  EXPECT_TRUE(frame.has_value());
  return std::move(frame->bytes);
}

// ---- the cases ----

void count_threshold_case(const Layout& l) {
  net::Coalescer c = coalescer_for(l, 3);
  EXPECT_FALSE(append(c, l, 0, payload_of(0, 10)).has_value());
  EXPECT_FALSE(append(c, l, 1, payload_of(1, 10)).has_value());
  const auto frame = append(c, l, 2, payload_of(2, 10));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->reason, net::Flush::kCount);
  EXPECT_EQ(frame->messages, 3u);
  EXPECT_EQ(c.buffered_messages(), 0u);
  EXPECT_EQ(c.flushes(net::Flush::kCount), 1u);
  EXPECT_EQ(c.flushes(net::Flush::kSize), 0u);
  EXPECT_EQ(c.flushes(net::Flush::kTimer), 0u);
  const auto decoded = decode_all(l, frame->bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 3u);
}

void size_threshold_case(const Layout& l) {
  // Two entries sized so the frame lands exactly on kFlushBytes: reaching
  // the threshold flushes, one byte short of it keeps accumulating.
  const std::size_t head = 1 + l.framing.header_bytes + 4;
  const std::size_t per_entry = 4 + prefix_of(l, 0).size();
  const std::size_t first = 100;
  const std::size_t second = net::kFlushBytes - head - 2 * per_entry - first;

  net::Coalescer below = coalescer_for(l);
  EXPECT_FALSE(append(below, l, 0, payload_of(0, first)).has_value());
  EXPECT_FALSE(append(below, l, 1, payload_of(1, second - 1)).has_value());
  EXPECT_EQ(below.buffered_messages(), 2u);

  net::Coalescer at = coalescer_for(l);
  EXPECT_FALSE(append(at, l, 0, payload_of(0, first)).has_value());
  const auto frame = append(at, l, 1, payload_of(1, second));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->reason, net::Flush::kSize);
  EXPECT_EQ(frame->messages, 2u);
  EXPECT_EQ(frame->bytes.size(), net::kFlushBytes);
  EXPECT_EQ(at.flushes(net::Flush::kSize), 1u);

  // A message larger than the threshold still ships, as a frame of one.
  net::Coalescer one_shot = coalescer_for(l);
  const Bytes big = payload_of(7, net::kFlushBytes + 1);
  const auto single = append(one_shot, l, 0, big);
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->reason, net::Flush::kSize);
  EXPECT_EQ(single->messages, 1u);
  const auto decoded = decode_all(l, single->bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0], entry_of(l, 0, big));
}

void timer_flush_case(const Layout& l) {
  net::Coalescer c = coalescer_for(l);
  // Nothing buffered: a timer firing on an idle slot is a no-op.
  EXPECT_FALSE(c.flush(net::Flush::kTimer).has_value());
  EXPECT_EQ(c.frames(), 0u);

  EXPECT_FALSE(append(c, l, 0, payload_of(0, 12)).has_value());
  const auto frame = c.flush(net::Flush::kTimer);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->reason, net::Flush::kTimer);
  EXPECT_EQ(frame->messages, 1u);
  // Exactly once: the slot is empty again.
  EXPECT_FALSE(c.flush(net::Flush::kTimer).has_value());
  EXPECT_EQ(c.flushes(net::Flush::kTimer), 1u);
  EXPECT_EQ(c.frames(), 1u);
  EXPECT_EQ(c.messages(), 1u);
}

void round_trip_case(const Layout& l, const std::vector<std::size_t>& sizes) {
  net::Coalescer c = coalescer_for(l);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_FALSE(append(c, l, i, payload_of(i, sizes[i])).has_value());
  }
  const auto frame = c.flush(net::Flush::kForced);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->messages, sizes.size());
  EXPECT_EQ(c.buffered_messages(), 0u);
  ASSERT_GE(frame->bytes.size(), 1 + l.header.size());
  EXPECT_EQ(frame->bytes[0], l.framing.tag);
  EXPECT_EQ(Bytes(frame->bytes.begin() + 1,
                  frame->bytes.begin() + 1 + static_cast<long>(l.header.size())),
            l.header);

  const auto decoded = decode_all(l, frame->bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ((*decoded)[i], entry_of(l, i, payload_of(i, sizes[i])))
        << "entry " << i;
  }
}

std::vector<std::size_t> varied_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 37; ++i) sizes.push_back(1 + (i * 13) % 300);
  return sizes;
}

const std::vector<std::size_t> kEdgeSizes = {0, 1, 2, 255, 256, 1024, 0, 7};

void malformed_framing_case(const Layout& l) {
  const Bytes good = valid_frame(l, 6);
  ASSERT_TRUE(decode_all(l, good).has_value());

  // A foreign tag: a ReliableChannel DATA frame, or the other framing's.
  for (const std::uint8_t tag :
       {std::uint8_t{0xD1}, kBatch.framing.tag, kMailbox.framing.tag}) {
    if (tag == l.framing.tag) continue;
    Bytes bad = good;
    bad[0] = tag;
    EXPECT_FALSE(decode_all(l, bad).has_value()) << "tag " << int{tag};
  }
  // The count patched above the real message count, and to zero.
  const std::size_t count_at = 1 + l.framing.header_bytes;
  Bytes more = good;
  more[count_at] = static_cast<std::uint8_t>(more[count_at] + 1);
  EXPECT_FALSE(decode_all(l, more).has_value());
  Bytes zero = good;
  for (std::size_t i = 0; i < 4; ++i) zero[count_at + i] = 0;
  EXPECT_FALSE(decode_all(l, zero).has_value());
  // Trailing garbage breaks the exact-boundary rule.
  Bytes padded = good;
  padded.push_back(0);
  EXPECT_FALSE(decode_all(l, padded).has_value());
  // Every truncation, down to the empty frame.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const Bytes truncated(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_all(l, truncated).has_value()) << "cut at " << cut;
  }
}

void corruption_case(const Layout& l) {
  const Bytes frame = valid_frame(l, 6);
  const auto baseline = decode_all(l, frame);
  ASSERT_TRUE(baseline.has_value());
  // Either a clean reject (zero entries, asserted inside decode_all) or a
  // full decode: corrupted bytes that keep the structure valid must still
  // deliver every entry. ASan guards the reads of a sloppy walk.
  const auto survives = [&](const Bytes& mutated) {
    const auto decoded = decode_all(l, mutated);
    return !decoded.has_value() || decoded->size() == baseline->size();
  };
  sim::Pcg32 rng(2026, /*stream=*/11);
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (int trial = 0; trial < 4; ++trial) {
      Bytes mutated = frame;
      const auto flip = static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
      mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ flip);
      EXPECT_TRUE(survives(mutated))
          << "byte " << pos << " flip " << static_cast<int>(flip);
    }
  }
  // Seeded multi-byte mutations.
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = frame;
    const int writes = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int w = 0; w < writes; ++w) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<std::uint8_t>(rng.next_u32());
    }
    EXPECT_TRUE(survives(mutated)) << "trial " << trial;
  }
}

// ---- registrations: one test per (case, framing) ----
//
// The BatchCoalescer and EnvelopeBatch suites run the 0xB4 framing, the
// GatewayCoalescer suite the 0xB5 framing.

TEST(BatchCoalescer, CountThresholdTripsExactlyOnTheNthAppend) {
  count_threshold_case(kBatch);
}
TEST(GatewayCoalescer, CountThresholdShipsCompletedFrame) {
  count_threshold_case(kMailbox);
}

TEST(BatchCoalescer, SizeThresholdTripsExactlyWhenCrossed) {
  size_threshold_case(kBatch);
}
TEST(GatewayCoalescer, SizeThresholdShipsEvenASingleOversizedMessage) {
  size_threshold_case(kMailbox);
}

TEST(BatchCoalescer, TimerFlushDrainsOnceThenGoesIdle) {
  timer_flush_case(kBatch);
}
TEST(GatewayCoalescer, FlushOnEmptyMailboxIsNullopt) {
  timer_flush_case(kMailbox);
}

TEST(BatchCoalescer, RoundTripsMessagesInAppendOrder) {
  round_trip_case(kBatch, varied_sizes());
}
TEST(GatewayCoalescer, RoundTripsMessagesInAppendOrder) {
  round_trip_case(kMailbox, varied_sizes());
}

TEST(BatchCoalescer, EmptyPayloadAndMixedSizesRoundTrip) {
  round_trip_case(kBatch, kEdgeSizes);
}
TEST(GatewayCoalescer, EmptyPayloadAndMixedSizesRoundTrip) {
  round_trip_case(kMailbox, kEdgeSizes);
}

TEST(EnvelopeBatch, RejectsMalformedFramingWithoutPartialDelivery) {
  malformed_framing_case(kBatch);
}
TEST(GatewayCoalescer, EveryTruncationRejectsWithoutPartialDelivery) {
  malformed_framing_case(kMailbox);
}

TEST(EnvelopeBatchFuzz, TruncationAndBitFlipsNeverCrash) {
  corruption_case(kBatch);
}
TEST(GatewayCoalescer, SingleByteCorruptionNeverDeliversPartially) {
  corruption_case(kMailbox);
}

// ---- envelopes of every kind ride either framing ----

std::vector<Envelope> mixed_batch() {
  std::vector<Envelope> batch;
  Envelope sm;
  sm.kind = MessageKind::kSM;
  sm.sender = 3;
  sm.var = 12;
  sm.value = Value{5, 120};
  sm.write = WriteId{3, 44};
  sm.meta = Bytes(21, 0xAA);
  batch.push_back(sm);
  Envelope fm;
  fm.kind = MessageKind::kFM;
  fm.sender = 1;
  fm.var = 2;
  fm.fetch_seq = 999;
  fm.record = false;
  batch.push_back(fm);
  Envelope rm;
  rm.kind = MessageKind::kRM;
  rm.sender = 2;
  rm.var = 8;
  rm.value = Value{6, 33};
  rm.write = WriteId{2, 10};
  rm.fetch_seq = 1000;
  rm.meta = Bytes(9, 0x55);
  batch.push_back(rm);
  return batch;
}

TEST(EnvelopeBatch, MixedKindsRoundTrip) {
  const auto batch = mixed_batch();
  for (const Layout* l : {&kBatch, &kMailbox}) {
    for (const serial::ClockWidth cw :
         {serial::ClockWidth::k4Bytes, serial::ClockWidth::k8Bytes}) {
      SCOPED_TRACE(testing::Message() << "tag " << int{l->framing.tag});
      net::Coalescer c = coalescer_for(*l);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        append(c, *l, i, batch[i].encode(cw));
      }
      const auto frame = c.flush();
      ASSERT_TRUE(frame.has_value());
      const auto entries = decode_all(*l, frame->bytes);
      ASSERT_TRUE(entries.has_value());
      ASSERT_EQ(entries->size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Bytes& entry = (*entries)[i];
        const std::size_t skip = prefix_of(*l, i).size();
        const auto d = Envelope::try_decode(
            Bytes(entry.begin() + static_cast<long>(skip), entry.end()), cw);
        ASSERT_TRUE(d.has_value()) << i;
        EXPECT_EQ(d->kind, batch[i].kind) << i;
        EXPECT_EQ(d->sender, batch[i].sender) << i;
        EXPECT_EQ(d->var, batch[i].var) << i;
        EXPECT_EQ(d->meta, batch[i].meta) << i;
        if (batch[i].kind != MessageKind::kFM) {
          EXPECT_EQ(d->value, batch[i].value) << i;
          EXPECT_EQ(d->write, batch[i].write) << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace causim
