// Unit tests for the message envelope codec and its byte accounting, plus
// the try_decode fuzz round-trip: decoding adversarially corrupted bytes
// must fail cleanly, never crash.
#include <gtest/gtest.h>

#include "dsm/envelope.hpp"
#include "sim/rng.hpp"

namespace causim::dsm {
namespace {

TEST(Envelope, SmRoundTripWithSizes) {
  Envelope e;
  e.kind = MessageKind::kSM;
  e.sender = 7;
  e.var = 42;
  e.value = Value{0xABCDEF, 1000};
  e.write = WriteId{7, 33};
  e.meta = {1, 2, 3, 4, 5};

  Envelope::Sizes sizes;
  const serial::Bytes bytes = e.encode(serial::ClockWidth::k4Bytes, &sizes);
  EXPECT_EQ(sizes.meta, 5u);
  EXPECT_EQ(sizes.payload, 1000u);
  EXPECT_EQ(sizes.total(), bytes.size());
  EXPECT_GT(sizes.header, 0u);

  const Envelope d = Envelope::decode(bytes, serial::ClockWidth::k4Bytes);
  EXPECT_EQ(d.kind, MessageKind::kSM);
  EXPECT_EQ(d.sender, 7);
  EXPECT_EQ(d.var, 42u);
  EXPECT_EQ(d.value, e.value);
  EXPECT_EQ(d.write, e.write);
  EXPECT_EQ(d.meta, e.meta);
}

TEST(Envelope, FmRoundTripCarriesNoPayload) {
  Envelope e;
  e.kind = MessageKind::kFM;
  e.sender = 2;
  e.var = 9;
  e.fetch_seq = 777;
  e.record = false;

  Envelope::Sizes sizes;
  const serial::Bytes bytes = e.encode(serial::ClockWidth::k4Bytes, &sizes);
  EXPECT_EQ(sizes.payload, 0u);
  EXPECT_EQ(sizes.meta, 0u);

  const Envelope d = Envelope::decode(bytes, serial::ClockWidth::k4Bytes);
  EXPECT_EQ(d.kind, MessageKind::kFM);
  EXPECT_EQ(d.fetch_seq, 777u);
  EXPECT_FALSE(d.record);
}

TEST(Envelope, RmRoundTrip) {
  Envelope e;
  e.kind = MessageKind::kRM;
  e.sender = 3;
  e.var = 5;
  e.value = Value{11, 64};
  e.write = WriteId{1, 2};
  e.fetch_seq = 12;
  e.record = true;
  e.meta = {9, 9};

  Envelope::Sizes sizes;
  const serial::Bytes bytes = e.encode(serial::ClockWidth::k8Bytes, &sizes);
  const Envelope d = Envelope::decode(bytes, serial::ClockWidth::k8Bytes);
  EXPECT_EQ(d.kind, MessageKind::kRM);
  EXPECT_EQ(d.fetch_seq, 12u);
  EXPECT_TRUE(d.record);
  EXPECT_EQ(d.write, e.write);
  EXPECT_EQ(d.value, e.value);
  EXPECT_EQ(d.meta, e.meta);
  EXPECT_EQ(sizes.payload, 64u);
}

TEST(Envelope, BottomValueRoundTrip) {
  Envelope e;
  e.kind = MessageKind::kRM;
  e.sender = 0;
  e.var = 1;
  // value/write left as ⊥ / null
  const serial::Bytes bytes = e.encode(serial::ClockWidth::k4Bytes);
  const Envelope d = Envelope::decode(bytes, serial::ClockWidth::k4Bytes);
  EXPECT_TRUE(is_bottom(d.value));
  EXPECT_TRUE(is_null(d.write));
}

TEST(Envelope, PayloadBytesAreOnTheWire) {
  Envelope small, big;
  small.kind = big.kind = MessageKind::kSM;
  small.sender = big.sender = 0;
  small.var = big.var = 0;
  small.value = Value{1, 10};
  big.value = Value{2, 500};
  const auto sb = small.encode(serial::ClockWidth::k4Bytes);
  const auto bb = big.encode(serial::ClockWidth::k4Bytes);
  EXPECT_EQ(bb.size() - sb.size(), 490u);
}

TEST(Envelope, ClockWidthAffectsWriteIdField) {
  Envelope e;
  e.kind = MessageKind::kSM;
  e.sender = 0;
  e.var = 0;
  e.write = WriteId{0, 1};
  const auto narrow = e.encode(serial::ClockWidth::k4Bytes);
  const auto wide = e.encode(serial::ClockWidth::k8Bytes);
  EXPECT_EQ(wide.size() - narrow.size(), 4u);
}

// ---- try_decode: untrusted-input hardening ----

TEST(Envelope, TryDecodeAcceptsWellFormedBytes) {
  Envelope e;
  e.kind = MessageKind::kSM;
  e.sender = 4;
  e.var = 17;
  e.value = Value{99, 32};
  e.write = WriteId{4, 8};
  e.meta = {7, 7, 7};
  const auto bytes = e.encode(serial::ClockWidth::k4Bytes);
  const auto d = Envelope::try_decode(bytes, serial::ClockWidth::k4Bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->write, e.write);
  EXPECT_EQ(d->meta, e.meta);
}

TEST(Envelope, TryDecodeRejectsUnknownKindByte) {
  Envelope e;
  e.kind = MessageKind::kSM;
  e.sender = 0;
  e.var = 0;
  auto bytes = e.encode(serial::ClockWidth::k4Bytes);
  bytes[0] = 0x7F;  // not a MessageKind
  EXPECT_FALSE(Envelope::try_decode(bytes, serial::ClockWidth::k4Bytes).has_value());
}

TEST(Envelope, TryDecodeRejectsEmptyBytes) {
  EXPECT_FALSE(
      Envelope::try_decode(serial::Bytes{}, serial::ClockWidth::k4Bytes).has_value());
}

/// Seeds a few representative envelopes and fuzzes every truncation length
/// plus seeded random byte flips. try_decode must either reject or return
/// some envelope — it must never crash, hang, or read out of bounds (ASan
/// in CI turns any OOB into a failure).
TEST(EnvelopeFuzz, TruncationAndBitFlipsNeverCrash) {
  std::vector<Envelope> corpus;
  {
    Envelope sm;
    sm.kind = MessageKind::kSM;
    sm.sender = 3;
    sm.var = 12;
    sm.value = Value{5, 120};
    sm.write = WriteId{3, 44};
    sm.meta = serial::Bytes(37, 0xAA);
    corpus.push_back(sm);

    Envelope fm;
    fm.kind = MessageKind::kFM;
    fm.sender = 1;
    fm.var = 2;
    fm.fetch_seq = 999;
    corpus.push_back(fm);

    Envelope rm;
    rm.kind = MessageKind::kRM;
    rm.sender = 2;
    rm.var = 8;
    rm.value = Value{6, 0};
    rm.write = WriteId{2, 10};
    rm.fetch_seq = 1000;
    rm.meta = serial::Bytes(16, 0x55);
    corpus.push_back(rm);
  }

  sim::Pcg32 rng(2024);
  for (const serial::ClockWidth cw :
       {serial::ClockWidth::k4Bytes, serial::ClockWidth::k8Bytes}) {
    for (const Envelope& e : corpus) {
      const serial::Bytes bytes = e.encode(cw);
      // Every truncation, head and tail.
      for (std::size_t len = 0; len < bytes.size(); ++len) {
        const serial::Bytes head(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(len));
        (void)Envelope::try_decode(head, cw);
        const serial::Bytes tail(bytes.begin() + static_cast<std::ptrdiff_t>(len),
                                 bytes.end());
        (void)Envelope::try_decode(tail, cw);
      }
      // Random byte flips, 1–4 at a time.
      for (int trial = 0; trial < 500; ++trial) {
        serial::Bytes mutated = bytes;
        const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
        for (int f = 0; f < flips; ++f) {
          const auto pos = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
          mutated[pos] = static_cast<std::uint8_t>(rng.next_u32());
        }
        const auto d = Envelope::try_decode(mutated, cw);
        if (d.has_value()) {
          // Whatever survived must re-encode without tripping any
          // invariant (exercises the writer against fuzzed field values).
          (void)d->encode(cw);
        }
      }
    }
  }
}

/// Round-trip stability: decode(encode(x)) == x for seeded random
/// envelopes across both clock widths.
TEST(EnvelopeFuzz, RandomEnvelopeRoundTrip) {
  sim::Pcg32 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Envelope e;
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    e.kind = static_cast<MessageKind>(kind);
    e.sender = static_cast<SiteId>(rng.uniform_int(0, 1000));
    e.var = static_cast<VarId>(rng.uniform_int(0, 1 << 20));
    e.fetch_seq = rng.next_u64();
    e.record = rng.bernoulli(0.5);
    if (e.kind != MessageKind::kFM) {
      e.value = Value{rng.next_u64(), static_cast<std::uint32_t>(rng.uniform_int(0, 4096))};
      e.write = WriteId{static_cast<SiteId>(rng.uniform_int(0, 1000)),
                        static_cast<WriteClock>(rng.uniform_int(0, 1 << 30))};
      e.meta.assign(static_cast<std::size_t>(rng.uniform_int(0, 64)), 0);
      for (auto& b : e.meta) b = static_cast<std::uint8_t>(rng.next_u32());
    }
    const serial::ClockWidth cw =
        rng.bernoulli(0.5) ? serial::ClockWidth::k4Bytes : serial::ClockWidth::k8Bytes;
    const auto d = Envelope::try_decode(e.encode(cw), cw);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->kind, e.kind);
    EXPECT_EQ(d->sender, e.sender);
    EXPECT_EQ(d->var, e.var);
    EXPECT_EQ(d->meta, e.meta);
    if (e.kind != MessageKind::kSM) {
      EXPECT_EQ(d->fetch_seq, e.fetch_seq);
    }
    if (e.kind != MessageKind::kFM) {
      EXPECT_EQ(d->value, e.value);
      EXPECT_EQ(d->write, e.write);
    }
  }
}

}  // namespace
}  // namespace causim::dsm
