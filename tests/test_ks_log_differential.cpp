// Differential test: the flat KsLog against MapKsLog, a std::map model of
// the same rules (ks_log_reference.hpp). Both are driven with one random
// sequence of operations; after every step their entries, serialized bytes
// and wire sizes must be identical. Universes of 10 and 40 sites keep
// every dest set inline, 130 spills it to the heap. The one-walk receive
// paths (the receipt's scan_witnesses, the decode_applied that materializes
// the log it installs, and merge_and_clean) are checked against the
// multi-pass compositions in ks_log_reference.hpp under every combination
// of Opt-Track's four pruning toggles.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "causal/ks_log.hpp"
#include "ks_log_reference.hpp"
#include "sim/rng.hpp"

namespace causim::causal {
namespace {

using reference::MapKsLog;

/// Entries as (writer, clock, members), the shape both logs iterate in.
template <typename Log>
std::vector<std::pair<std::pair<SiteId, WriteClock>, std::vector<SiteId>>> entries_of(
    const Log& log) {
  std::vector<std::pair<std::pair<SiteId, WriteClock>, std::vector<SiteId>>> out;
  log.for_each([&](const WriteId& id, const DestSet& dests) {
    out.push_back({{id.writer, id.clock}, dests.to_vector()});
  });
  return out;
}

template <typename Log>
serial::Bytes bytes_of(const Log& log, serial::ClockWidth cw) {
  serial::ByteWriter w(cw);
  log.serialize(w);
  return w.take();
}

class KsLogDifferential : public ::testing::TestWithParam<SiteId> {
 protected:
  SiteId n() const { return GetParam(); }

  SiteId site() { return static_cast<SiteId>(rng_.uniform_int(0, n() - 1)); }

  // Writers cluster on a few sites so ids collide (intersections, obsolete
  // entries, markers); now and then any site writes.
  WriteId write_id() {
    const SiteId writer =
        rng_.bernoulli(0.3) ? site() : static_cast<SiteId>(rng_.uniform_int(0, 5));
    return {writer, static_cast<WriteClock>(rng_.uniform_int(1, 24))};
  }

  DestSet dest_set() {
    if (rng_.bernoulli(0.1)) return DestSet::all(n());
    DestSet d(n());
    const auto members = rng_.uniform_int(0, 6);
    for (long k = 0; k < members; ++k) d.insert(site());
    return d;
  }

  std::vector<WriteClock> applied() {
    std::vector<WriteClock> out(n(), 0);
    for (WriteClock& c : out) c = static_cast<WriteClock>(rng_.uniform_int(0, 24));
    return out;
  }

  /// One pair of equal logs built by the same random adds.
  std::pair<KsLog, MapKsLog> random_pair(int adds) {
    KsLog flat(n());
    MapKsLog ref(n());
    for (int i = 0; i < adds; ++i) {
      const WriteId id = write_id();
      const DestSet d = dest_set();
      flat.add(id, d);
      ref.add(id, d);
    }
    return {std::move(flat), std::move(ref)};
  }

  /// A log with entries in it, standing in for the spent buffer a decode
  /// reuses. Fixed adds: it draws nothing from rng_.
  KsLog spent_log() const {
    KsLog log(n());
    for (SiteId s = 0; s < 8; ++s) log.add({s, 1}, DestSet::all(n()));
    return log;
  }

  void expect_same(const KsLog& flat, const MapKsLog& ref, const std::string& step) {
    ASSERT_EQ(entries_of(flat), entries_of(ref)) << "after " << step;
    for (const auto cw : {serial::ClockWidth::k4Bytes, serial::ClockWidth::k8Bytes}) {
      ASSERT_EQ(bytes_of(flat, cw), bytes_of(ref, cw)) << "after " << step;
      ASSERT_EQ(flat.wire_bytes(cw), ref.wire_bytes(cw)) << "after " << step;
    }
  }

  sim::Pcg32 rng_{0};
};

TEST_P(KsLogDifferential, RandomOperationSequencesMatchTheMapModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rng_ = sim::Pcg32(seed * 1000 + n());
    auto [flat, ref] = random_pair(20);
    for (int step = 0; step < 300; ++step) {
      std::string name;
      switch (rng_.uniform_int(0, 10)) {
        case 0:
        case 1: {
          name = "add";
          const WriteId id = write_id();
          const DestSet d = dest_set();
          flat.add(id, d);
          ref.add(id, d);
          break;
        }
        case 2: {
          name = "merge of a random log";
          const int adds = static_cast<int>(rng_.uniform_int(0, 30));
          auto [other_flat, other_ref] = random_pair(adds);
          ASSERT_NO_FATAL_FAILURE(expect_same(other_flat, other_ref, "a merge input"));
          flat.merge(other_flat);
          ref.merge(other_ref);
          break;
        }
        case 3: {
          // A pruned copy plus newer writes: mostly shared ids, so the
          // intersect and obsolete rules dominate.
          name = "merge of a related log";
          KsLog other_flat = flat;
          MapKsLog other_ref = ref;
          const DestSet d = dest_set();
          other_flat.prune_dests(d);
          other_ref.prune_dests(d);
          for (int i = 0; i < 3; ++i) {
            const WriteId id = write_id();
            const DestSet extra = dest_set();
            other_flat.add(id, extra);
            other_ref.add(id, extra);
          }
          flat.merge(other_flat);
          ref.merge(other_ref);
          break;
        }
        case 4: {
          name = "prune_dests";
          const DestSet d = dest_set();
          flat.prune_dests(d);
          ref.prune_dests(d);
          break;
        }
        case 5: {
          name = "erase_dest_up_to";
          const SiteId s = site();
          const WriteId id = write_id();
          flat.erase_dest_up_to(s, id.writer, id.clock);
          ref.erase_dest_up_to(s, id.writer, id.clock);
          break;
        }
        case 6: {
          name = "erase_dest_everywhere";
          const SiteId s = site();
          flat.erase_dest_everywhere(s);
          ref.erase_dest_everywhere(s);
          break;
        }
        case 7: {
          name = "prune_applied";
          const SiteId s = site();
          const auto a = applied();
          flat.prune_applied(s, a);
          ref.prune_applied(s, a);
          break;
        }
        case 8:
          name = "purge";
          flat.purge();
          ref.purge();
          break;
        case 9:
          name = "prune_by_program_order";
          flat.prune_by_program_order();
          ref.prune_by_program_order();
          break;
        default: {
          name = "serialize/deserialize";
          const auto cw = rng_.bernoulli(0.5) ? serial::ClockWidth::k4Bytes
                                              : serial::ClockWidth::k8Bytes;
          const serial::Bytes flat_bytes = bytes_of(flat, cw);
          const serial::Bytes ref_bytes = bytes_of(ref, cw);
          serial::ByteReader flat_reader(flat_bytes, cw);
          serial::ByteReader ref_reader(ref_bytes, cw);
          flat = KsLog::deserialize(flat_reader);
          ref = MapKsLog::deserialize(ref_reader);
          ASSERT_TRUE(flat_reader.ok() && flat_reader.done());
          ASSERT_TRUE(ref_reader.ok() && ref_reader.done());
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(flat, ref, name));

      // The queries the protocols make, on the same state.
      ASSERT_EQ(flat.size(), ref.size());
      const WriteId probe = write_id();
      ASSERT_EQ(flat.find(probe) == nullptr, ref.find(probe) == nullptr);
      if (flat.find(probe) != nullptr) {
        ASSERT_EQ(*flat.find(probe), *ref.find(probe));
      }
      ASSERT_EQ(flat.max_clock_of(probe.writer), ref.max_clock_of(probe.writer));
      const SiteId s = site();
      const auto a = applied();
      const WriteId* blocker = flat.first_unapplied(s, a);
      const WriteId expected = ref.first_unapplied(s, a);
      ASSERT_EQ(blocker == nullptr, is_null(expected));
      if (blocker != nullptr) {
        ASSERT_EQ(*blocker, expected);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(flat.naming(s), ref.naming(s), "naming"));
    }
  }
}

/// The first witness still unapplied under `applied`, as OptTrack reads it.
WriteId first_waiting(const std::vector<WriteId>& waits_on,
                      const std::vector<WriteClock>& applied) {
  for (const WriteId& id : waits_on) {
    if (applied[id.writer] < id.clock) return id;
  }
  return WriteId{};
}

TEST_P(KsLogDifferential, FusedWalksMatchTheMultiPassComposition) {
  for (unsigned toggles = 0; toggles < 16; ++toggles) {
    ProtocolOptions options;
    options.prune_on_send = (toggles & 1) != 0;
    options.prune_on_apply = (toggles & 2) != 0;
    options.purge_markers = (toggles & 4) != 0;
    options.prune_program_order = (toggles & 8) != 0;
    const KsLog::Rules rules{options.prune_on_apply, options.prune_program_order,
                             options.purge_markers};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      rng_ = sim::Pcg32(seed * 100 + toggles * 7 + n());
      const std::string where = "toggles " + std::to_string(toggles) + " seed " +
                                std::to_string(seed);
      // The sender's log: random history, then local writes that prune on
      // send (or not) as the toggles say.
      auto [sender, sender_ref] = random_pair(static_cast<int>(rng_.uniform_int(0, 40)));
      for (int i = 0; i < 4; ++i) {
        const SiteId writer = site();
        const WriteId w{writer, static_cast<WriteClock>(rng_.uniform_int(20, 30))};
        DestSet dests = dest_set();
        if (options.prune_on_send) sender.prune_dests(dests);
        DestSet remaining = dests;
        remaining.erase(writer);
        sender.add(w, remaining);
        if (options.purge_markers) sender.purge();
        reference::local_write_multi_pass(sender_ref, w, dests, writer, options);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(sender, sender_ref, "local writes, " + where));

      for (const auto cw : {serial::ClockWidth::k4Bytes, serial::ClockWidth::k8Bytes}) {
        // Receipt at a replica `self` of an SM whose write may collide with
        // a piggybacked id (intersect) or trail its writer (obsolete).
        const SiteId self = site();
        DestSet dests = dest_set();
        dests.insert(self);
        const WriteId w = write_id();
        const std::vector<WriteClock> applied = this->applied();
        const KsLog::Receipt m{w, dests, self};
        // The receipt scans the piggyback and keeps the bytes it read...
        serial::Bytes bytes = bytes_of(sender, cw);
        bytes.push_back(0xEE);  // the scan stops at the log's end
        serial::ByteReader scan(bytes, cw);
        std::vector<WriteId> waits_on;
        KsLog::scan_witnesses(scan, m, applied, waits_on);
        ASSERT_TRUE(scan.ok() && scan.remaining() == 1) << where;
        const serial::Bytes installed(bytes.begin(), bytes.end() - 1);
        // ...and the log's first use decodes them, into a spent log's buffer.
        serial::ByteReader r(installed, cw);
        const KsLog deps = KsLog::decode_applied(r, m, rules, spent_log());
        ASSERT_TRUE(r.ok() && r.done()) << where;
        const MapKsLog deps_ref =
            reference::sm_apply_multi_pass(sender_ref, w, dests, self, options);
        ASSERT_NO_FATAL_FAILURE(expect_same(deps, deps_ref, "decode_applied, " + where));

        // The witness, at decode and after more applies (Apply only grows).
        std::vector<WriteClock> later = applied;
        for (WriteClock& c : later) c += static_cast<WriteClock>(rng_.uniform_int(0, 6));
        ASSERT_EQ(first_waiting(waits_on, applied), sender_ref.first_unapplied(self, applied))
            << where;
        ASSERT_EQ(first_waiting(waits_on, later), sender_ref.first_unapplied(self, later))
            << where;

        // A read of the variable merges the new LastWriteOn log.
        auto [local, local_ref] = random_pair(static_cast<int>(rng_.uniform_int(0, 40)));
        const std::size_t merged = local.merge_and_clean(deps, self, later, rules);
        const std::size_t merged_ref =
            reference::merge_read_multi_pass(local_ref, deps_ref, self, later, options);
        ASSERT_EQ(merged, merged_ref) << where;
        ASSERT_NO_FATAL_FAILURE(expect_same(local, local_ref, "merge_and_clean, " + where));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, KsLogDifferential,
                         ::testing::Values(SiteId{10}, SiteId{40}, SiteId{130}));

}  // namespace
}  // namespace causim::causal
