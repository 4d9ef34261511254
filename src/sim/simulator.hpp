// Simulator — a deterministic discrete-event engine.
//
// Events are (time, sequence) ordered: ties in simulated time are broken by
// insertion order, so a run is a pure function of (schedule, seed). This is
// the substrate that replaces the paper's wall-clock JDK/TCP testbed; see
// DESIGN.md §1 for why the substitution preserves the reported metrics.
//
// The queue allocates nothing once warm. It is a binary heap of POD
// (time, seq, slot) entries; the actions live in a recycled slab that the
// entries index, so sifting moves 24-byte records, never a std::function.
// A slot is released when its action starts, so an action that schedules
// more work (the common case) reuses the slot it just vacated. Callers
// keep their captures within std::function's inline buffer (16 bytes,
// trivially copyable: `this` plus a slot or site id) to keep scheduling
// allocation-free too.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/ids.hpp"

namespace causim::sim {

class Simulator {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now).
  void schedule_at(SimTime t, Action fn);

  /// Schedules `fn` to run `delay` after the current time.
  void schedule_after(SimTime delay, Action fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= `deadline`. Returns the number executed.
  std::size_t run_until(SimTime deadline);

  /// Executes exactly one event if available. Returns false when idle.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into actions_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_slots_;  // LIFO: the hottest slot first
};

}  // namespace causim::sim
