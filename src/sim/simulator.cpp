#include "sim/simulator.hpp"

#include "common/panic.hpp"

namespace causim::sim {

void Simulator::schedule_at(SimTime t, Action fn) {
  CAUSIM_CHECK(t >= now_, "scheduling into the past: " << t << " < now " << now_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(fn);
  }
  queue_.push(Entry{t, next_seq_++, slot});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Entry e = queue_.top();
  queue_.pop();
  now_ = e.time;
  ++executed_;
  // Move the action out and free its slot first: the action may schedule
  // more (growing the slab), and its successor can take the slot.
  Action fn = std::move(actions_[e.slot]);
  free_slots_.push_back(e.slot);
  fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t count = 0;
  while (step()) ++count;
  return count;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().time <= deadline) {
    step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace causim::sim
