#include "net/timer.hpp"

#include <algorithm>
#include <utility>

#include "sim/simulator.hpp"

namespace causim::net {

SimTime SimTimerDriver::now() const { return simulator_.now(); }

void SimTimerDriver::schedule(SimTime delay_us, std::function<void()> fn) {
  simulator_.schedule_after(delay_us < 0 ? 0 : delay_us, std::move(fn));
}

SimTime micros_since(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

ThreadTimerDriver::ThreadTimerDriver(std::chrono::steady_clock::time_point epoch)
    : epoch_(epoch), thread_([this] { loop(); }) {}

ThreadTimerDriver::~ThreadTimerDriver() { stop(); }

SimTime ThreadTimerDriver::now() const { return micros_since(epoch_); }

void ThreadTimerDriver::schedule(SimTime delay_us, std::function<void()> fn) {
  schedule_at(now() + (delay_us < 0 ? 0 : delay_us), std::move(fn));
}

void ThreadTimerDriver::schedule_at(SimTime due_us, std::function<void()> fn) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;  // shutting down: the callback is droppable
    Entry entry{epoch_ + std::chrono::microseconds(due_us), std::move(fn)};
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), entry,
        [](const Entry& a, const Entry& b) { return a.due < b.due; });
    queue_.insert(pos, std::move(entry));
  }
  cv_.notify_one();
}

void ThreadTimerDriver::loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      continue;
    }
    const auto due = queue_.front().due;
    const auto now_tp = std::chrono::steady_clock::now();
    if (due > now_tp) {
      cv_.wait_until(lock, due);
      continue;
    }
    std::function<void()> fn = std::move(queue_.front().fn);
    queue_.pop_front();
    lock.unlock();
    fn();
    lock.lock();
  }
}

void ThreadTimerDriver::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    queue_.clear();
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace causim::net
