// TimerDriver — the timeout facility behind the reliability sublayer and
// the fault injector.
//
// Both layers need "call me back in Δt" (retransmission timeouts, injected
// extra delay) and "what time is it" (pause windows, trace timestamps),
// but must work identically over the discrete-event simulator and over
// real threads. SimTimerDriver delegates to sim::Simulator, so timer
// firings are ordered by the same deterministic (time, seq) queue as every
// other event; ThreadTimerDriver runs one background thread draining a
// due-time-ordered queue in real microseconds since an epoch it is given.
// A thread stack hands every driver its transport's epoch
// (ThreadTransport::epoch()), so the stack has one clock: the transport's
// delay stage, the fault and reliability layers, the coalescers, the live
// sampler and the sites all read the same microseconds.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "common/ids.hpp"

namespace causim::sim {
class Simulator;
}  // namespace causim::sim

namespace causim::net {

class TimerDriver {
 public:
  virtual ~TimerDriver() = default;

  /// Current time in microseconds (simulated or real, per implementation).
  virtual SimTime now() const = 0;

  /// Runs `fn` `delay_us` from now. Implementations may run it inline when
  /// delay_us == 0 is requested under the simulator; callbacks must not
  /// assume a particular thread.
  virtual void schedule(SimTime delay_us, std::function<void()> fn) = 0;

  /// Stops the driver, discarding callbacks that have not fired. A no-op
  /// for drivers with nothing to tear down (the simulator owns its queue);
  /// engine::PooledExecutor calls this through the base interface during
  /// its shutdown sequence.
  virtual void stop() {}
};

/// Deterministic driver: timers are ordinary simulator events.
class SimTimerDriver final : public TimerDriver {
 public:
  explicit SimTimerDriver(sim::Simulator& simulator) : simulator_(simulator) {}

  SimTime now() const override;
  void schedule(SimTime delay_us, std::function<void()> fn) override;

 private:
  sim::Simulator& simulator_;
};

/// Real microseconds elapsed on the steady clock since `epoch`.
SimTime micros_since(std::chrono::steady_clock::time_point epoch);

/// Real-time driver: one background thread fires callbacks at their due
/// instants on the clock `epoch` defines. stop() (and the destructor)
/// discards callbacks that have not fired — for the layers using this
/// driver that is always sound, because anything still pending is
/// droppable by then (a delayed lossy-channel packet, a retransmission for
/// already-acked data, a sampler tick, or a delay-stage packet of a
/// transport that has quiesced).
class ThreadTimerDriver final : public TimerDriver {
 public:
  /// `epoch` is time 0 of the clock this driver reads: the transport's
  /// epoch in a thread stack, construction time by default.
  explicit ThreadTimerDriver(
      std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now());
  ~ThreadTimerDriver() override;

  ThreadTimerDriver(const ThreadTimerDriver&) = delete;
  ThreadTimerDriver& operator=(const ThreadTimerDriver&) = delete;

  /// Real microseconds since the epoch.
  SimTime now() const override;
  void schedule(SimTime delay_us, std::function<void()> fn) override;
  /// Runs `fn` once now() reaches `due_us`. Callbacks fire in due order,
  /// and ones due at the same instant in scheduling order.
  void schedule_at(SimTime due_us, std::function<void()> fn);

  /// Joins the timer thread; pending callbacks are discarded. Idempotent.
  void stop() override;

 private:
  struct Entry {
    std::chrono::steady_clock::time_point due;
    std::function<void()> fn;
  };

  void loop();

  const std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;  // kept sorted by due time
  bool stopping_ = false;
  // The thread must be the last member: it reads the fields above (under
  // mutex_) as soon as it starts, so they have to be initialized first.
  std::thread thread_;
};

}  // namespace causim::net
