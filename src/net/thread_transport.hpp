// ThreadTransport — real-concurrency implementation of the Transport
// interface, standing in for the paper's per-process TCP sockets, and the
// one scheduler of the thread substrate.
//
// Every site has a lane: a FIFO of site tasks, which are packet deliveries
// and tasks queued with post() (the pooled executor's op runs). start()
// spawns W workers sharing a ready queue of lanes. A lane is queued or held
// by one worker at a time, so a site's tasks run one after another in FIFO
// order while different sites run in parallel. A lane that a worker's own
// task makes ready (the target of a fetch, the origin of its reply) runs
// next on that worker instead, up to a few times in a row, so a remote
// read's round trip needs no wake-up. FIFO per channel holds
// because a sender enqueues into a lane in program order and the lane runs
// in order; cross-channel interleaving is whatever the OS scheduler
// produces, exactly as with TCP. send() and post() only queue: SiteRuntime
// sends while holding its site mutex, so a handler run on the caller's
// stack could deadlock.
//
// The transport's epoch is the clock of the whole thread stack: now() is
// real microseconds since construction, the delay stage and every trace
// event of the transport read it, and the stack hands it to its sites and
// to every ThreadTimerDriver it builds (see epoch()).
//
// An optional artificial delay stage (the "wire") re-injects latency: each
// packet becomes a callback on a ThreadTimerDriver at an absolute due time
// clamped past its channel's previous one, so per-channel FIFO holds while
// thread runs exhibit the same out-of-order cross-channel arrivals the
// simulator produces. Without a delay the stage has no timer and no thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/timer.hpp"
#include "net/transport.hpp"

namespace causim::net {

class ThreadTransport final : public Transport {
 public:
  struct Options {
    /// Maximum artificial one-way delay in real microseconds (0 = direct
    /// hand-off to the receiver's lane).
    std::int64_t max_delay_us = 0;
    std::uint64_t seed = 1;
  };

  explicit ThreadTransport(SiteId n);
  ThreadTransport(SiteId n, Options options);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  void attach(SiteId site, PacketHandler* handler) override;

  /// Starts `workers` pool workers (0 = one per site) and the delay stage's
  /// timer (only with max_delay_us > 0). All attach() calls must precede
  /// start().
  void start(unsigned workers = 0);

  /// Queues `task` on `site`'s lane, behind every delivery already queued
  /// there. Callable from any thread while the transport runs.
  void post(SiteId site, std::function<void()> task);

  /// True on the worker currently running one of `site`'s tasks: there the
  /// site may be continued inline instead of through post().
  bool on_lane(SiteId site) const;

  /// Waits until every queued packet has been delivered *and* handled and
  /// every posted task has run, i.e. the substrate is quiescent. Only
  /// meaningful once senders have stopped.
  void quiesce();

  /// Stops all threads. Implies quiesce(). Idempotent.
  void stop();

  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return static_cast<SiteId>(lanes_.size()); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;

  /// Must be called before start(); events are stamped with now().
  void set_trace_sink(obs::TraceSink* sink) override;

  /// Time 0 of the stack clock: this transport's construction instant.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }
  /// The stack clock: real microseconds since epoch().
  SimTime now() const { return micros_since(epoch_); }

 private:
  /// A delivery, or a posted task when `posted` is set.
  struct Task {
    Packet packet;
    std::function<void()> posted;
  };

  struct Lane {
    std::mutex mutex;
    std::deque<Task> queue;
    PacketHandler* handler = nullptr;
    bool scheduled = false;  // on the ready queue or held by a worker
  };

  /// Appends to the lane (lane mutex held); true when the lane was idle and
  /// the caller must hand it to make_ready() once the mutex is released.
  static bool push_locked(Lane& lane, Task task);
  void make_ready(SiteId site);
  /// Appends `task` to `site`'s lane, scheduling the lane if it was idle.
  void enqueue(SiteId site, Task task);
  void worker_loop();
  /// Runs `site`'s tasks until its lane is empty (worker context).
  void run_lane(SiteId site);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;

  // Ready lanes, task accounting and pool lifecycle.
  mutable std::mutex pool_mutex_;
  std::condition_variable pool_cv_;  // workers: a ready lane or stopping_
  std::condition_variable idle_cv_;  // quiesce(): pending_ reached 0
  std::deque<SiteId> ready_;
  /// Tasks queued or running (packets count from send() until handled).
  std::uint64_t pending_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  bool running_ = false;
  bool stopping_ = false;

  // Artificial-delay stage: the timer exists from start() while
  // max_delay_us_ > 0; wire_mutex_ orders due times and channel sequence
  // numbers.
  std::int64_t max_delay_us_;
  std::uint64_t rng_state_;
  std::mutex wire_mutex_;
  std::unique_ptr<ThreadTimerDriver> delay_;
  // last_due_[from * n + to]: the due time of the channel's latest packet
  // (sized only with a delay stage).
  std::vector<SimTime> last_due_;

  // channel_seq_[from * n + to]: next FIFO sequence number on the channel.
  // Assigned inside the critical section that orders the enqueue (the wire
  // mutex with a delay stage, the target lane mutex without), so sequence
  // numbers always match actual per-channel delivery order.
  std::vector<std::uint64_t> channel_seq_;

  // Tracing (sink set before start(); RingBufferSink::emit is thread-safe).
  obs::TraceSink* trace_ = nullptr;
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace causim::net
