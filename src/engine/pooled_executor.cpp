#include "engine/pooled_executor.hpp"

#include <algorithm>
#include <thread>

#include "common/panic.hpp"
#include "net/thread_transport.hpp"
#include "obs/live/live_telemetry.hpp"

namespace causim::engine {

namespace {

unsigned resolve_workers(unsigned requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

PooledExecutor::PooledExecutor(NodeStack& stack, net::ThreadTransport& transport,
                               Options options)
    : stack_(stack),
      transport_(transport),
      workers_target_(resolve_workers(options.workers)) {}

PooledExecutor::~PooledExecutor() { abort(); }

void PooledExecutor::play(ScheduleDriver& driver,
                          const workload::Schedule& schedule) {
  const SiteId n = stack_.sites();
  {
    std::lock_guard life(life_mutex_);
    driver_ = &driver;
    schedule_ = &schedule;
    sites_ = std::make_unique<SiteState[]>(n);
    live_sites_.store(n, std::memory_order_release);
    stop_.store(false, std::memory_order_release);
    transport_.start(workers_target_);
    started_ = true;
    start_sampler();
    for (SiteId s = 0; s < n; ++s) transport_.post(s, [this, s] { run_site(s); });
  }
  // All application work happens on the pool; this thread only waits for
  // the last site to finish — or for an abort() to pull the plug.
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] {
    return live_sites_.load(std::memory_order_acquire) == 0 ||
           stop_.load(std::memory_order_acquire);
  });
}

void PooledExecutor::run_site(SiteId s) {
  SiteState& st = sites_[s];
  const std::vector<workload::Op>& ops = schedule_->per_site[s];
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;  // aborted mid-run
    if (st.cursor >= ops.size()) {
      site_finished();
      return;
    }
    const workload::Op& op = ops[st.cursor];
    st.gate.store(0, std::memory_order_release);
    driver_->dispatch(s, op, [this, s] { complete(s); });
    if (st.gate.fetch_add(1, std::memory_order_acq_rel) == 1) {
      // `done` already fired (inline write/local read, or a hook that
      // finished the op on another thread first): this worker owns the
      // continuation and keeps the site hot.
      ++st.cursor;
      continue;
    }
    // Completion pending (RemoteFetch in flight): the callback owns the
    // continuation. The worker is free, and the site's lane keeps
    // delivering.
    return;
  }
}

void PooledExecutor::complete(SiteId s) {
  SiteState& st = sites_[s];
  if (st.gate.fetch_add(1, std::memory_order_acq_rel) == 0) {
    // The dispatching worker has not checked the gate yet — it arrives
    // second and continues the site inline.
    return;
  }
  // dispatch() already returned on the worker side: this callback owns the
  // continuation. The cursor touch is safe — the gate handoff is the site's
  // serialization point.
  ++st.cursor;
  if (transport_.on_lane(s)) {
    run_site(s);  // the RM's delivery: continue on this worker
  } else {
    transport_.post(s, [this, s] { run_site(s); });
  }
}

void PooledExecutor::site_finished() {
  if (live_sites_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last site done. Take the lock before notifying so play()'s
    // predicate check cannot slip between our decrement and the notify.
    std::lock_guard lock(mutex_);
    done_cv_.notify_all();
  }
}

void PooledExecutor::drain() {
  // Shutdown order with the fault stack up: (0) the coalescing layers
  // flush every pending frame — the sites stopped sending, so after this
  // the layers below hold every message, (1) the reliability layer reaches
  // app-level quiescence (every packet delivered exactly once and acked —
  // retransmission timers still live to get it there), (2) the timer
  // stops, discarding pending callbacks (all droppable now: stale
  // retransmits, delayed duplicates, empty flushes) so nothing races the
  // transport teardown, (3) the wire drains.
  //
  // With the cross-DC gateway up, steps 0–1 loop: a mailbox can be
  // *refilled* mid-drain — an enroute frame still in flight lands at its
  // gateway after the flush, and an FM fanned out of a mailbox triggers an
  // RM reply that enters a fresh one. Each pass strictly moves messages
  // down the stack and the senders have stopped, so the loop terminates
  // once the last reply made it through.
  do {
    if (stack_.gateway() != nullptr) stack_.gateway()->flush_all();
    if (stack_.batching() != nullptr) stack_.batching()->flush_all();
    if (stack_.reliable() != nullptr) stack_.reliable()->wait_quiescent();
    if (stack_.gateway() != nullptr) transport_.quiesce();
  } while (stack_.gateway() != nullptr && !stack_.gateway()->quiescent());
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.quiesce();
}

void PooledExecutor::finish() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  stop_sampler();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::abort() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  {
    std::lock_guard lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
  stop_sampler();
  // Timer before transport: a retransmission firing into a stopped wire
  // would panic. The transport's stop() then lets the pool deliver what is
  // queued — every site run now returns at once, so no new op is issued —
  // and joins the workers.
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::start_sampler() {
  obs::live::LiveTelemetry* live = stack_.config().live;
  if (live == nullptr || live->sample_interval() <= 0) return;
  sampler_ = std::make_unique<net::ThreadTimerDriver>(transport_.epoch());
  sampler_->schedule(0, [this] { sample(); });
}

void PooledExecutor::sample() {
  // The stack snapshots under per-site locks, on the timer's thread.
  stack_.live_sample(transport_.now());
  sampler_->schedule(stack_.config().live->sample_interval(), [this] { sample(); });
}

void PooledExecutor::stop_sampler() {
  if (sampler_ == nullptr) return;
  sampler_->stop();  // joins: no tick runs past this line
  sampler_.reset();
}

}  // namespace causim::engine
