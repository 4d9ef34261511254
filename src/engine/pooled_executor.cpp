#include "engine/pooled_executor.hpp"

#include <algorithm>

#include "common/panic.hpp"
#include "net/thread_transport.hpp"

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
      workers_target_(resolve_workers(options.workers)),
      sampler_(stack) {}

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
    transport_.start();
    started_ = true;
    sampler_.start();
    {
      std::lock_guard lock(mutex_);
      stop_.store(false, std::memory_order_release);
      ready_.clear();
      for (SiteId s = 0; s < n; ++s) ready_.push_back(s);
    }
    workers_.reserve(workers_target_);
    for (unsigned i = 0; i < workers_target_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  // All application work happens on the pool; this thread only waits for
  // the last site to finish — or for an abort() to pull the plug.
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] {
    return live_sites_.load(std::memory_order_acquire) == 0 ||
           stop_.load(std::memory_order_acquire);
  });
}

void PooledExecutor::worker_loop() {
  for (;;) {
    SiteId s;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !ready_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      s = ready_.front();
      ready_.pop_front();
    }
    run_site(s);
  }
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
      // `done` already fired (inline write/local read, or a remote read
      // whose RM beat us here): this worker owns the continuation and
      // keeps the site hot instead of a queue round trip.
      ++st.cursor;
      continue;
    }
    // Completion pending (RemoteFetch in flight): the callback owns the
    // continuation and will re-enqueue the site. This worker is free.
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
  // dispatch() already returned on the worker side: this callback (a
  // receipt thread, typically) owns the continuation. The cursor touch is
  // safe — the gate handoff is the site's serialization point.
  ++st.cursor;
  enqueue(s);
}

void PooledExecutor::enqueue(SiteId s) {
  {
    std::lock_guard lock(mutex_);
    ready_.push_back(s);
  }
  cv_.notify_one();
}

void PooledExecutor::site_finished() {
  if (live_sites_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last site done. Take the lock before notifying so play()'s
    // predicate check cannot slip between our decrement and the notify.
    std::lock_guard lock(mutex_);
    done_cv_.notify_all();
  }
}

void PooledExecutor::drain() { drain_thread_stack(stack_, transport_); }

void PooledExecutor::finish() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  stop_workers();
  sampler_.stop();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::abort() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  // Workers first: once they are joined no application thread can send,
  // so the layers below can be torn down in the usual order (timer before
  // transport — a retransmission firing into a stopped wire would panic).
  stop_workers();
  sampler_.stop();
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::stop_workers() {
  {
    std::lock_guard lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

}  // namespace causim::engine
