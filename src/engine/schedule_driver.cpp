#include "engine/schedule_driver.hpp"

#include <algorithm>

#include "common/panic.hpp"
#include "obs/live/live_telemetry.hpp"
#include "sim/simulator.hpp"

namespace causim::engine {

void ScheduleDriver::execute(const workload::Schedule& schedule) {
  CAUSIM_CHECK(schedule.sites() == stack_.sites(),
               "schedule built for " << schedule.sites() << " sites, cluster has "
                                     << stack_.sites());
  executor_.play(*this, schedule);
  executor_.drain();
  // Quiescence invariants: the network drained and every delivered update
  // was applied (an unapplied pending update would mean the activation
  // predicate can never fire — a protocol bug).
  stack_.verify_quiescent();
  executor_.finish();
}

void ScheduleDriver::dispatch(SiteId s, const workload::Op& op,
                              std::function<void()> done) {
  if (hook_) {
    hook_(s, op, std::move(done));
    return;
  }
  dsm::SiteRuntime& site = stack_.site(s);
  if (op.kind == workload::Op::Kind::kWrite) {
    site.write(op.var, op.payload_bytes, op.record);
    done();
    return;
  }
  site.read(op.var, [done = std::move(done)](Value, WriteId) { done(); },
            op.record);
}

// ---------------------------------------------------------------------------

void SimExecutor::play(ScheduleDriver& driver, const workload::Schedule& schedule) {
  driver_ = &driver;
  schedule_ = &schedule;
  cursor_.assign(stack_.sites(), 0);
  for (SiteId s = 0; s < stack_.sites(); ++s) issue_next(s);
  if (stack_.config().live != nullptr &&
      stack_.config().live->sample_interval() > 0) {
    simulator_.schedule_at(simulator_.now(), [this] { sample_live(); });
  }
  simulator_.run();
  schedule_ = nullptr;
  driver_ = nullptr;
}

void SimExecutor::issue_next(SiteId s) {
  const auto& ops = schedule_->per_site[s];
  if (cursor_[s] >= ops.size()) return;  // this site's application finished
  const SimTime at = std::max(simulator_.now(), ops[cursor_[s]].at);
  simulator_.schedule_at(at, [this, s] { run_op(s); });
}

void SimExecutor::run_op(SiteId s) {
  const workload::Op& op = schedule_->per_site[s][cursor_[s]];
  // Writes complete inline; remote reads resume the site's schedule from
  // the RM continuation — either way the next op is only issued after
  // `done`, which is the blocking-fetch rule.
  driver_->dispatch(s, op, [this, s] {
    ++cursor_[s];
    issue_next(s);
  });
}

void SimExecutor::sample_live() {
  stack_.live_sample(simulator_.now());
  // play() runs the simulator to an empty queue, so the sampler stops once
  // it is the only remaining work.
  if (!simulator_.idle()) {
    simulator_.schedule_after(stack_.config().live->sample_interval(),
                              [this] { sample_live(); });
  }
}

}  // namespace causim::engine
