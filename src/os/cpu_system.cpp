#include "os/cpu_system.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace whisk::os {
namespace {

// Tasks with remaining service below this are treated as finished; guards
// against floating-point residue keeping a task alive forever.
constexpr double kEpsilon = 1e-9;

}  // namespace

CpuSystem::CpuSystem(sim::Engine& engine, CpuParams params,
                     CompletionFn on_complete)
    : engine_(&engine),
      params_(params),
      on_complete_(std::move(on_complete)),
      last_update_(engine.now()) {
  WHISK_CHECK(params_.cores > 0, "node needs at least one core");
  WHISK_CHECK(static_cast<bool>(on_complete_), "null completion callback");
}

void CpuSystem::start(Tag tag, double service, double cpu_fraction,
                      double weight) {
  WHISK_CHECK(service > 0.0, "non-positive service time");
  WHISK_CHECK(cpu_fraction >= 0.0 && cpu_fraction <= 1.0,
              "cpu_fraction out of [0,1]");
  WHISK_CHECK(weight > 0.0, "non-positive weight");
  if (params_.mode == ExecMode::kPinnedCore) {
    WHISK_CHECK(tasks_.size() < static_cast<std::size_t>(params_.cores),
                "pinned-core mode oversubscribed: invoker must cap busy "
                "containers at the core count");
  }
  advance();
  tasks_.emplace(next_id_++,
                 Task{tag, service, cpu_fraction, weight, 1.0, cpu_fraction});
  recompute();
  reschedule();
}

double CpuSystem::allocated_cores() const {
  double total = 0.0;
  for (const auto& [id, t] : tasks_) total += t.alloc;
  return total;
}

double CpuSystem::busy_core_seconds() const {
  // Include in-flight progress since the last integration point.
  double extra = 0.0;
  const double dt = engine_->now() - last_update_;
  if (dt > 0.0) {
    for (const auto& [id, t] : tasks_) extra += t.alloc * dt;
  }
  return busy_core_seconds_ + extra;
}

void CpuSystem::advance() {
  const sim::SimTime now = engine_->now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0) return;
  for (auto& [id, t] : tasks_) {
    t.remaining = std::max(0.0, t.remaining - t.speed * dt);
    busy_core_seconds_ += t.alloc * dt;
  }
}

void CpuSystem::recompute() {
  if (tasks_.empty()) return;

  if (params_.mode == ExecMode::kPinnedCore) {
    // One dedicated core per task: nominal speed, no contention, no
    // preemption. I/O-heavy tasks simply leave their core partly idle
    // (the trade-off Sec. IV-A discusses).
    for (auto& [id, t] : tasks_) {
      t.speed = 1.0;
      t.alloc = t.cpu_fraction;
    }
    return;
  }

  // Weighted max-min water-filling of CPU demands. Task i demands
  // d_i = cpu_fraction_i cores; allocations are proportional to weights but
  // never exceed the demand; leftover capacity cascades to hungrier tasks.
  const double cores = static_cast<double>(params_.cores);
  double total_demand = 0.0;
  for (const auto& [id, t] : tasks_) total_demand += t.cpu_fraction;

  if (total_demand <= cores) {
    for (auto& [id, t] : tasks_) t.alloc = t.cpu_fraction;
  } else {
    // Find the water level f with sum(min(d_i, w_i * f)) == cores.
    // Sort by saturation point d_i / w_i and sweep.
    struct Entry {
      double saturation;  // d / w
      double demand;
      double weight;
      Task* task;
    };
    std::vector<Entry> entries;
    entries.reserve(tasks_.size());
    for (auto& [id, t] : tasks_) {
      entries.push_back(
          Entry{t.cpu_fraction / t.weight, t.cpu_fraction, t.weight, &t});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.saturation < b.saturation;
              });
    double remaining_capacity = cores;
    double remaining_weight = 0.0;
    for (const auto& e : entries) remaining_weight += e.weight;
    std::size_t idx = 0;
    // Saturate tasks whose demand lies below the current water level.
    while (idx < entries.size() &&
           entries[idx].saturation * remaining_weight <= remaining_capacity) {
      entries[idx].task->alloc = entries[idx].demand;
      remaining_capacity -= entries[idx].demand;
      remaining_weight -= entries[idx].weight;
      ++idx;
    }
    const double level =
        remaining_weight > 0.0 ? remaining_capacity / remaining_weight : 0.0;
    for (; idx < entries.size(); ++idx) {
      entries[idx].task->alloc = entries[idx].weight * level;
    }
  }

  // Context-switch efficiency: once more CPU-hungry containers are runnable
  // than there are cores, the OS preempts and some of every timeslice is
  // wasted (the overhead the paper's pinning eliminates).
  std::size_t hungry = 0;
  for (const auto& [id, t] : tasks_) {
    if (t.cpu_fraction >= 0.5) ++hungry;
  }
  const double overload =
      std::max(0.0, static_cast<double>(hungry) / cores - 1.0);
  const double eta = 1.0 / (1.0 + params_.context_switch_beta * overload);

  for (auto& [id, t] : tasks_) {
    if (t.cpu_fraction <= 0.0) {
      t.speed = 1.0;
      continue;
    }
    const double rho =
        t.alloc > 0.0 ? std::min(1.0, t.alloc / t.cpu_fraction) : 1e-6;
    t.speed = 1.0 / ((1.0 - t.cpu_fraction) +
                     t.cpu_fraction / (rho * eta));
  }
}

void CpuSystem::reschedule() {
  if (tasks_.empty()) {
    if (pending_event_ != sim::kInvalidEvent) {
      engine_->cancel(pending_event_);
      pending_event_ = sim::kInvalidEvent;
    }
    return;
  }
  double earliest = -1.0;
  for (const auto& [id, t] : tasks_) {
    WHISK_CHECK(t.speed > 0.0, "task with zero progress speed");
    const double eta = t.remaining / t.speed;
    if (earliest < 0.0 || eta < earliest) earliest = eta;
  }
  const double delay = std::max(0.0, earliest);
  // Re-arm by moving the pending event instead of cancel + schedule: same
  // ordering semantics (reschedule re-sequences like a fresh schedule), but
  // the event slot and callback are reused. Falls back to a fresh schedule
  // when there is no live pending event.
  if (pending_event_ == sim::kInvalidEvent ||
      !engine_->reschedule_in(pending_event_, delay)) {
    pending_event_ =
        engine_->schedule_in(delay, [this] { on_completion_event(); });
  }
}

void CpuSystem::on_completion_event() {
  pending_event_ = sim::kInvalidEvent;
  advance();
  // Complete exactly one task per event; ties finish in follow-up events at
  // the same timestamp, keeping per-completion bookkeeping simple.
  auto done = tasks_.end();
  double best = kEpsilon;
  for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
    if (it->second.remaining <= best) {
      best = it->second.remaining;
      done = it;
    }
  }
  if (done == tasks_.end()) {
    // Numerical drift: nothing actually finished; rearm.
    recompute();
    reschedule();
    return;
  }
  const Tag tag = done->second.tag;
  tasks_.erase(done);
  recompute();
  reschedule();
  on_complete_(tag);
}

}  // namespace whisk::os
