#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/engine.h"
#include "sim/time.h"

namespace whisk::os {

// How the node hands CPU to action containers.
enum class ExecMode {
  // The paper's approach (Sec. IV-A): every busy container is assigned
  // exactly one core and the invoker never runs more busy containers than
  // cores, so the OS never preempts. Execution proceeds at nominal speed.
  kPinnedCore,

  // Default OpenWhisk: containers get CPU shares proportional to their
  // memory limits and the OS preempts freely. Modeled as weighted max-min
  // processor sharing plus a context-switch efficiency penalty when the
  // number of CPU-hungry runnable containers exceeds the core count.
  kProportionalShare,
};

struct CpuParams {
  ExecMode mode = ExecMode::kPinnedCore;
  int cores = 1;

  // Context-switch penalty coefficient: with H CPU-hungry runnable tasks on
  // C cores, all CPU progress is scaled by 1 / (1 + beta * max(0, H/C - 1)).
  // Only meaningful in kProportionalShare mode.
  double context_switch_beta = 0.30;
};

// Models the execution of function calls on a node's CPUs.
//
// Each task is one executing call with a warm service requirement `service`
// (seconds on a dedicated core) of which a `cpu_fraction` share is CPU work
// and the rest is I/O that does not contend for cores. Progress speed is
//   1 / ((1 - phi) + phi / (rho * eta))
// where phi is the CPU fraction, rho the core share allocated by weighted
// water-filling (1.0 when pinned) and eta the context-switch efficiency.
//
// The completion callback fires through the simulation engine when a task's
// remaining service reaches zero, with the tag the caller started it under.
class CpuSystem {
 public:
  using Tag = std::uint32_t;
  using CompletionFn = std::function<void(Tag)>;

  CpuSystem(sim::Engine& engine, CpuParams params, CompletionFn on_complete);

  CpuSystem(const CpuSystem&) = delete;
  CpuSystem& operator=(const CpuSystem&) = delete;

  // Begin executing a call; its completion hands `tag` back. `weight`
  // models OpenWhisk's memory-proportional cpu-shares (equal for our
  // homogeneous 256 MB containers).
  void start(Tag tag, double service, double cpu_fraction,
             double weight = 1.0);

  [[nodiscard]] std::size_t running() const { return tasks_.size(); }

  // Sum of core shares currently allocated (<= cores).
  [[nodiscard]] double allocated_cores() const;

  // Busy core-seconds accumulated so far (for utilization reporting).
  [[nodiscard]] double busy_core_seconds() const;

  [[nodiscard]] const CpuParams& params() const { return params_; }

 private:
  // Tasks are keyed by start order, not by tag: the float sums over tasks_
  // follow its bucket order, which depends on the keys.
  using TaskId = std::int64_t;

  struct Task {
    Tag tag;
    double remaining;     // service-seconds still to run
    double cpu_fraction;  // phi
    double weight;
    double speed;  // current progress in service-seconds per second
    double alloc;  // cores currently allocated
  };

  void advance();     // integrate progress from last_update_ to now
  void recompute();   // water-filling + penalty -> speeds
  void reschedule();  // (re)arm the next completion event
  void on_completion_event();

  sim::Engine* engine_;
  CpuParams params_;
  CompletionFn on_complete_;

  std::unordered_map<TaskId, Task> tasks_;
  TaskId next_id_ = 1;
  sim::SimTime last_update_ = 0.0;
  sim::EventId pending_event_ = sim::kInvalidEvent;
  double busy_core_seconds_ = 0.0;
};

}  // namespace whisk::os
