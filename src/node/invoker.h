#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "container/docker_daemon.h"
#include "container/pool.h"
#include "metrics/record.h"
#include "node/params.h"
#include "os/cpu_system.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "util/check.h"
#include "workload/function.h"
#include "workload/scenario.h"

namespace whisk::node {

// Counters every invoker maintains for the cold-start experiment (Fig. 2)
// and general telemetry. Start-kind counts cover only measured calls;
// warm-up is excluded, as in the paper. The daemon_* fields mirror the
// node's DockerDaemon station telemetry (synced on stats()), so daemon
// contention is visible per cell in sweeps without reaching into the
// invoker internals.
struct InvokerStats {
  std::size_t calls_received = 0;
  std::size_t calls_completed = 0;
  std::size_t calls_lost = 0;  // in flight when the node failed
  std::size_t cold_starts = 0;
  std::size_t prewarm_starts = 0;
  std::size_t warm_starts = 0;
  std::size_t evictions = 0;          // memory-pressure victims
  std::size_t expirations = 0;        // keep-alive lapses (ttl sweeps)
  double daemon_busy_seconds = 0.0;
  std::size_t daemon_max_queue_length = 0;
  double daemon_queue_wait_seconds = 0.0;      // sum over started ops
  double daemon_max_queue_wait_seconds = 0.0;  // single worst wait

  // Fold another node's (or cell's) counters into this rollup: counts and
  // seconds add, high-water marks take the max. The single spot that
  // knows which is which — every aggregator goes through here.
  void merge(const InvokerStats& other) {
    calls_received += other.calls_received;
    calls_completed += other.calls_completed;
    calls_lost += other.calls_lost;
    cold_starts += other.cold_starts;
    prewarm_starts += other.prewarm_starts;
    warm_starts += other.warm_starts;
    evictions += other.evictions;
    expirations += other.expirations;
    daemon_busy_seconds += other.daemon_busy_seconds;
    daemon_max_queue_length =
        std::max(daemon_max_queue_length, other.daemon_max_queue_length);
    daemon_queue_wait_seconds += other.daemon_queue_wait_seconds;
    daemon_max_queue_wait_seconds = std::max(
        daemon_max_queue_wait_seconds, other.daemon_max_queue_wait_seconds);
  }
};

// A worker node's resource manager. Two implementations:
//   * BaselineInvoker — stock OpenWhisk (Sec. III): FIFO handling, greedy
//     container creation bounded by memory, memory-proportional CPU shares.
//   * OurInvoker — the paper's approach (Sec. IV): policy priority queue,
//     busy containers capped at the core count, one core per container.
//
// The invoker's `submit` is called at the moment the request is pulled from
// Kafka (r'(i)); `delivery` fires when the response leaves the node, with
// exec_* timestamps and the start kind filled in. The cluster layer adds the
// return-path latency and stamps c(i).
//
// The base owns everything the two managers share: the node's container
// pool, Docker daemon station and CPU model (built once, in the ExecMode the
// subclass passes), a call table holding each received call in one slot from
// submit to delivery, and the call pipeline
//   start_call (daemon op, then container init) -> execution on the CPU ->
//   on_exec_complete (the subclass's post-processing) -> finish_call.
// A subclass keeps only its policy: the pending queue (on_submit), the
// container choice and op/init draws ending in start_call, the
// post-processing ending in finish_call, and the warm-up.
//
// Node lifecycle: a node is live until the cluster fails it via shutdown(),
// which returns every call received but not yet delivered (so the
// controller can re-submit them) and turns all of the node's future engine
// callbacks into no-ops. Draining is a cluster-level routing decision — a
// draining node simply stops receiving new submits and finishes its
// backlog through the normal path.
class Invoker {
 public:
  using DeliveryFn = std::function<void(const metrics::CallRecord&)>;

  Invoker(sim::Engine& engine, const workload::FunctionCatalog& catalog,
          NodeParams params, sim::Rng rng, DeliveryFn delivery,
          os::ExecMode exec_mode);

  virtual ~Invoker() = default;
  Invoker(const Invoker&) = delete;
  Invoker& operator=(const Invoker&) = delete;

  // Pre-populate the node as the paper's warm-up phase does: up to `cores`
  // containers per function (memory permitting) and a primed runtime
  // history. Administrative: costs no simulated time and no cold-start
  // counts.
  virtual void warmup() = 0;

  // Receive a call (now == r'(i)): stamp its record into a free slot and
  // hand the slot to the implementation's on_submit. With in-flight
  // tracking enabled the call id is also remembered until delivery so a
  // failure can return it.
  void submit(const workload::CallRequest& call);

  // Opt in to per-call in-flight bookkeeping (one hash-map insert + erase
  // per call). The cluster enables it only on deployments that schedule
  // drain/fail events, so the common churn-free run pays nothing.
  void enable_in_flight_tracking() { track_in_flight_ = true; }
  [[nodiscard]] bool tracks_in_flight() const { return track_in_flight_; }

  // Fail the node: every future callback of this invoker becomes a no-op
  // and the calls received but not yet delivered are returned (ordered by
  // call id) for the controller to re-submit. Requires in-flight tracking;
  // idempotent-hostile on purpose: failing a node twice is a caller bug
  // and aborts.
  [[nodiscard]] std::vector<workload::CallRequest> shutdown();

  [[nodiscard]] bool failed() const { return failed_; }
  // Call ids received and not yet delivered (queued, executing, or in
  // post-processing). The first copy of an id enters the set and any
  // delivery of that id leaves it. Always 0 when tracking is disabled.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  [[nodiscard]] virtual std::size_t queue_length() const = 0;
  [[nodiscard]] virtual std::size_t executing() const = 0;
  [[nodiscard]] virtual std::string_view approach() const = 0;

  // The counters, with the pool and daemon-station telemetry folded in.
  [[nodiscard]] const InvokerStats& stats() const;
  [[nodiscard]] const NodeParams& params() const { return params_; }

  // Introspection for tests and telemetry.
  [[nodiscard]] const container::ContainerPool& pool() const { return pool_; }
  [[nodiscard]] const container::DockerDaemon& daemon() const {
    return daemon_;
  }

  // Node index stamped into call records (set by the cluster layer).
  void set_node_index(int index) { node_index_ = index; }
  [[nodiscard]] int node_index() const { return node_index_; }

  // Straggler control (slow-node fault): every sampled duration — service
  // times and management ops alike — is multiplied by `factor`. 1.0 is
  // nominal speed; already-running executions keep their sampled length,
  // only durations drawn after the change are affected.
  void set_speed_factor(double factor) {
    WHISK_CHECK(factor >= 1.0, "speed factor must be >= 1");
    speed_factor_ = factor;
  }
  [[nodiscard]] double speed_factor() const { return speed_factor_; }

 protected:
  // Index of a call in the call table; also the CPU task's tag.
  using Slot = os::CpuSystem::Tag;

  // One received call, from submit to delivery. It holds only what the
  // node stamps (finish_call builds the delivered metrics::CallRecord from
  // it), because the table keeps a slot per call the node holds at once.
  struct Call {
    workload::CallId id = -1;
    workload::FunctionId function = workload::kInvalidFunction;
    metrics::StartKind start_kind = metrics::StartKind::kWarm;
    sim::SimTime release = 0.0;
    sim::SimTime received = 0.0;
    sim::SimTime exec_start = 0.0;
    sim::SimTime exec_end = 0.0;
    sim::SimTime service = 0.0;
    double cp_hint = 0.0;  // the request's, returned by shutdown()
    container::ContainerId cid = container::kInvalidContainer;
    sim::SimTime init_delay = 0.0;  // container init after the daemon op
    // OurInvoker's: the policy priority, computed once on receive, and the
    // time the call left the pending queue.
    double priority = 0.0;
    sim::SimTime dispatch_time = 0.0;
  };

  // Implementation hooks: a call was received into `slot`, and its
  // execution ended (exec_end is stamped). on_exec_complete must end
  // in finish_call, directly or after post-processing.
  virtual void on_submit(Slot slot) = 0;
  virtual void on_exec_complete(Slot slot) = 0;

  [[nodiscard]] Call& call(Slot slot) { return calls_[slot]; }

  // Count the start kind and run the call's pipeline: the daemon op of
  // `op` base seconds (urgent ops jump background ones), then
  // `init_delay` of container init, then execution on the CPU.
  void start_call(Slot slot, container::ContainerId cid,
                  metrics::StartKind kind, double op, sim::SimTime init_delay,
                  bool urgent);

  // Release the call's container, free its slot, drop its id from the
  // in-flight set, then deliver its record, stamped complete now.
  void finish_call(Slot slot);

  // True once shutdown() ran; every engine callback re-entering the
  // invoker checks this first and bails.
  [[nodiscard]] bool dead() const { return failed_; }

  // Lognormal sample around `median` with spread `sigma`, stretched by the
  // current straggler factor.
  double sample_lognormal(double median, double sigma) {
    return scaled(rng_.lognormal(std::log(median), sigma));
  }

  // A cold container's init time: lognormal, clamped to its envelope.
  double sample_cold_init() {
    return std::clamp(sample_lognormal(params_.cold_init_median_s,
                                       params_.cold_init_sigma),
                      params_.cold_init_min_s, params_.cold_init_max_s);
  }

  // Apply the straggler factor to a duration that bypasses
  // sample_lognormal (pre-sampled service times handed to the CPU). The
  // multiply-by-1.0 is IEEE-exact, so fault-free runs stay byte-identical.
  [[nodiscard]] double scaled(double duration) const {
    return duration * speed_factor_;
  }

  // Idle->loaded interpolated op duration for the current activity level.
  double ramped_op(double idle_median, double loaded_median, double sigma,
                   double activity) {
    const double f = params_.ramp(activity);
    const double median = idle_median + (loaded_median - idle_median) * f;
    return sample_lognormal(median, sigma);
  }

  sim::Engine* engine_;
  const workload::FunctionCatalog* catalog_;
  NodeParams params_;
  sim::Rng rng_;
  container::ContainerPool pool_;
  container::DockerDaemon daemon_;
  os::CpuSystem cpu_;
  int node_index_ = 0;

 private:
  void begin_exec(Slot slot);

  DeliveryFn delivery_;
  mutable InvokerStats stats_;
  // The call table: chunked, so a Call& stays valid while slots are added.
  std::deque<Call> calls_;
  std::vector<Slot> free_slots_;
  // Call id -> the slot of its first received copy.
  std::unordered_map<workload::CallId, Slot> in_flight_;
  double speed_factor_ = 1.0;
  bool failed_ = false;
  bool track_in_flight_ = false;
};

}  // namespace whisk::node
