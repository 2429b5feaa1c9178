#include "node/our_invoker.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace whisk::node {

OurInvoker::OurInvoker(sim::Engine& engine,
                       const workload::FunctionCatalog& catalog,
                       NodeParams params, sim::Rng rng, DeliveryFn delivery,
                       std::string_view policy)
    : Invoker(engine, catalog, params, rng, std::move(delivery),
              os::ExecMode::kPinnedCore),
      policy_(core::make_policy(policy, params.policy)),
      history_(params.history_window) {
  // Our approach keeps a steady container set and leaves dockerd alone
  // between calls, so no live-container strain applies to its ops.

  // FC queries never reach past the configured sliding window, so let the
  // history prune completion timestamps beyond it — bounded memory on
  // arbitrarily long runs.
  history_.register_fc_window(params.policy.fc_window);
}

void OurInvoker::warmup() {
  // Under our invoker the paper's warm-up (c parallel calls per function,
  // Sec. V-A) results in up to `cores` containers per function: each of the
  // c parallel calls is popped into its own slot, finds no warm container
  // and creates one. Administrative: no simulated time passes. The warm-up
  // happens in the minute before the burst, so last_used sits just before
  // t=0: LRU only compares relative order, and TTL keep-alive sees a warm
  // set that is one minute old, not arbitrarily stale.
  const sim::SimTime ancient = -60.0;
  int filled = 0;
  for (int round = 0; round < params_.cores; ++round) {
    for (const auto& spec : catalog_->specs()) {
      auto cid = pool_.begin_creation(spec.memory_mb);
      if (!cid) continue;  // memory exhausted; later rounds may still fail
      pool_.finish_creation_busy(*cid, spec.id);
      // Stagger last_used so LRU eviction order is deterministic.
      pool_.release(*cid, ancient + 0.001 * filled);
      ++filled;
    }
  }
  // Warm-up calls also seed the runtime history: up to min(cores, window)
  // observed processing times per function. The warm-up spans the minute
  // before the measured burst, so its completions sit towards the stale end
  // of FC's sliding window at t=0 and age out during the early burst: FC
  // neither starts blind (all counts zero would degenerate to FIFO) nor
  // holds warm-up counts against rarely-called functions all burst long.
  const int samples =
      std::min(params_.cores, static_cast<int>(params_.history_window));
  const double span = 30.0;
  for (const auto& spec : catalog_->specs()) {
    for (int k = 0; k < samples; ++k) {
      const double when =
          -55.0 + span * static_cast<double>(k) /
                      static_cast<double>(std::max(samples - 1, 1));
      history_.record_runtime(spec.id, catalog_->sample_service(spec.id, rng_),
                              when);
    }
  }
}

void OurInvoker::on_submit(Slot slot) {
  Call& c = call(slot);
  // Priority is computed once, now, from node-local history (Sec. IV), and
  // the arrival is recorded afterwards so RECT's r-bar(i) refers to the
  // *previous* call of the same function.
  const core::PolicyContext ctx{c.received, c.function, &history_, c.cp_hint};
  c.priority = policy_->priority(ctx);
  history_.record_arrival(c.function, c.received);

  pending_.push(c.priority, slot);
  try_dispatch();
}

void OurInvoker::try_dispatch() {
  if (dead()) return;
  // Reclaim idle containers whose keep-alive lapsed before taking any
  // dispatch decision, so a stale warm container cold-starts instead of
  // serving. Free for policies without expiry (lru).
  pool_.sweep_expired(engine_->now());
  // Two gates: the paper's busy-container cap (<= cores) and a shallow
  // daemon backlog. The second keeps the waiting calls in the *priority*
  // queue where the policy can reorder them, instead of burying them in the
  // FIFO management pipeline — the real invoker likewise pops the next call
  // only when it can process it promptly.
  while (!resource_blocked_ && busy_slots_ < params_.cores &&
         daemon_.queue_length() <
             static_cast<std::size_t>(params_.dispatch_daemon_gate) &&
         !pending_.empty()) {
    if (!dispatch_one()) {
      resource_blocked_ = true;
      break;
    }
  }
}

bool OurInvoker::dispatch_one() {
  const Slot slot = pending_.pop();
  Call& c = call(slot);
  const workload::FunctionId function = c.function;
  const auto& spec = catalog_->spec(function);
  const double act = activity();

  container::ContainerId cid = container::kInvalidContainer;
  metrics::StartKind kind = metrics::StartKind::kWarm;
  sim::SimTime init_delay = 0.0;
  // Serialized pre-dispatch management (unpause, cpu-limit bookkeeping).
  double op = ramped_op(params_.our_preop_idle_s, params_.our_preop_loaded_s,
                        params_.our_preop_sigma, act);

  if (auto warm = pool_.acquire_warm(function)) {
    cid = *warm;
  } else if (auto prewarm = pool_.acquire_prewarm()) {
    kind = metrics::StartKind::kPrewarm;
    cid = *prewarm;
    pool_.assign_function(cid, function);
    init_delay = sample_lognormal(params_.prewarm_init_median_s,
                                  params_.prewarm_init_sigma);
  } else {
    // Need a fresh container; the keep-alive policy picks eviction victims
    // if memory is short. (stats() folds the pool's eviction counters in.)
    if (pool_.memory_free_mb() < spec.memory_mb) {
      pool_.evict_idle_until_free(spec.memory_mb);
    }
    auto created = pool_.begin_creation(spec.memory_mb);
    if (!created) {
      // All memory is pinned under busy containers; wait for a release
      // (behind the calls of equal priority already waiting).
      pending_.push(c.priority, slot);
      return false;
    }
    kind = metrics::StartKind::kCold;
    cid = *created;
    op += ramped_op(params_.base_create_idle_s, params_.base_create_loaded_s,
                    params_.base_create_sigma, act);
    init_delay = sample_cold_init();
  }

  ++busy_slots_;
  c.dispatch_time = engine_->now();
  // Serialized management op, then (for cold/prewarm starts) the container
  // initialization which delays only this call. Dispatch ops take priority
  // over queued background result/log processing.
  start_call(slot, cid, kind, op, init_delay, /*urgent=*/true);
  return true;
}

void OurInvoker::on_exec_complete(Slot slot) {
  const Call& c = call(slot);
  // Serialized post-execution result/log processing, proportional to what
  // the call produced (its execution time). This is the order-dependent
  // bottleneck cost that makes short-first policies win on *average*
  // response time (insight 2 in node/params.h).
  const double act = activity();
  const double exec_s = c.exec_end - c.exec_start;
  const double f = params_.ramp(act);
  const double factor =
      params_.our_post_factor_idle +
      (params_.our_post_factor_loaded - params_.our_post_factor_idle) * f;
  const double base = ramped_op(params_.our_post_base_idle_s,
                                params_.our_post_base_loaded_s,
                                params_.our_post_sigma, act);
  const double post =
      base + factor * exec_s * sample_lognormal(1.0, params_.our_post_sigma);

  // The node-level "processing time" the scheduler learns from covers the
  // dispatch decision to the moment the result is processed — the call's
  // own management and execution, but not time spent queued behind other
  // calls' result processing (which would let load leak into E(p) and bias
  // the policies). Never includes network latency (Sec. IV).
  history_.record_runtime(c.function,
                          engine_->now() - c.dispatch_time + post,
                          engine_->now());

  daemon_.submit(post, [this, slot] {
    if (dead()) return;
    --busy_slots_;
    resource_blocked_ = false;
    finish_call(slot);
    try_dispatch();
  });
}

}  // namespace whisk::node
