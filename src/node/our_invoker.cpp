#include "node/our_invoker.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace whisk::node {

OurInvoker::OurInvoker(sim::Engine& engine,
                       const workload::FunctionCatalog& catalog,
                       NodeParams params, sim::Rng rng, DeliveryFn delivery,
                       std::string_view policy)
    : Invoker(engine, catalog, params, rng, std::move(delivery)),
      policy_(core::make_policy(policy, params.policy)),
      history_(params.history_window),
      pool_(params.memory_limit_mb,
            container::make_keep_alive(params.keep_alive)),
      daemon_(engine),
      cpu_(engine,
           os::CpuParams{os::ExecMode::kPinnedCore, params.cores,
                         params.context_switch_beta},
           [this](os::CpuSystem::TaskId task) { on_exec_complete(task); }) {
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

const InvokerStats& OurInvoker::stats() const {
  sync_station_telemetry(pool_, daemon_);
  return stats_;
}

void OurInvoker::on_submit(const workload::CallRequest& call) {
  ++stats_.calls_received;
  metrics::CallRecord rec;
  rec.id = call.id;
  rec.function = call.function;
  rec.node = node_index_;
  rec.release = call.release;
  rec.received = engine_->now();

  // Priority is computed once, now, from node-local history (Sec. IV), and
  // the arrival is recorded afterwards so RECT's r-bar(i) refers to the
  // *previous* call of the same function.
  const core::PolicyContext ctx{rec.received, rec.function, &history_,
                                call.cp_hint};
  const double priority = policy_->priority(ctx);
  history_.record_arrival(rec.function, rec.received);

  pending_.push(priority, PendingCall{rec, priority});
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
  PendingCall pending = pending_.pop();
  metrics::CallRecord& rec = pending.record;
  const auto& spec = catalog_->spec(rec.function);
  const double act = activity();

  container::ContainerId cid = container::kInvalidContainer;
  sim::SimTime init_delay = 0.0;
  // Serialized pre-dispatch management (unpause, cpu-limit bookkeeping).
  double op = ramped_op(params_.our_preop_idle_s, params_.our_preop_loaded_s,
                        params_.our_preop_sigma, act);

  if (auto warm = pool_.acquire_warm(rec.function)) {
    rec.start_kind = metrics::StartKind::kWarm;
    cid = *warm;
  } else if (auto prewarm = pool_.acquire_prewarm()) {
    rec.start_kind = metrics::StartKind::kPrewarm;
    cid = *prewarm;
    pool_.assign_function(cid, rec.function);
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
      // All memory is pinned under busy containers; wait for a release.
      const double priority = pending.priority;
      pending_.push(priority, std::move(pending));
      return false;
    }
    rec.start_kind = metrics::StartKind::kCold;
    cid = *created;
    op += ramped_op(params_.base_create_idle_s, params_.base_create_loaded_s,
                    params_.base_create_sigma, act);
    init_delay = std::clamp(
        sample_lognormal(params_.cold_init_median_s, params_.cold_init_sigma),
        params_.cold_init_min_s, params_.cold_init_max_s);
  }

  switch (rec.start_kind) {
    case metrics::StartKind::kWarm:
      ++stats_.warm_starts;
      break;
    case metrics::StartKind::kPrewarm:
      ++stats_.prewarm_starts;
      break;
    case metrics::StartKind::kCold:
      ++stats_.cold_starts;
      break;
  }

  ++busy_slots_;
  ActiveCall active{rec, cid, engine_->now()};
  // Serialized management op, then (for cold/prewarm starts) the container
  // initialization which delays only this call. Dispatch ops take priority
  // over queued background result/log processing.
  daemon_.submit(op, [this, active = std::move(active), init_delay]() mutable {
    if (dead()) return;
    if (active.record.start_kind == metrics::StartKind::kCold) {
      pool_.finish_creation_busy(active.cid, active.record.function);
    }
    if (init_delay > 0.0) {
      engine_->schedule_in(init_delay,
                           [this, active = std::move(active)]() mutable {
                             begin_exec(std::move(active));
                           });
    } else {
      begin_exec(std::move(active));
    }
  }, /*urgent=*/true);
  return true;
}

void OurInvoker::begin_exec(ActiveCall active) {
  if (dead()) return;
  active.record.exec_start = engine_->now();
  active.record.service =
      catalog_->sample_service(active.record.function, rng_);
  const auto& spec = catalog_->spec(active.record.function);
  const auto task = cpu_.start(scaled(active.record.service), spec.cpu_fraction);
  running_.emplace(task, std::move(active));
}

void OurInvoker::on_exec_complete(os::CpuSystem::TaskId task) {
  if (dead()) return;
  auto it = running_.find(task);
  WHISK_CHECK(it != running_.end(), "completion for unknown task");
  ActiveCall active = std::move(it->second);
  running_.erase(it);

  active.record.exec_end = engine_->now();

  // Serialized post-execution result/log processing, proportional to what
  // the call produced (its execution time). This is the order-dependent
  // bottleneck cost that makes short-first policies win on *average*
  // response time (insight 2 in node/params.h).
  const double act = activity();
  const double exec_s = active.record.exec_end - active.record.exec_start;
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
  history_.record_runtime(active.record.function,
                          engine_->now() - active.dispatch_time + post,
                          engine_->now());

  daemon_.submit(post, [this, active = std::move(active)]() mutable {
    finish_call(std::move(active));
  });
}

void OurInvoker::finish_call(ActiveCall active) {
  if (dead()) return;
  pool_.release(active.cid, engine_->now());
  --busy_slots_;
  resource_blocked_ = false;
  ++stats_.calls_completed;
  active.record.completion = engine_->now();
  deliver(active.record);
  try_dispatch();
}

}  // namespace whisk::node
