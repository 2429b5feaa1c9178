#include "node/baseline_invoker.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace whisk::node {

BaselineInvoker::BaselineInvoker(sim::Engine& engine,
                                 const workload::FunctionCatalog& catalog,
                                 NodeParams params, sim::Rng rng,
                                 DeliveryFn delivery)
    : Invoker(engine, catalog, params, rng, std::move(delivery),
              os::ExecMode::kProportionalShare) {
  // Dockerd strains as it juggles more live containers; the baseline churns
  // the container set constantly, so all its serialized ops slow down with
  // the container count (Sec. VI: at 128 GiB "Docker had problems running
  // them").
  daemon_.set_load_factor([this] {
    return 1.0 + params_.strain_per_container *
                     static_cast<double>(pool_.total_containers());
  });
}

void BaselineInvoker::warmup() {
  // The paper's warm-up issues c parallel calls per function, but the stock
  // invoker queues requests that arrive while others are pending: queued
  // warm-up calls of a *fast* function simply reuse the first container
  // once it is up, so short functions end the warm-up with only one or two
  // containers, while long functions get close to c. This under-warming of
  // short functions is what seeds the baseline's cold starts during the
  // measured burst (Fig. 2a). We reproduce the outcome administratively:
  //   containers(f) ~= ceil(c * s_f / (s_f + overlap)),
  // with s_f the function's warm service time and `overlap` the effective
  // container-creation latency. The stamps sit just before t=0 (the
  // warm-up's minute), keeping TTL keep-alive from treating the warm set
  // as arbitrarily stale; LRU only uses the relative order.
  const sim::SimTime ancient = -60.0;
  int filled = 0;
  for (const auto& spec : catalog_->specs()) {
    const double s = spec.warm_median_ms() / 1000.0;
    const double frac = s / (s + params_.warmup_creation_overlap_s);
    const int want = std::clamp(
        static_cast<int>(params_.cores * frac) + 1, 1, params_.cores);
    for (int k = 0; k < want; ++k) {
      auto cid = pool_.begin_creation(spec.memory_mb);
      if (!cid) break;
      pool_.finish_creation_busy(*cid, spec.id);
      pool_.release(*cid, ancient + 0.001 * filled);
      ++filled;
    }
  }
  for (int k = 0; k < params_.prewarm_target; ++k) {
    auto cid = pool_.begin_creation(256.0);
    if (!cid) break;
    pool_.finish_creation_prewarm(*cid);
  }
}

void BaselineInvoker::on_submit(Slot slot) {
  queue_.push_back(slot);
  process_queue();
}

void BaselineInvoker::process_queue() {
  if (dead()) return;
  // Reclaim keep-alive-lapsed idle containers before any pool decision
  // (free for policies without expiry).
  pool_.sweep_expired(engine_->now());
  while (!queue_.empty()) {
    const Slot slot = queue_.front();
    const workload::FunctionId function = call(slot).function;
    const auto& spec = catalog_->spec(function);

    // 1. Free-pool container initialized with this function.
    if (auto warm = pool_.acquire_warm(function)) {
      queue_.pop_front();
      dispatch(slot, *warm, metrics::StartKind::kWarm);
      continue;
    }
    // 2. Prewarm container (runtime up, function injected on demand).
    if (auto prewarm = pool_.acquire_prewarm()) {
      queue_.pop_front();
      pool_.assign_function(*prewarm, function);
      dispatch(slot, *prewarm, metrics::StartKind::kPrewarm);
      continue;
    }
    // 3. Create a new container, evicting idle ones (keep-alive policy's
    // pick) if memory is short.
    if (pool_.memory_free_mb() < spec.memory_mb) {
      pool_.evict_idle_until_free(spec.memory_mb);
    }
    if (auto created = pool_.begin_creation(spec.memory_mb)) {
      queue_.pop_front();
      dispatch(slot, *created, metrics::StartKind::kCold);
      continue;
    }
    // 4. Memory exhausted and nothing evictable: the call stays queued
    // (head-of-line) until a container is released.
    break;
  }
}

void BaselineInvoker::dispatch(Slot slot, container::ContainerId cid,
                               metrics::StartKind kind) {
  const double act = activity();
  double op = ramped_op(params_.base_dispatch_idle_s,
                        params_.base_dispatch_loaded_s,
                        params_.base_dispatch_sigma, act);
  sim::SimTime init_delay = 0.0;
  if (kind == metrics::StartKind::kPrewarm) {
    init_delay = sample_lognormal(params_.prewarm_init_median_s,
                                  params_.prewarm_init_sigma);
    replenish_prewarm();
  } else if (kind == metrics::StartKind::kCold) {
    op += ramped_op(params_.base_create_idle_s, params_.base_create_loaded_s,
                    params_.base_create_sigma, act);
    init_delay = sample_cold_init();
  }
  start_call(slot, cid, kind, op, init_delay, /*urgent=*/false);
}

void BaselineInvoker::on_exec_complete(Slot slot) {
  const double post =
      ramped_op(params_.base_post_idle_s, params_.base_post_loaded_s,
                params_.base_post_sigma, activity());
  engine_->schedule_in(post, [this, slot] {
    if (dead()) return;
    finish_call(slot);
    // The stock invoker pauses the now-idle container; the op consumes the
    // daemon but blocks nobody directly (the container can still be claimed
    // while the pause is queued).
    daemon_.submit(ramped_op(params_.base_pause_idle_s,
                             params_.base_pause_loaded_s,
                             params_.base_pause_sigma, activity()),
                   [] {});
    process_queue();
  });
}

void BaselineInvoker::replenish_prewarm() {
  if (static_cast<int>(pool_.prewarm_count()) + prewarm_creating_ >=
      params_.prewarm_target) {
    return;
  }
  auto cid = pool_.begin_creation(256.0);
  if (!cid) return;
  ++prewarm_creating_;
  const double op = ramped_op(params_.base_create_idle_s,
                              params_.base_create_loaded_s,
                              params_.base_create_sigma, activity());
  const double init = sample_cold_init();
  daemon_.submit(op, [this, cid = *cid, init] {
    if (dead()) return;
    engine_->schedule_in(init, [this, cid] {
      if (dead()) return;
      pool_.finish_creation_prewarm(cid);
      --prewarm_creating_;
      process_queue();
    });
  });
}

}  // namespace whisk::node
