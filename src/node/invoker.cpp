#include "node/invoker.h"

#include <utility>

namespace whisk::node {

Invoker::Invoker(sim::Engine& engine, const workload::FunctionCatalog& catalog,
                 NodeParams params, sim::Rng rng, DeliveryFn delivery,
                 os::ExecMode exec_mode)
    : engine_(&engine),
      catalog_(&catalog),
      params_(params),
      rng_(rng),
      pool_(params.memory_limit_mb,
            container::make_keep_alive(params.keep_alive)),
      daemon_(engine),
      cpu_(engine,
           os::CpuParams{exec_mode, params.cores, params.context_switch_beta},
           [this](Slot slot) {
             if (dead()) return;
             calls_[slot].exec_end = engine_->now();
             on_exec_complete(slot);
           }),
      delivery_(std::move(delivery)) {}

void Invoker::submit(const workload::CallRequest& call) {
  WHISK_CHECK(!failed_, "submit to a failed node");
  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(calls_.size());
    calls_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  calls_[slot] = Call{.id = call.id, .function = call.function,
                      .release = call.release, .received = engine_->now(),
                      .cp_hint = call.cp_hint};
  ++stats_.calls_received;
  if (track_in_flight_) in_flight_.emplace(call.id, slot);
  on_submit(slot);
}

void Invoker::start_call(Slot slot, container::ContainerId cid,
                         metrics::StartKind kind, double op,
                         sim::SimTime init_delay, bool urgent) {
  Call& c = calls_[slot];
  c.start_kind = kind;
  c.cid = cid;
  c.init_delay = init_delay;
  switch (kind) {
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
  daemon_.submit(op, [this, slot] {
    if (dead()) return;
    Call& c = calls_[slot];
    if (c.start_kind == metrics::StartKind::kCold) {
      pool_.finish_creation_busy(c.cid, c.function);
    }
    if (c.init_delay > 0.0) {
      engine_->schedule_in(c.init_delay, [this, slot] { begin_exec(slot); });
    } else {
      begin_exec(slot);
    }
  }, urgent);
}

void Invoker::begin_exec(Slot slot) {
  if (dead()) return;
  Call& c = calls_[slot];
  c.exec_start = engine_->now();
  c.service = catalog_->sample_service(c.function, rng_);
  const auto& spec = catalog_->spec(c.function);
  // OpenWhisk assigns CPU shares proportional to container memory; with our
  // homogeneous 256 MB actions the weights are equal (and a pinned core
  // ignores them).
  cpu_.start(slot, scaled(c.service), spec.cpu_fraction,
             spec.memory_mb / 256.0);
}

void Invoker::finish_call(Slot slot) {
  const Call& c = calls_[slot];
  pool_.release(c.cid, engine_->now());
  ++stats_.calls_completed;
  const metrics::CallRecord record{
      .id = c.id, .function = c.function, .node = node_index_,
      .release = c.release, .received = c.received,
      .exec_start = c.exec_start, .exec_end = c.exec_end,
      .completion = engine_->now(), .service = c.service,
      .start_kind = c.start_kind};
  free_slots_.push_back(slot);
  // The id leaves the in-flight set before the delivery callback runs, so
  // the cluster's drain check sees this call as gone.
  if (track_in_flight_) in_flight_.erase(record.id);
  delivery_(record);
}

std::vector<workload::CallRequest> Invoker::shutdown() {
  WHISK_CHECK(!failed_, "node failed twice");
  WHISK_CHECK(track_in_flight_,
              "shutdown without in-flight tracking enabled");
  failed_ = true;
  std::vector<workload::CallRequest> lost;
  lost.reserve(in_flight_.size());
  for (const auto& [id, slot] : in_flight_) {
    const Call& c = calls_[slot];
    lost.push_back(
        workload::CallRequest{id, c.function, c.release, c.cp_hint});
  }
  std::sort(lost.begin(), lost.end(),
            [](const workload::CallRequest& a,
               const workload::CallRequest& b) { return a.id < b.id; });
  stats_.calls_lost += lost.size();
  in_flight_.clear();
  return lost;
}

const InvokerStats& Invoker::stats() const {
  stats_.evictions = pool_.evictions();
  stats_.expirations = pool_.expirations();
  stats_.daemon_busy_seconds = daemon_.busy_seconds();
  stats_.daemon_max_queue_length = daemon_.max_queue_length();
  stats_.daemon_queue_wait_seconds = daemon_.queue_wait_seconds();
  stats_.daemon_max_queue_wait_seconds = daemon_.max_queue_wait_seconds();
  return stats_;
}

}  // namespace whisk::node
