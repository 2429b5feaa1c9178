#pragma once

#include <deque>

#include "node/invoker.h"

namespace whisk::node {

// Stock OpenWhisk node-level resource management (paper Sec. III):
//
//   * pending calls are handled in FIFO order;
//   * a request with no matching free-pool container greedily triggers a
//     prewarm take-over or a brand-new container, evicting idle containers
//     of other functions when memory is short (the source of the eviction
//     thrash and cold-start storms of Fig. 2a);
//   * busy concurrency is bounded only by the memory pool, so the OS
//     preempts freely: execution runs under weighted processor sharing with
//     a context-switch penalty (ExecMode::kProportionalShare);
//   * dockerd ops slow down as the live-container count grows
//     (strain_per_container), reproducing the baseline's superlinear
//     degradation at higher core counts / request totals.
class BaselineInvoker final : public Invoker {
 public:
  BaselineInvoker(sim::Engine& engine,
                  const workload::FunctionCatalog& catalog, NodeParams params,
                  sim::Rng rng, DeliveryFn delivery);

  void warmup() override;

  [[nodiscard]] std::size_t queue_length() const override {
    return queue_.size();
  }
  [[nodiscard]] std::size_t executing() const override {
    return cpu_.running();
  }
  [[nodiscard]] std::string_view approach() const override {
    return "baseline";
  }

 private:
  [[nodiscard]] double activity() const {
    return static_cast<double>(cpu_.running()) +
           static_cast<double>(queue_.size()) +
           static_cast<double>(pool_.creating_count());
  }

  void on_submit(Slot slot) override;
  void on_exec_complete(Slot slot) override;

  void process_queue();
  void dispatch(Slot slot, container::ContainerId cid,
                metrics::StartKind kind);
  void replenish_prewarm();

  std::deque<Slot> queue_;
  int prewarm_creating_ = 0;
};

}  // namespace whisk::node
