#pragma once

#include <memory>

#include "core/history.h"
#include "core/pending_queue.h"
#include "core/policy.h"
#include "node/invoker.h"

namespace whisk::node {

// The paper's node-level resource manager (Sec. IV):
//
//   * pending calls wait in a priority queue keyed by the selected policy
//     (FIFO / SEPT / EECT / RECT / FC), priorities computed once on receive
//     from node-local history;
//   * at most `cores` containers are busy at any time and each busy
//     container owns exactly one core (ExecMode::kPinnedCore), eliminating
//     OS preemption;
//   * per-dispatch container management serializes through the node's
//     Docker daemon station.
//
// With sufficient memory the warm-up set (cores containers per function)
// never gets evicted and the node performs zero cold starts (Sec. VI).
class OurInvoker final : public Invoker {
 public:
  // `policy` is any name registered with core::PolicyRegistry ("fifo",
  // "sept", "eect", "rect", "fc", "sjf-aging", ...).
  OurInvoker(sim::Engine& engine, const workload::FunctionCatalog& catalog,
             NodeParams params, sim::Rng rng, DeliveryFn delivery,
             std::string_view policy);

  void warmup() override;

  [[nodiscard]] std::size_t queue_length() const override {
    return pending_.size();
  }
  [[nodiscard]] std::size_t executing() const override {
    return static_cast<std::size_t>(busy_slots_);
  }
  [[nodiscard]] std::string_view approach() const override { return "our"; }

  [[nodiscard]] std::string_view policy_name() const {
    return policy_->name();
  }

  // Introspection for tests and telemetry.
  [[nodiscard]] const core::RuntimeHistory& history() const {
    return history_;
  }

 private:
  // Current in-flight activity driving the idle->loaded management ramp.
  [[nodiscard]] double activity() const {
    return static_cast<double>(busy_slots_) +
           static_cast<double>(pending_.size());
  }

  void on_submit(Slot slot) override;
  void on_exec_complete(Slot slot) override;

  void try_dispatch();
  // Returns false when the node is resource-blocked (memory too small for
  // another container and nothing evictable).
  bool dispatch_one();

  std::unique_ptr<core::Policy> policy_;
  core::RuntimeHistory history_;
  core::PendingQueue<Slot> pending_;

  int busy_slots_ = 0;
  bool resource_blocked_ = false;
};

}  // namespace whisk::node
