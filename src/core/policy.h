#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/history.h"
#include "sim/time.h"
#include "workload/function.h"

namespace whisk::core {

// Everything a policy may consult when prioritizing a call.
struct PolicyContext {
  sim::SimTime received = 0.0;  // r'(i): when the invoker pulled the call
  workload::FunctionId function = workload::kInvalidFunction;
  const RuntimeHistory* history = nullptr;
  // Expected remaining critical-path work when the call is a workflow
  // stage (CallRequest::cp_hint); 0 for independent calls. Only
  // DAG-aware policies read it.
  double cp_remaining = 0.0;
};

// A node-level scheduling policy (paper Sec. IV). A policy maps an incoming
// call to a static numeric priority; the invoker serves pending calls in
// ascending priority order (ties broken by arrival). Priorities are
// computed once, when the call is received, and never change — exactly the
// paper's simplification.
//
// Policies are constructed by canonical string name through
// core::PolicyRegistry (see policy_registry.h). The paper's five policies:
//   fifo  priority = r'(i), the receive time
//   sept  priority = E(p(i))
//   eect  priority = r'(i) + E(p(i))
//   rect  priority = r-bar(i) + E(p(i))
//   fc    priority = #(f(i), -T) * E(p(i))
class Policy {
 public:
  virtual ~Policy() = default;

  // Lower priority value = served earlier.
  [[nodiscard]] virtual double priority(const PolicyContext& ctx) const = 0;

  // Canonical registry name ("fifo", "sept", ..., "sjf-aging").
  [[nodiscard]] virtual std::string_view name() const = 0;

  // EECT and RECT are starvation-free (paper Sec. IV); FIFO trivially so.
  [[nodiscard]] virtual bool starvation_free() const = 0;
};

struct PolicyParams {
  // FC's sliding window T ("for T being a long time interval, e.g. 60
  // seconds").
  sim::SimTime fc_window = 60.0;
  // sjf-aging: weight of the receive time relative to E(p(i)). 0 degrades
  // to SEPT (starvation possible); 1 is exactly EECT; small positive values
  // favor short calls while still guaranteeing every call eventually runs.
  double sjf_aging_weight = 0.1;
};

// Uppercased figure label for a canonical policy name ("fifo" -> "FIFO").
[[nodiscard]] std::string policy_label(std::string_view name);

// Construct a policy by any registered name (see core::PolicyRegistry).
[[nodiscard]] std::unique_ptr<Policy> make_policy(std::string_view name,
                                                  PolicyParams params = {});

}  // namespace whisk::core
