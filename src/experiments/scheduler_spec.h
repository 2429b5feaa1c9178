#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace whisk::experiments {

// One scheduler under test, as three registry names: which node-level
// resource manager runs ("baseline", "ours", ...), which policy orders its
// pending queue, and how the controller spreads calls over workers. An
// open, declarative value type:
//
//   auto spec = SchedulerSpec::parse("ours/sept/round-robin");
//   spec.to_string()  -> "ours/sept/round-robin"
//   spec.label()      -> "SEPT"   (the paper's figure label)
//
// parse() accepts "invoker", "invoker/policy" or "invoker/policy/balancer";
// omitted components keep their defaults. Components are validated against
// the three registries and normalized to canonical names (lowercase,
// aliases resolved), so parse(to_string()) round-trips exactly.
struct SchedulerSpec {
  std::string invoker = "ours";
  std::string policy = "fifo";
  std::string balancer = "round-robin";

  [[nodiscard]] static SchedulerSpec parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  // The paper's figure label: "baseline" for the stock invoker, else the
  // uppercased policy name ("FIFO", "SEPT", ..., "SJF-AGING").
  [[nodiscard]] std::string label() const;

  // Abort with a name-listing error if any component is unknown; returns
  // a copy with every component replaced by its canonical name.
  [[nodiscard]] SchedulerSpec normalized() const;

  friend bool operator==(const SchedulerSpec& a, const SchedulerSpec& b) {
    return a.invoker == b.invoker && a.policy == b.policy &&
           a.balancer == b.balancer;
  }
  friend bool operator!=(const SchedulerSpec& a, const SchedulerSpec& b) {
    return !(a == b);
  }
};

// baseline, FIFO, SEPT, EECT, RECT, FC — the order of the paper's figures.
[[nodiscard]] const std::vector<SchedulerSpec>& paper_schedulers();

}  // namespace whisk::experiments
