#include "cluster/resilience.h"

#include "util/check.h"

namespace whisk::cluster {

const std::vector<util::ParamDecl>& resilience_params() {
  using util::count_param;
  using util::number_param;
  static const auto* params = new std::vector<util::ParamDecl>{
      number_param("timeout-s", 0, ">= 0",
                   "per-attempt controller timeout in seconds (0 = "
                   "disabled)"),
      count_param("max-attempts", 4, ">= 1",
                  "total submissions per call across timeout retries, "
                  "hedges and failure re-submissions (>= 1; requires "
                  "timeout-s > 0 or hedge-p > 0, else the bound is 16)"),
      number_param("retry-budget", 0.2, ">= 0",
                   "fraction of the workload's calls that may be retried"),
      number_param("hedge-p", 0, "[0, 1)",
                   "latency quantile that arms a hedged duplicate (0 = "
                   "disabled, < 1)"),
      count_param("hedge-min-samples", 32, ">= 2",
                  "observed completions required before hedging arms"),
      count_param("breaker-failures", 0, "",
                  "consecutive per-node timeouts that open the circuit "
                  "breaker (0 = disabled; requires timeout-s > 0)"),
      number_param("breaker-cooldown-s", 30, "> 0",
                   "seconds an open breaker waits before a half-open probe"),
      count_param("max-queue", 0, "",
                  "per-node depth above which saturated fleets shed (0 = "
                  "disabled)"),
  };
  return *params;
}

ResilienceConfig::ResilienceConfig(const util::ParamMap& params) {
  const util::ParamReader knobs{params, resilience_params(), "resilience", {}};
  timeout_s = knobs.number("timeout-s");
  max_attempts = knobs.count("max-attempts");
  retry_budget = knobs.number("retry-budget");
  hedge_p = knobs.number("hedge-p");
  hedge_min_samples = knobs.count("hedge-min-samples");
  breaker_failures = knobs.count("breaker-failures");
  breaker_cooldown_s = knobs.number("breaker-cooldown-s");
  max_queue = knobs.count("max-queue");
}

ResilienceSpec ResilienceSpec::parse(std::string_view text) {
  ResilienceSpec spec;
  const std::string_view trimmed = util::trim_ws(text);
  if (trimmed.empty() || util::ascii_lower(trimmed) == "none") {
    return spec;
  }
  util::parse_param_list(trimmed,
                         "resilience spec \"" + std::string(text) + "\"",
                         &spec.params);
  return spec.normalized();
}

std::string ResilienceSpec::to_string() const {
  // The idiom's "name?params" rendering, minus the name and its '?'.
  return params.empty() ? "none" : util::render_params("", params).substr(1);
}

ResilienceSpec ResilienceSpec::normalized() const {
  ResilienceSpec out;
  out.params = util::fold_params(params, resilience_params(),
                                 "resilience spec", {});
  out.reader().check();
  const ResilienceConfig c = out.config();
  WHISK_CHECK(!out.has("max-attempts") || c.timeout_s > 0.0 || c.hedge_p > 0.0,
              "resilience: max-attempts needs timeout-s > 0 or "
              "hedge-p > 0 — without them failure re-submission keeps "
              "its fixed bound of 16");
  WHISK_CHECK(c.breaker_failures == 0 || c.timeout_s > 0.0,
              "resilience: breaker-failures needs timeout-s > 0 — "
              "timeouts are the breaker's failure signal");
  return out;
}

}  // namespace whisk::cluster
