#include "cluster/resilience.h"

#include "util/check.h"
#include "util/table.h"

namespace whisk::cluster {

const std::vector<util::ParamDecl>& resilience_params() {
  static const ResilienceConfig d;
  static const auto* params = new std::vector<util::ParamDecl>{
      {"timeout-s", util::fmt_g(d.timeout_s),
       "per-attempt controller timeout in seconds (0 = disabled)"},
      {"max-attempts", util::fmt_g(d.max_attempts),
       "total submissions per call across timeout retries, hedges and "
       "failure re-submissions (>= 1; requires timeout-s > 0 or "
       "hedge-p > 0, else the bound is 16)"},
      {"retry-budget", util::fmt_g(d.retry_budget),
       "fraction of the workload's calls that may be retried"},
      {"hedge-p", util::fmt_g(d.hedge_p),
       "latency quantile that arms a hedged duplicate (0 = disabled, < 1)"},
      {"hedge-min-samples", util::fmt_g(d.hedge_min_samples),
       "observed completions required before hedging arms"},
      {"breaker-failures", util::fmt_g(d.breaker_failures),
       "consecutive per-node timeouts that open the circuit breaker "
       "(0 = disabled; requires timeout-s > 0)"},
      {"breaker-cooldown-s", util::fmt_g(d.breaker_cooldown_s),
       "seconds an open breaker waits before a half-open probe"},
      {"max-queue", util::fmt_g(d.max_queue),
       "per-node depth above which saturated fleets shed (0 = disabled)"},
  };
  return *params;
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
  // Reading every knob first makes a non-numeric value die with the
  // standard diagnostic before any range text.
  const ResilienceConfig c = out.config();
  WHISK_CHECK(c.timeout_s >= 0.0, "resilience: timeout-s must be >= 0");
  WHISK_CHECK(c.max_attempts >= 1, "resilience: max-attempts must be >= 1");
  WHISK_CHECK(c.retry_budget >= 0.0, "resilience: retry-budget must be >= 0");
  WHISK_CHECK(c.hedge_p >= 0.0 && c.hedge_p < 1.0,
              "resilience: hedge-p must be in [0, 1) — it is a latency "
              "quantile, 0 disables hedging");
  WHISK_CHECK(!out.has("max-attempts") || c.timeout_s > 0.0 || c.hedge_p > 0.0,
              "resilience: max-attempts needs timeout-s > 0 or "
              "hedge-p > 0 — without them failure re-submission keeps "
              "its fixed bound of 16");
  WHISK_CHECK(c.hedge_min_samples >= 2,
              "resilience: hedge-min-samples must be >= 2");
  WHISK_CHECK(c.breaker_failures == 0 || c.timeout_s > 0.0,
              "resilience: breaker-failures needs timeout-s > 0 — "
              "timeouts are the breaker's failure signal");
  WHISK_CHECK(c.breaker_cooldown_s > 0.0,
              "resilience: breaker-cooldown-s must be > 0");
  return out;
}

ResilienceConfig ResilienceSpec::config() const {
  ResilienceConfig c;
  c.timeout_s = number("timeout-s", c.timeout_s);
  c.max_attempts = count("max-attempts", c.max_attempts);
  c.retry_budget = number("retry-budget", c.retry_budget);
  c.hedge_p = number("hedge-p", c.hedge_p);
  c.hedge_min_samples = count("hedge-min-samples", c.hedge_min_samples);
  c.breaker_failures = count("breaker-failures", c.breaker_failures);
  c.breaker_cooldown_s = number("breaker-cooldown-s", c.breaker_cooldown_s);
  c.max_queue = count("max-queue", c.max_queue);
  return c;
}

}  // namespace whisk::cluster
