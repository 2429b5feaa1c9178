#include "cluster/resilience.h"

#include "util/check.h"

namespace whisk::cluster {

const std::vector<util::ParamDecl>& resilience_params() {
  static const auto* params = new std::vector<util::ParamDecl>{
      {"timeout-s", "0",
       "per-attempt controller timeout in seconds (0 = disabled)"},
      {"max-attempts", "4",
       "total submissions per call across timeout retries, hedges and "
       "failure re-submissions (>= 1; requires timeout-s > 0 or "
       "hedge-p > 0, else the bound is 16)"},
      {"retry-budget", "0.2",
       "fraction of the workload's calls that may be retried"},
      {"hedge-p", "0",
       "latency quantile that arms a hedged duplicate (0 = disabled, < 1)"},
      {"hedge-min-samples", "32",
       "observed completions required before hedging arms"},
      {"breaker-failures", "0",
       "consecutive per-node timeouts that open the circuit breaker "
       "(0 = disabled; requires timeout-s > 0)"},
      {"breaker-cooldown-s", "30",
       "seconds an open breaker waits before a half-open probe"},
      {"max-queue", "0",
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
  // Range checks go through the typed getters so a non-numeric value dies
  // with the standard diagnostic before the range text.
  const double timeout = out.number("timeout-s", 0.0);
  WHISK_CHECK(timeout >= 0.0, "resilience: timeout-s must be >= 0");
  const std::size_t attempts = out.count("max-attempts", 4);
  WHISK_CHECK(attempts >= 1, "resilience: max-attempts must be >= 1");
  const double budget = out.number("retry-budget", 0.2);
  WHISK_CHECK(budget >= 0.0, "resilience: retry-budget must be >= 0");
  const double hedge_p = out.number("hedge-p", 0.0);
  WHISK_CHECK(hedge_p >= 0.0 && hedge_p < 1.0,
              "resilience: hedge-p must be in [0, 1) — it is a latency "
              "quantile, 0 disables hedging");
  if (out.has("max-attempts")) {
    WHISK_CHECK(timeout > 0.0 || hedge_p > 0.0,
                "resilience: max-attempts needs timeout-s > 0 or "
                "hedge-p > 0 — without them failure re-submission keeps "
                "its fixed bound of 16");
  }
  WHISK_CHECK(out.count("hedge-min-samples", 32) >= 2,
              "resilience: hedge-min-samples must be >= 2");
  const std::size_t breaker = out.count("breaker-failures", 0);
  if (breaker > 0) {
    WHISK_CHECK(timeout > 0.0,
                "resilience: breaker-failures needs timeout-s > 0 — "
                "timeouts are the breaker's failure signal");
  }
  WHISK_CHECK(out.number("breaker-cooldown-s", 30.0) > 0.0,
              "resilience: breaker-cooldown-s must be > 0");
  return out;
}

}  // namespace whisk::cluster
