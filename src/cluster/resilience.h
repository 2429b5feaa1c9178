#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/component_spec.h"

namespace whisk::cluster {

// Every knob the controller-side resilience layer understands, declared
// once with its default, its range and the value that disables it. A knob
// left at its default is off, so an empty spec is exactly the
// pre-resilience controller.
[[nodiscard]] const std::vector<util::ParamDecl>& resilience_params();

// The typed knob values of a parameter map, each read through its
// resilience_params() declaration (the declared default where unset); a
// default config is the pre-resilience controller.
struct ResilienceConfig {
  ResilienceConfig() : ResilienceConfig(util::ParamMap{}) {}
  explicit ResilienceConfig(const util::ParamMap& params);

  double timeout_s;
  std::size_t max_attempts;
  double retry_budget;
  double hedge_p;
  std::size_t hedge_min_samples;
  std::size_t breaker_failures;
  double breaker_cooldown_s;
  std::size_t max_queue;

  friend bool operator==(const ResilienceConfig&,
                         const ResilienceConfig&) = default;
};

// The controller-side recovery policy of a deployment — the defensive
// mirror of the `faults=` section, carried as `resilience=` in ClusterSpec:
//
//   auto spec = ResilienceSpec::parse("timeout-s=2&max-attempts=3&hedge-p=0.95");
//   spec.to_string()  -> "hedge-p=0.95&max-attempts=3&timeout-s=2"
//
// Grammar: "none" (or empty) for no policy, else key=value[&key=value]...
// with case-insensitive keys stored sorted, so to_string() is canonical and
// parse(to_string()) round-trips. Unlike faults there is no registry of
// named policies: the mechanisms (timeout+retry, hedging, breaker,
// shedding) compose, so the spec is one flat parameter set and each
// mechanism arms only when its gating knob moves off the default.
//
// Knobs (see resilience_params() for the authoritative list):
//   timeout-s          per-attempt controller timeout; 0 disables. Expired
//                      attempts retry with deterministic exponential backoff
//                      (base = kResubmitDelayS in cluster.h, doubling per
//                      retry) until max-attempts or the retry budget runs out,
//                      then the call is recorded with a `dropped` disposition.
//   max-attempts       total submissions per call across timeout retries,
//                      hedges and failure re-submissions (>= 1); requires
//                      timeout-s > 0 or hedge-p > 0. Without either, failure
//                      re-submission stays bounded at kMaxResubmitAttempts.
//   retry-budget       fraction of the workload's calls that may be retried;
//                      once ceil(budget * calls) retries are spent, further
//                      expiries drop instead of retrying.
//   hedge-p            latency quantile that arms a hedge: when an attempt
//                      outlives the observed p-quantile of controller
//                      latencies, a duplicate goes to a second node and the
//                      first completion wins. 0 disables; must be < 1.
//   hedge-min-samples  observed completions required before hedging arms.
//   breaker-failures   consecutive per-node timeouts that open the node's
//                      circuit breaker (ejects it from the NodeView until a
//                      half-open probe succeeds). 0 disables; requires
//                      timeout-s > 0, since timeouts are the failure signal.
//   breaker-cooldown-s seconds an open breaker waits before half-open.
//   max-queue          per-node queue depth (queued + in transit) above which
//                      a fresh call is shed with a `shed` disposition when
//                      every routable node is saturated. 0 disables.
struct ResilienceSpec {
  util::ParamMap params;

  [[nodiscard]] static ResilienceSpec parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  // Abort with a knob-listing error on an unknown key or an out-of-range
  // value; returns a copy with keys lowercased.
  [[nodiscard]] ResilienceSpec normalized() const;

  // Every knob's value, its default where unset; unparsable values abort
  // naming the key and offending text.
  [[nodiscard]] ResilienceConfig config() const {
    return ResilienceConfig(params);
  }

  [[nodiscard]] bool enabled() const { return !params.empty(); }

  [[nodiscard]] bool has(std::string_view key) const {
    return util::has_param(params, key);
  }
  // Typed reads of the knobs (see util::ParamReader).
  [[nodiscard]] util::ParamReader reader() const {
    return {params, resilience_params(), "resilience", {}};
  }
  [[nodiscard]] double number(std::string_view key, double fallback) const {
    return reader().number(key, fallback);
  }
  [[nodiscard]] std::size_t count(std::string_view key,
                                  std::size_t fallback) const {
    return reader().count(key, fallback);
  }

  friend bool operator==(const ResilienceSpec&,
                         const ResilienceSpec&) = default;
};

}  // namespace whisk::cluster
