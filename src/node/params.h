#pragma once

#include <algorithm>

#include "container/keep_alive.h"
#include "core/policy.h"
#include "sim/time.h"

namespace whisk::node {

// Calibrated model constants for one worker node. The defaults reproduce
// the paper's measured behaviour; every experiment can override them (the
// ablation benches sweep several).
//
// Two modelling insights drive the constants:
//
// 1. Per-activation management is nearly free on an idle node (Table I
//    shows ~10 ms total overhead) but inflates under concurrent load — the
//    paper notes that at intensity 30 "managing [the] container executing
//    the function [may require] more time, on average per call, than
//    executing the function itself". Serialized management ops therefore
//    have an idle and a loaded cost, interpolated by the node's in-flight
//    activity (`ramp`).
//
// 2. In the paper's approach the dominant serialized cost is proportional
//    to the call's runtime (result/log processing, container pause/resume
//    bookkeeping scale with what the call produced). This reproduces two
//    signatures of the paper's data at once: the burst drain time scales
//    with the number of requests and barely with the core count (Table II),
//    and the *average* response improves several-fold under SEPT/FC —
//    impossible with an order-independent bottleneck cost.
struct NodeParams {
  int cores = 10;
  double memory_limit_mb = 32.0 * 1024.0;

  // --- activity ramp -------------------------------------------------------
  // Management costs ramp linearly from idle to loaded as the number of
  // in-flight activations (executing + queued + creating) crosses
  // [ramp_low, ramp_high].
  double ramp_low = 2.0;
  double ramp_high = 8.0;

  // --- our approach (CPU-based scheduling, Sec. IV) ------------------------
  // Dispatch the next pending call only while the management pipeline's
  // backlog is below this many ops, so waiting calls stay in the policy's
  // priority queue rather than in a FIFO daemon queue.
  int dispatch_daemon_gate = 3;
  // Serialized pre-dispatch op (unpause + cpu-limit bookkeeping).
  double our_preop_idle_s = 0.003;
  double our_preop_loaded_s = 0.04;
  double our_preop_sigma = 0.25;
  // Serialized post-execution op: result/log processing proportional to the
  // call's execution time, plus a small constant part.
  double our_post_factor_idle = 0.0;
  double our_post_factor_loaded = 0.36;
  double our_post_base_idle_s = 0.001;
  double our_post_base_loaded_s = 0.02;
  double our_post_sigma = 0.20;

  // --- baseline OpenWhisk ---------------------------------------------------
  // Warm dispatch barely touches dockerd (the unpause is cheap and the
  // activation record write is asynchronous in the stock blocking path).
  double base_dispatch_idle_s = 0.002;
  double base_dispatch_loaded_s = 0.085;
  double base_dispatch_sigma = 0.20;
  // Serialized docker pause op after a container goes idle (the stock
  // invoker pauses idle containers; the next warm start unpauses them, so
  // every warm call costs the daemon a dispatch *and* a pause op).
  double base_pause_idle_s = 0.002;
  double base_pause_loaded_s = 0.085;
  double base_pause_sigma = 0.20;
  // Serialized part of docker create/start for a new container.
  double base_create_idle_s = 0.050;
  double base_create_loaded_s = 0.20;
  double base_create_sigma = 0.25;
  // Dockerd strain: every serialized baseline op is additionally stretched
  // by (1 + strain_per_container * live_containers). Our approach keeps a
  // fixed container set and leaves dockerd alone, so no strain applies.
  double strain_per_container = 0.005;
  // Parallel post-execution handling in the baseline (holds the container,
  // not the daemon).
  double base_post_idle_s = 0.001;
  double base_post_loaded_s = 0.60;
  double base_post_sigma = 0.25;
  // The stock warm-up leaves roughly ceil(c * s / (s + overlap)) containers
  // for a function with service time s: queued warm-up calls reuse the
  // first container of a fast function instead of forcing new ones
  // (Sec. VI discussion). `overlap` is the effective creation latency.
  double warmup_creation_overlap_s = 3.0;

  // --- container initialization (parallel, delays only its own call) -------
  double cold_init_median_s = 0.80;
  double cold_init_sigma = 0.35;
  double cold_init_min_s = 0.40;
  double cold_init_max_s = 2.20;
  double prewarm_init_median_s = 0.25;
  double prewarm_init_sigma = 0.30;

  // --- OS / CPU model -------------------------------------------------------
  double context_switch_beta = 0.30;  // baseline proportional-share penalty

  // --- policy ----------------------------------------------------------------
  core::PolicyParams policy;
  std::size_t history_window = 10;

  // Baseline prewarm ("stem cell") containers kept per node.
  int prewarm_target = 2;

  // --- container keep-alive --------------------------------------------------
  // Which idle containers the pool keeps warm: any spec accepted by
  // container::KeepAlivePolicyRegistry ("lru", "ttl?idle-s=600",
  // "pool-target?floor=2", ...). The cluster layer stamps the deployment's
  // ClusterSpec keep-alive here; the default reproduces the paper's
  // LRU-under-pressure rule.
  container::KeepAliveSpec keep_alive;

  // Linear idle->loaded interpolation factor for an activity level x.
  [[nodiscard]] double ramp(double x) const {
    if (ramp_high <= ramp_low) return x >= ramp_high ? 1.0 : 0.0;
    return std::clamp((x - ramp_low) / (ramp_high - ramp_low), 0.0, 1.0);
  }
};

}  // namespace whisk::node
