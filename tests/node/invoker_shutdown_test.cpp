// Invoker::shutdown() on a single node, for both invokers: the calls it
// returns, in every phase of a call's life, and what happens afterwards.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "node/invoker_registry.h"

namespace whisk::node {
namespace {

// Every duration is deterministic except the service time (sigma 0.01
// around 1 s): daemon ops take 1 s for a cold start, container init 1 s and
// post-processing 1 s. Four containers fit in memory.
NodeParams deterministic_params() {
  NodeParams p;
  p.cores = 4;
  p.memory_limit_mb = 4 * 256.0;
  p.ramp_low = 1e9;  // always idle medians
  p.ramp_high = 2e9;
  p.dispatch_daemon_gate = 100;
  p.our_preop_idle_s = 0.5;
  p.our_preop_sigma = 0.0;
  p.our_post_base_idle_s = 1.0;
  p.our_post_sigma = 0.0;
  p.base_dispatch_idle_s = 0.5;
  p.base_dispatch_sigma = 0.0;
  p.base_create_idle_s = 0.5;
  p.base_create_sigma = 0.0;
  p.base_post_idle_s = 1.0;
  p.base_post_sigma = 0.0;
  p.base_pause_idle_s = 0.01;
  p.base_pause_sigma = 0.0;
  p.strain_per_container = 0.0;
  p.cold_init_median_s = 1.0;
  p.cold_init_sigma = 0.0;
  p.cold_init_min_s = 0.0;
  p.cold_init_max_s = 10.0;
  p.prewarm_target = 0;
  return p;
}

workload::FunctionCatalog one_function_catalog() {
  workload::FunctionSpec f;
  f.name = "one-second";
  f.p5_ms = f.median_ms = f.p95_ms = 1000.0 + workload::kClientOverheadMs;
  return workload::FunctionCatalog({f});
}

class InvokerShutdown : public ::testing::TestWithParam<std::string> {
 protected:
  InvokerShutdown() : catalog_(one_function_catalog()) {
    invoker_ = InvokerRegistry::instance().create(
        GetParam(),
        InvokerArgs{engine_, catalog_, deterministic_params(), sim::Rng(7),
                    [this](const metrics::CallRecord& rec) {
                      delivered_.push_back(rec.id);
                    }});
    invoker_->enable_in_flight_tracking();
  }

  void submit_at(sim::SimTime at, workload::CallId id) {
    engine_.schedule_at(at, [this, at, id] {
      invoker_->submit(workload::CallRequest{id, 0, at, cp_hint(id)});
    });
  }

  static double cp_hint(workload::CallId id) { return 0.25 * id; }

  sim::Engine engine_;
  workload::FunctionCatalog catalog_;
  std::unique_ptr<Invoker> invoker_;
  std::vector<workload::CallId> delivered_;
};

TEST_P(InvokerShutdown, ReturnsEveryUndeliveredCallOnceSortedById) {
  // At t = 10 each call is in another phase (all starts are cold):
  //   40: post-processing  (daemon op 6.5-7.5, init, executes 8.5-9.5)
  //   10: executing        (daemon op 7.6-8.6, init, executes 9.6-10.6)
  //   30: container init   (daemon op 8.7-9.7, init 9.7-10.7)
  //   20: in its daemon op (submitted at 9.8)
  //   50: queued           (memory holds four containers)
  const std::vector<workload::CallId> ids = {40, 10, 30, 20, 50};
  const std::vector<sim::SimTime> at = {6.5, 7.6, 8.7, 9.8, 9.9};
  for (std::size_t i = 0; i < ids.size(); ++i) submit_at(at[i], ids[i]);

  std::vector<workload::CallRequest> lost;
  engine_.schedule_at(10.0, [&] {
    EXPECT_EQ(invoker_->in_flight(), 5u);
    EXPECT_EQ(invoker_->queue_length(), 1u);
    EXPECT_EQ(invoker_->pool().creating_count(), 1u);  // call 20's
    EXPECT_TRUE(invoker_->daemon().busy());
    // The baseline counts calls on the CPU; ours, calls holding a core.
    EXPECT_EQ(invoker_->executing(), GetParam() == "baseline" ? 1u : 4u);
    lost = invoker_->shutdown();
  });
  engine_.run();

  ASSERT_EQ(lost.size(), 5u);
  const std::vector<workload::CallId> sorted = {10, 20, 30, 40, 50};
  for (std::size_t i = 0; i < lost.size(); ++i) {
    EXPECT_EQ(lost[i].id, sorted[i]);
    EXPECT_EQ(lost[i].function, 0);
    EXPECT_DOUBLE_EQ(lost[i].cp_hint, cp_hint(sorted[i]));
  }
  EXPECT_DOUBLE_EQ(lost[3].release, 6.5);  // call 40
  EXPECT_TRUE(delivered_.empty()) << "a failed node delivers nothing";
  EXPECT_TRUE(invoker_->failed());
  EXPECT_EQ(invoker_->in_flight(), 0u);
  EXPECT_EQ(invoker_->stats().calls_lost, 5u);
  EXPECT_EQ(invoker_->stats().calls_completed, 0u);
}

TEST_P(InvokerShutdown, TracksCallIdsNotCopies) {
  // Two copies of call 7: the first delivers at about t = 4, the second is
  // still in post-processing at t = 4.5. The id left the in-flight set with
  // the first delivery, so the node reads as empty and shutdown() omits the
  // copy that still runs.
  submit_at(0.0, 7);
  submit_at(0.1, 7);
  std::vector<workload::CallRequest> lost;
  engine_.schedule_at(4.5, [&] {
    EXPECT_EQ(delivered_, std::vector<workload::CallId>{7});
    EXPECT_EQ(invoker_->in_flight(), 0u);
    lost = invoker_->shutdown();
  });
  engine_.run();
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(delivered_.size(), 1u);
}

TEST_P(InvokerShutdown, ShutdownTwiceAborts) {
  (void)invoker_->shutdown();
  EXPECT_DEATH((void)invoker_->shutdown(), "failed twice");
}

INSTANTIATE_TEST_SUITE_P(Invokers, InvokerShutdown,
                         ::testing::Values("baseline", "ours"));

}  // namespace
}  // namespace whisk::node
