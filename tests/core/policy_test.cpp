#include "core/policy.h"

#include <gtest/gtest.h>

#include "core/policy_registry.h"

namespace whisk::core {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyContext ctx(sim::SimTime received, workload::FunctionId fn) const {
    return PolicyContext{received, fn, &history_};
  }

  RuntimeHistory history_{10};
};

TEST_F(PolicyTest, FifoPriorityIsReceiveTime) {
  auto fifo = make_policy("fifo");
  EXPECT_DOUBLE_EQ(fifo->priority(ctx(3.5, 1)), 3.5);
  EXPECT_DOUBLE_EQ(fifo->priority(ctx(9.0, 2)), 9.0);
}

TEST_F(PolicyTest, SeptPriorityIsExpectedRuntime) {
  auto sept = make_policy("sept");
  history_.record_runtime(1, 2.0, 0.0);
  history_.record_runtime(1, 4.0, 1.0);
  EXPECT_DOUBLE_EQ(sept->priority(ctx(100.0, 1)), 3.0)
      << "receive time is irrelevant to SEPT";
}

TEST_F(PolicyTest, SeptUnknownFunctionGetsZero) {
  auto sept = make_policy("sept");
  EXPECT_DOUBLE_EQ(sept->priority(ctx(5.0, 7)), 0.0)
      << "never-seen functions get estimate 0 (highest priority)";
}

TEST_F(PolicyTest, SeptOrdersShortBeforeLong) {
  auto sept = make_policy("sept");
  history_.record_runtime(1, 0.012, 0.0);  // graph-bfs-like
  history_.record_runtime(2, 8.5, 0.0);    // dna-visualisation-like
  EXPECT_LT(sept->priority(ctx(10.0, 1)), sept->priority(ctx(0.0, 2)));
}

TEST_F(PolicyTest, EectAddsReceiveTime) {
  auto eect = make_policy("eect");
  history_.record_runtime(1, 2.0, 0.0);
  EXPECT_DOUBLE_EQ(eect->priority(ctx(5.0, 1)), 7.0);
}

TEST_F(PolicyTest, EectPreventsInfiniteJumping) {
  // Paper Sec. IV: if r'(j) > r'(i) + E(p(i)), call j runs after call i —
  // so a later call can only jump calls within the E(p) horizon.
  auto eect = make_policy("eect");
  history_.record_runtime(1, 2.0, 0.0);  // long-ish function
  history_.record_runtime(2, 0.0, 0.0);  // instant function
  const double long_early = eect->priority(ctx(0.0, 1));   // 2.0
  const double short_late = eect->priority(ctx(3.0, 2));   // 3.0
  EXPECT_LT(long_early, short_late)
      << "a short call released past the horizon does not starve the long";
}

TEST_F(PolicyTest, RectUsesPreviousArrival) {
  auto rect = make_policy("rect");
  history_.record_runtime(1, 2.0, 0.0);
  history_.record_arrival(1, 4.0);
  // r-bar(i) + E(p): 4.0 + 2.0, regardless of this call's receive time.
  EXPECT_DOUBLE_EQ(rect->priority(ctx(100.0, 1)), 6.0);
}

TEST_F(PolicyTest, RectNoPreviousArrivalActsLikeSept) {
  auto rect = make_policy("rect");
  history_.record_runtime(1, 2.0, 0.0);
  EXPECT_DOUBLE_EQ(rect->priority(ctx(100.0, 1)), 2.0);
}

TEST_F(PolicyTest, RectPriorityIncreasesOverTime) {
  // r-bar grows with each arrival, so RECT is starvation-free (Sec. IV).
  auto rect = make_policy("rect");
  history_.record_runtime(1, 2.0, 0.0);
  history_.record_arrival(1, 1.0);
  const double p1 = rect->priority(ctx(2.0, 1));
  history_.record_arrival(1, 10.0);
  const double p2 = rect->priority(ctx(11.0, 1));
  EXPECT_GT(p2, p1);
}

TEST_F(PolicyTest, FcMultipliesCountAndEstimate) {
  auto fc = make_policy("fc", PolicyParams{60.0});
  history_.record_runtime(1, 2.0, 10.0);
  history_.record_runtime(1, 2.0, 20.0);
  // Two completions in the window, E = 2.0 -> priority 4.0.
  EXPECT_DOUBLE_EQ(fc->priority(ctx(30.0, 1)), 4.0);
}

TEST_F(PolicyTest, FcWindowSlides) {
  auto fc = make_policy("fc", PolicyParams{60.0});
  history_.record_runtime(1, 2.0, 0.0);
  // Received at t=100: the completion at t=0 fell out of [40, 100].
  EXPECT_DOUBLE_EQ(fc->priority(ctx(100.0, 1)), 0.0);
}

TEST_F(PolicyTest, FcFavorsRareLongOverFrequentShort) {
  // The fairness property (Sec. VII-D): a rare long function can beat a
  // hammered short one on total recent consumption.
  auto fc = make_policy("fc", PolicyParams{60.0});
  history_.record_runtime(1, 8.5, 1.0);  // dna: one completion
  for (int i = 0; i < 1000; ++i) {       // graph-bfs: very frequent
    history_.record_runtime(2, 0.012, 1.0 + 0.01 * i);
  }
  const double dna = fc->priority(ctx(30.0, 1));    // 1 * 8.5
  const double bfs = fc->priority(ctx(30.0, 2));    // 1000 * 0.012 = 12
  EXPECT_LT(dna, bfs);
}

TEST_F(PolicyTest, FcCustomWindowRespected) {
  auto fc = make_policy("fc", PolicyParams{10.0});
  history_.record_runtime(1, 1.0, 0.0);
  history_.record_runtime(1, 1.0, 95.0);
  // At t=100 with T=10 only the completion at 95 counts.
  EXPECT_DOUBLE_EQ(fc->priority(ctx(100.0, 1)), 1.0);
}

// The paper's five policies, in the order its figures list them.
constexpr const char* kPaperPolicies[] = {"fifo", "sept", "eect", "rect",
                                          "fc"};

TEST(PolicyRegistry, NamesRoundTrip) {
  auto& registry = PolicyRegistry::instance();
  for (const char* name : kPaperPolicies) {
    EXPECT_EQ(registry.resolve(policy_label(name)), name);
  }
}

TEST(PolicyRegistry, ParseIsCaseInsensitive) {
  auto& registry = PolicyRegistry::instance();
  EXPECT_EQ(registry.resolve("fifo"), "fifo");
  EXPECT_EQ(registry.resolve("FIFO"), "fifo");
  EXPECT_EQ(registry.resolve("Sept"), "sept");
  EXPECT_EQ(registry.resolve("fair-choice"), "fc");
}

TEST(PolicyRegistry, AllFivePoliciesExist) {
  const auto names = PolicyRegistry::instance().names();
  ASSERT_GE(names.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(names[i], kPaperPolicies[i]) << "figure order";
    auto p = make_policy(kPaperPolicies[i]);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), kPaperPolicies[i]);
  }
}

TEST(PolicyRegistry, StarvationFreedomMatchesPaper) {
  // Paper Sec. IV: FIFO, EECT and RECT prevent starvation; SEPT and FC do
  // not.
  EXPECT_TRUE(make_policy("fifo")->starvation_free());
  EXPECT_TRUE(make_policy("eect")->starvation_free());
  EXPECT_TRUE(make_policy("rect")->starvation_free());
  EXPECT_FALSE(make_policy("sept")->starvation_free());
  EXPECT_FALSE(make_policy("fc")->starvation_free());
}

TEST(PolicyRegistryDeath, UnknownNameAborts) {
  EXPECT_DEATH((void)make_policy("lifo"), "unknown policy");
}

}  // namespace
}  // namespace whisk::core
