#include "core/policy.h"

#include <utility>

#include "core/policy_registry.h"

namespace whisk::core {
namespace {

class FifoPolicy final : public Policy {
 public:
  double priority(const PolicyContext& ctx) const override {
    return ctx.received;
  }
  std::string_view name() const override { return "fifo"; }
  bool starvation_free() const override { return true; }
};

class SeptPolicy final : public Policy {
 public:
  double priority(const PolicyContext& ctx) const override {
    return ctx.history->expected_runtime(ctx.function);
  }
  std::string_view name() const override { return "sept"; }
  bool starvation_free() const override { return false; }
};

class EectPolicy final : public Policy {
 public:
  double priority(const PolicyContext& ctx) const override {
    return ctx.received + ctx.history->expected_runtime(ctx.function);
  }
  std::string_view name() const override { return "eect"; }
  bool starvation_free() const override { return true; }
};

class RectPolicy final : public Policy {
 public:
  double priority(const PolicyContext& ctx) const override {
    return ctx.history->previous_arrival(ctx.function) +
           ctx.history->expected_runtime(ctx.function);
  }
  std::string_view name() const override { return "rect"; }
  bool starvation_free() const override { return true; }
};

class FcPolicy final : public Policy {
 public:
  explicit FcPolicy(sim::SimTime window) : window_(window) {}
  double priority(const PolicyContext& ctx) const override {
    const auto count = ctx.history->completions_within(
        ctx.function, window_, ctx.received);
    return static_cast<double>(count) *
           ctx.history->expected_runtime(ctx.function);
  }
  std::string_view name() const override { return "fc"; }
  bool starvation_free() const override { return false; }

 private:
  sim::SimTime window_;
};

}  // namespace

namespace detail {

void register_builtin_policies(PolicyRegistry& registry) {
  registry.register_factory("fifo", [](const PolicyParams&) {
    return std::make_unique<FifoPolicy>();
  });
  registry.register_factory("sept", [](const PolicyParams&) {
    return std::make_unique<SeptPolicy>();
  });
  registry.register_factory("eect", [](const PolicyParams&) {
    return std::make_unique<EectPolicy>();
  });
  registry.register_factory("rect", [](const PolicyParams&) {
    return std::make_unique<RectPolicy>();
  });
  registry.register_factory("fc", [](const PolicyParams& params) {
    return std::make_unique<FcPolicy>(params.fc_window);
  });
  registry.register_alias("fair-choice", "fc");
}

}  // namespace detail

std::string policy_label(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

std::unique_ptr<Policy> make_policy(std::string_view name,
                                    PolicyParams params) {
  return PolicyRegistry::instance().create(name, params);
}

}  // namespace whisk::core
