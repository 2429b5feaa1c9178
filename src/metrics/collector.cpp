#include "metrics/collector.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace whisk::metrics {

void Collector::add(const CallRecord& record) {
  WHISK_CHECK(record.completion >= record.release,
              "completion before release");
  WHISK_CHECK(record.exec_end >= record.exec_start,
              "execution ends before it starts");
  WHISK_CHECK(record.function >= 0, "record without a function id");
  WHISK_CHECK(record.attempts >= 1, "record with attempts < 1");
  WHISK_CHECK(completion_.size() < std::numeric_limits<std::uint32_t>::max(),
              "per-run record index overflow");

  const auto position = static_cast<std::uint32_t>(completion_.size());
  id_.push_back(record.id);
  function_.push_back(record.function);
  node_.push_back(record.node);
  release_.push_back(record.release);
  received_.push_back(record.received);
  exec_start_.push_back(record.exec_start);
  exec_end_.push_back(record.exec_end);
  completion_.push_back(record.completion);
  service_.push_back(record.service);
  start_kind_.push_back(record.start_kind);
  attempts_.push_back(record.attempts);
  disposition_.push_back(record.disposition);
  workflow_root_.push_back(record.workflow);
  stage_.push_back(record.stage);

  if (record.attempts > 1) {
    ++resubmitted_calls_;
    resubmissions_ += static_cast<std::size_t>(record.attempts - 1);
  }
  if (record.disposition != Disposition::kOk) {
    // Shed/dropped calls never executed: an empty execution interval is the
    // invariant that keeps them out of every latency distribution below.
    WHISK_CHECK(record.exec_end == record.exec_start,
                "shed/dropped record claims an execution interval");
    if (record.disposition == Disposition::kShed) {
      ++shed_;
    } else {
      ++dropped_;
    }
    return;
  }

  ++ok_;
  const auto f = static_cast<std::size_t>(record.function);
  if (f >= by_function_.size()) by_function_.resize(f + 1);
  by_function_[f].push_back(position);

  max_completion_ = std::max(max_completion_, record.completion);
  switch (record.start_kind) {
    case StartKind::kCold:
      ++cold_;
      break;
    case StartKind::kPrewarm:
      ++prewarm_;
      break;
    case StartKind::kWarm:
      ++warm_;
      break;
  }
}

void Collector::reserve(std::size_t n) {
  id_.reserve(n);
  function_.reserve(n);
  node_.reserve(n);
  release_.reserve(n);
  received_.reserve(n);
  exec_start_.reserve(n);
  exec_end_.reserve(n);
  completion_.reserve(n);
  service_.reserve(n);
  start_kind_.reserve(n);
  attempts_.reserve(n);
  disposition_.reserve(n);
  workflow_root_.reserve(n);
  stage_.reserve(n);
}

void Collector::reset(const workload::FunctionCatalog& catalog) {
  catalog_ = &catalog;
  id_.clear();
  function_.clear();
  node_.clear();
  release_.clear();
  received_.clear();
  exec_start_.clear();
  exec_end_.clear();
  completion_.clear();
  service_.clear();
  start_kind_.clear();
  attempts_.clear();
  disposition_.clear();
  workflow_root_.clear();
  stage_.clear();
  // Keep the per-function buckets themselves (and their capacity); only
  // their contents belong to the finished run.
  for (auto& bucket : by_function_) bucket.clear();
  max_completion_ = 0.0;
  ok_ = shed_ = dropped_ = 0;
  cold_ = prewarm_ = warm_ = 0;
  resubmitted_calls_ = 0;
  resubmissions_ = 0;
  workflows_.clear();
}

CallRecord Collector::record(std::size_t i) const {
  WHISK_CHECK(i < completion_.size(), "record index out of range");
  CallRecord out;
  out.id = id_[i];
  out.function = function_[i];
  out.node = node_[i];
  out.release = release_[i];
  out.received = received_[i];
  out.exec_start = exec_start_[i];
  out.exec_end = exec_end_[i];
  out.completion = completion_[i];
  out.service = service_[i];
  out.start_kind = start_kind_[i];
  out.attempts = attempts_[i];
  out.disposition = disposition_[i];
  out.workflow = workflow_root_[i];
  out.stage = stage_[i];
  return out;
}

std::vector<CallRecord> Collector::records() const {
  std::vector<CallRecord> out;
  out.reserve(completion_.size());
  for (std::size_t i = 0; i < completion_.size(); ++i) {
    out.push_back(record(i));
  }
  return out;
}

std::vector<double> Collector::response_times() const {
  std::vector<double> out;
  out.reserve(ok_);
  for (std::size_t i = 0; i < completion_.size(); ++i) {
    if (disposition_[i] == Disposition::kOk) {
      out.push_back(completion_[i] - release_[i]);
    }
  }
  return out;
}

std::vector<double> Collector::stretches() const {
  std::vector<double> out;
  out.reserve(ok_);
  for (std::size_t i = 0; i < completion_.size(); ++i) {
    if (disposition_[i] != Disposition::kOk) continue;
    out.push_back((completion_[i] - release_[i]) /
                  catalog_->reference_median(function_[i]));
  }
  return out;
}

const std::vector<std::uint32_t>* Collector::bucket(
    workload::FunctionId f) const {
  if (f < 0 || static_cast<std::size_t>(f) >= by_function_.size()) {
    return nullptr;
  }
  return &by_function_[static_cast<std::size_t>(f)];
}

std::vector<double> Collector::response_times_of(
    workload::FunctionId f) const {
  std::vector<double> out;
  const auto* idx = bucket(f);
  if (idx == nullptr) return out;
  out.reserve(idx->size());
  for (std::uint32_t i : *idx) out.push_back(completion_[i] - release_[i]);
  return out;
}

std::vector<double> Collector::stretches_of(workload::FunctionId f) const {
  std::vector<double> out;
  const auto* idx = bucket(f);
  if (idx == nullptr) return out;
  out.reserve(idx->size());
  const double ref = catalog_->reference_median(f);
  for (std::uint32_t i : *idx) {
    out.push_back((completion_[i] - release_[i]) / ref);
  }
  return out;
}

std::size_t Collector::calls_of(workload::FunctionId f) const {
  const auto* idx = bucket(f);
  return idx == nullptr ? 0 : idx->size();
}

void Collector::add_workflow(const WorkflowRecord& record) {
  WHISK_CHECK(record.stages >= 1, "workflow record with no stages");
  WHISK_CHECK(record.ok + record.shed + record.dropped == record.stages,
              "workflow record dispositions do not partition its stages");
  WHISK_CHECK(record.finish >= record.start,
              "workflow finishes before it starts");
  WHISK_CHECK(record.critical_path_s >= 0.0,
              "workflow with a negative critical path");
  // The critical path sums execution intervals along one released chain;
  // every link also paid queueing and network time, so e2e dominates it
  // (tiny epsilon for the float summation).
  WHISK_CHECK(record.critical_path_s <= record.e2e() + 1e-9,
              "workflow critical path exceeds its end-to-end latency");
  workflows_.push_back(record);
}

std::vector<double> Collector::workflow_e2e() const {
  std::vector<double> out;
  out.reserve(workflows_.size());
  for (const auto& w : workflows_) out.push_back(w.e2e());
  return out;
}

double Collector::workflow_e2e_p99() const {
  if (workflows_.empty()) return 0.0;
  std::vector<double> e2e = workflow_e2e();
  const double q = 99.0;
  double p99 = 0.0;
  util::select_percentiles(e2e, {&q, 1}, {&p99, 1});
  return p99;
}

double Collector::workflow_critical_path_mean() const {
  if (workflows_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& w : workflows_) total += w.critical_path_s;
  return total / static_cast<double>(workflows_.size());
}

double Collector::workflow_slack_mean() const {
  if (workflows_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& w : workflows_) total += w.slack();
  return total / static_cast<double>(workflows_.size());
}

}  // namespace whisk::metrics
