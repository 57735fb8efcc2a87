#include "eval/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "rng/splitmix64.h"
#include "util/metrics_snapshot.h"

namespace tabsketch::eval {

double AuditEpsilon(double p, size_t k, double sparsity) {
  // Same empirical constants as the offline guarantee sweep
  // (tests/guarantees_test.cc): the median estimator's tail widens for
  // small p, where the stable distribution is heavier-tailed. A very sparse
  // family (DESIGN.md §16) carries ~1/s the per-component variance, so its
  // envelope widens by s^(−1/2); s = 1 is the classic dense bound.
  const double c = (p < 0.75) ? 6.0 : 4.0;
  const double s = std::clamp(sparsity, 1e-12, 1.0);
  return c / std::sqrt(static_cast<double>(std::max<size_t>(k, 1))) /
         std::sqrt(s);
}

std::string AuditKeyForP(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

void SketchAuditor::Channel::Record(double exact, double estimate) {
  if (!(exact > 0.0) || !std::isfinite(exact) || !std::isfinite(estimate)) {
    skipped_zero_->Increment();
    return;
  }
  const double relerr = std::fabs(estimate / exact - 1.0);
  relerr_->Observe(relerr);
  samples_->Increment();
  total_samples_->Increment();
  worst_->Max(relerr);
  if (relerr > epsilon_) {
    violations_->Increment();
    total_violations_->Increment();
  }
}

double SketchAuditor::Channel::median_relerr() const {
  return util::CaptureHistogram(*relerr_).Percentile(0.5);
}

SketchAuditor& SketchAuditor::Global() {
  static SketchAuditor* const auditor = new SketchAuditor();  // leaked, like
  // MetricsRegistry::Global(): backends cache Channel pointers.
  return *auditor;
}

void SketchAuditor::Enable(double rate, util::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry == nullptr) registry = &util::MetricsRegistry::Global();
  if (registry != registry_) {
    // Channels hold raw metric pointers into the old registry; they cannot be
    // retargeted, so drop them (documented contract on ChannelFor).
    channels_.clear();
    registry_ = registry;
  }
  for (auto& [key, channel] : channels_) {
    channel->relerr_->Reset();
    channel->samples_->Reset();
    channel->violations_->Reset();
    channel->skipped_zero_->Reset();
    channel->worst_->Reset();
  }
  rate_.store(std::clamp(rate, 0.0, 1.0), std::memory_order_relaxed);
}

bool SketchAuditor::ShouldSample() {
  const double rate = rate_.load(std::memory_order_relaxed);
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  // Per-thread deterministic stream, seeded once per thread from a fixed
  // constant. Never touches any sketch/centroid RNG, so auditing cannot
  // change clustering results.
  static thread_local rng::SplitMix64 stream(0x7ab5ce7c4a0d17ULL);
  const double u =
      static_cast<double>(stream.Next() >> 11) * 0x1.0p-53;  // [0, 1)
  return u < rate;
}

SketchAuditor::Channel* SketchAuditor::ChannelFor(double p, size_t k,
                                                  double sparsity) {
  const std::string key = AuditKeyForP(p);
  std::lock_guard<std::mutex> lock(mutex_);
  util::MetricsRegistry* registry =
      registry_ != nullptr ? registry_ : &util::MetricsRegistry::Global();
  auto& slot = channels_[key];
  if (slot == nullptr) {
    slot.reset(new Channel());
    slot->relerr_ = registry->GetHistogram("audit.relerr." + key);
    slot->samples_ = registry->GetCounter("audit.samples." + key);
    slot->violations_ = registry->GetCounter("audit.violations." + key);
    slot->skipped_zero_ = registry->GetCounter("audit.skipped_zero." + key);
    slot->worst_ = registry->GetGauge("audit.worst_relerr." + key);
    slot->total_samples_ = registry->GetCounter("audit.samples");
    slot->total_violations_ = registry->GetCounter("audit.violations");
  }
  // p is fixed per key; k and sparsity (and with them ε) follow the most
  // recent caller, which in practice is constant within a run (mixed-sparsity
  // families are rejected at load anyway).
  slot->p_ = p;
  slot->k_ = k;
  slot->sparsity_ = sparsity;
  slot->epsilon_ = AuditEpsilon(p, k, sparsity);
  return slot.get();
}

std::vector<SketchAuditor::ChannelSummary> SketchAuditor::Summaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ChannelSummary> out;
  for (const auto& [key, channel] : channels_) {
    ChannelSummary summary;
    summary.p = channel->p_;
    summary.k = channel->k_;
    summary.sparsity = channel->sparsity_;
    summary.epsilon = channel->epsilon_;
    summary.samples = channel->samples();
    summary.violations = channel->violations();
    summary.skipped = channel->skipped();
    summary.median_relerr = channel->median_relerr();
    summary.worst_relerr = channel->worst_relerr();
    if (summary.samples == 0 && summary.skipped == 0) continue;
    out.push_back(summary);
  }
  return out;
}

}  // namespace tabsketch::eval
