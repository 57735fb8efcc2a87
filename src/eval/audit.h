#ifndef TABSKETCH_EVAL_AUDIT_H_
#define TABSKETCH_EVAL_AUDIT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace tabsketch::eval {

/// The ε envelope audited against for a (p, k, sparsity) sketch family:
/// ε = C(p)/√k · sparsity^(−1/2) with the empirical constants validated
/// offline by the guarantees sweeps (tests/guarantees_test.cc and the sparse
/// grid in tests/sparse_test.cc) — C = 4 for p ≥ 0.75 and C = 6 for the
/// heavier-tailed small-p estimators, and the s^(−1/2) factor the Li
/// very-sparse-projection envelope of DESIGN.md §16 (sparsity 1, the dense
/// default, leaves the classic bound untouched). A sampled estimate whose
/// relative error exceeds this ε counts as a violation; Theorems 1–2 bound
/// the *rate* of such violations, not their existence, so a small violation
/// count on a healthy run is expected.
double AuditEpsilon(double p, size_t k, double sparsity = 1.0);

/// Metric-key suffix for a given p: 1.0 -> "p1", 0.5 -> "p0.5" (shortest %g
/// spelling, so keys are stable across call sites).
std::string AuditKeyForP(double p);

/// Online sketch-accuracy auditor. When enabled at rate R, distance call
/// sites (SketchBackend, the `distance` CLI command) shadow-compute the exact
/// Lp distance for a sampled R-fraction of estimates and record the relative
/// error |est/exact − 1| into the metrics registry:
///
///   audit.relerr.p<p>        histogram of sampled relative errors
///   audit.samples.p<p>       counter of audited estimates
///   audit.violations.p<p>    counter of samples with relerr > C(p)/√k
///   audit.worst_relerr.p<p>  gauge, running max of sampled relerr
///   audit.skipped_zero.p<p>  counter of samples skipped (exact distance 0)
///   audit.samples / audit.violations   cross-p totals
///
/// These land in --metrics-json dumps like any other metric, and `cluster`
/// runs print a one-line summary per audited (p, k) family.
///
/// Cost contract: when disabled (the default) the only per-call cost at an
/// audited site is one relaxed atomic load (typically hoisted to a cached
/// null Channel pointer at backend construction). Auditing never perturbs
/// results: the sampler draws from its own per-thread RNG stream, and the
/// estimate returned to the caller is bit-identical with auditing on or off.
class SketchAuditor {
 public:
  /// Accuracy channel for one (p, k) family. Pointers returned by
  /// ChannelFor() stay valid until Enable() is next called with a *different*
  /// registry (re-enabling against the same registry only resets values).
  class Channel {
   public:
    /// Records one shadow comparison. `exact` must be the true Lp distance;
    /// non-positive or non-finite pairs are counted as skipped, not errors
    /// (relative error is undefined at exact == 0).
    void Record(double exact, double estimate);

    double p() const { return p_; }
    size_t k() const { return k_; }
    double sparsity() const { return sparsity_; }
    double epsilon() const { return epsilon_; }
    uint64_t samples() const { return samples_->value(); }
    uint64_t violations() const { return violations_->value(); }
    uint64_t skipped() const { return skipped_zero_->value(); }
    double worst_relerr() const { return worst_->value(); }
    /// The median of a capture of the relerr histogram.
    double median_relerr() const;

   private:
    friend class SketchAuditor;
    Channel() = default;

    double p_ = 0.0;
    size_t k_ = 0;
    double sparsity_ = 1.0;
    double epsilon_ = 0.0;
    util::Histogram* relerr_ = nullptr;
    util::Counter* samples_ = nullptr;
    util::Counter* violations_ = nullptr;
    util::Counter* skipped_zero_ = nullptr;
    util::Gauge* worst_ = nullptr;
    util::Counter* total_samples_ = nullptr;
    util::Counter* total_violations_ = nullptr;
  };

  /// Snapshot of one channel for end-of-run reporting.
  struct ChannelSummary {
    double p = 0.0;
    size_t k = 0;
    double sparsity = 1.0;
    double epsilon = 0.0;
    uint64_t samples = 0;
    uint64_t violations = 0;
    uint64_t skipped = 0;
    double median_relerr = 0.0;
    double worst_relerr = 0.0;
  };

  SketchAuditor() = default;
  SketchAuditor(const SketchAuditor&) = delete;
  SketchAuditor& operator=(const SketchAuditor&) = delete;

  /// The process-wide auditor behind --audit-rate.
  static SketchAuditor& Global();

  /// True when the global auditor is on. One relaxed load.
  static bool Enabled() {
    return Global().rate_.load(std::memory_order_relaxed) > 0.0;
  }

  /// Turns auditing on at `rate` (clamped to [0, 1]; 0 disables). Metrics go
  /// to `registry`, defaulting to MetricsRegistry::Global(). Existing channel
  /// values are reset so each run starts clean; switching registries drops
  /// previously handed-out Channel pointers (see Channel).
  void Enable(double rate, util::MetricsRegistry* registry = nullptr);
  void Disable() { rate_.store(0.0, std::memory_order_relaxed); }

  double rate() const { return rate_.load(std::memory_order_relaxed); }

  /// Per-call sampling decision: true for an R-fraction of calls,
  /// deterministically always-true at rate 1 (so rate-1 test fixtures audit
  /// every comparison). Thread-safe; each thread draws from its own
  /// deterministic SplitMix64 stream, independent of every sketch RNG.
  bool ShouldSample();

  /// Finds or creates the channel for a (p, k, sparsity) family; the
  /// envelope widens by sparsity^(−1/2) so sparse-tier runs are judged
  /// against the Li bound they actually guarantee. Thread-safe; the pointer
  /// may be cached by the caller (backends cache it at construction).
  Channel* ChannelFor(double p, size_t k, double sparsity = 1.0);

  /// Summaries of all channels with at least one sample or skip, ordered by
  /// metric key.
  std::vector<ChannelSummary> Summaries() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Channel>> channels_;
  util::MetricsRegistry* registry_ = nullptr;  // nullptr -> Global()
  std::atomic<double> rate_{0.0};
};

}  // namespace tabsketch::eval

#endif  // TABSKETCH_EVAL_AUDIT_H_
