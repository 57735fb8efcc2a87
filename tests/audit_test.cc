// Tests for the sketch-accuracy auditor: the ε envelope, metric-key
// formatting, Channel record/violation/skip semantics against a local
// registry, the sampling decision, concurrent recording (exercised under
// tsan), and a fixed-seed fixture whose violation count is recomputed by
// hand and compared against the counter.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketcher.h"
#include "eval/audit.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "util/metrics.h"

namespace tabsketch {
namespace {

using eval::AuditEpsilon;
using eval::AuditKeyForP;
using eval::SketchAuditor;
using util::MetricsRegistry;

TEST(AuditEpsilonTest, MatchesGuaranteeEnvelope) {
  // C = 4 for p >= 0.75 (inclusive boundary), C = 6 below.
  EXPECT_DOUBLE_EQ(AuditEpsilon(1.0, 400), 4.0 / 20.0);
  EXPECT_DOUBLE_EQ(AuditEpsilon(2.0, 64), 0.5);
  EXPECT_DOUBLE_EQ(AuditEpsilon(0.75, 100), 4.0 / 10.0);
  EXPECT_DOUBLE_EQ(AuditEpsilon(0.5, 64), 6.0 / 8.0);
  // k is clamped to at least 1 so the envelope is always finite.
  EXPECT_DOUBLE_EQ(AuditEpsilon(1.0, 0), AuditEpsilon(1.0, 1));
}

TEST(AuditEpsilonTest, SparseFamilyWidensByInverseRootSparsity) {
  // The Li very-sparse envelope of DESIGN.md Section 16: eps scales by
  // s^(-1/2), and the dense default (s = 1) is exactly the classic bound.
  EXPECT_DOUBLE_EQ(AuditEpsilon(1.0, 64, 1.0), AuditEpsilon(1.0, 64));
  EXPECT_DOUBLE_EQ(AuditEpsilon(1.0, 64, 0.25), 2.0 * AuditEpsilon(1.0, 64));
  EXPECT_DOUBLE_EQ(AuditEpsilon(1.0, 16, 0.1),
                   4.0 / 4.0 / std::sqrt(0.1));
  EXPECT_DOUBLE_EQ(AuditEpsilon(0.5, 64, 0.25), 2.0 * 6.0 / 8.0);
}

TEST(AuditChannelTest, SparseChannelJudgesAgainstWidenedEnvelope) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(1.0, &registry);
  SketchAuditor::Channel* channel = auditor.ChannelFor(1.0, 64, 0.25);
  ASSERT_NE(channel, nullptr);
  EXPECT_DOUBLE_EQ(channel->sparsity(), 0.25);
  EXPECT_DOUBLE_EQ(channel->epsilon(), 1.0);  // 4/sqrt(64) * sqrt(4)

  channel->Record(10.0, 16.0);  // relerr 0.6: violates dense 0.5, not sparse
  channel->Record(10.0, 30.5);  // relerr 2.05: violates even the sparse eps
  EXPECT_EQ(channel->samples(), 2u);
  EXPECT_EQ(channel->violations(), 1u);

  const auto summaries = auditor.Summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_DOUBLE_EQ(summaries[0].sparsity, 0.25);
  EXPECT_DOUBLE_EQ(summaries[0].epsilon, 1.0);
}

TEST(AuditKeyTest, UsesShortestSpelling) {
  EXPECT_EQ(AuditKeyForP(1.0), "p1");
  EXPECT_EQ(AuditKeyForP(2.0), "p2");
  EXPECT_EQ(AuditKeyForP(0.5), "p0.5");
  EXPECT_EQ(AuditKeyForP(1.25), "p1.25");
}

TEST(AuditChannelTest, RecordsErrorsViolationsAndSkips) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(1.0, &registry);
  SketchAuditor::Channel* channel = auditor.ChannelFor(1.0, 64);
  ASSERT_NE(channel, nullptr);
  EXPECT_DOUBLE_EQ(channel->epsilon(), 0.5);  // 4/sqrt(64)

  channel->Record(10.0, 11.0);  // relerr 0.1: inside the envelope
  channel->Record(10.0, 16.0);  // relerr 0.6: violation
  channel->Record(10.0, 4.0);   // relerr 0.6: violation (underestimates too)
  channel->Record(0.0, 5.0);    // exact == 0: relative error undefined, skip
  channel->Record(10.0, std::numeric_limits<double>::infinity());  // skip

  EXPECT_EQ(channel->samples(), 3u);
  EXPECT_EQ(channel->violations(), 2u);
  EXPECT_EQ(channel->skipped(), 2u);
  EXPECT_NEAR(channel->worst_relerr(), 0.6, 1e-12);

  // The same numbers are visible through the registry's metric keys.
  EXPECT_EQ(registry.GetCounter("audit.samples.p1")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("audit.violations.p1")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("audit.skipped_zero.p1")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("audit.samples")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("audit.violations")->value(), 2u);
  EXPECT_EQ(registry.GetHistogram("audit.relerr.p1")->count(), 3u);

  const auto summaries = auditor.Summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_DOUBLE_EQ(summaries[0].p, 1.0);
  EXPECT_EQ(summaries[0].k, 64u);
  EXPECT_EQ(summaries[0].samples, 3u);
  EXPECT_EQ(summaries[0].violations, 2u);
}

TEST(AuditChannelTest, SeparateChannelsPerFamily) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(1.0, &registry);
  SketchAuditor::Channel* p1 = auditor.ChannelFor(1.0, 64);
  SketchAuditor::Channel* p2 = auditor.ChannelFor(2.0, 16);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(auditor.ChannelFor(1.0, 64), p1);  // stable lookup
  p2->Record(10.0, 10.1);
  EXPECT_EQ(p1->samples(), 0u);
  EXPECT_EQ(p2->samples(), 1u);
  EXPECT_EQ(auditor.Summaries().size(), 1u);  // sampleless channels elided
}

TEST(AuditSamplerTest, RateExtremesAreDeterministic) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(1.0, &registry);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(auditor.ShouldSample());
  auditor.Disable();
  EXPECT_DOUBLE_EQ(auditor.rate(), 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(auditor.ShouldSample());
}

TEST(AuditSamplerTest, MidRateSamplesApproximateFraction) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(0.25, &registry);
  int sampled = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) sampled += auditor.ShouldSample() ? 1 : 0;
  // ~Binomial(10000, 0.25): allow a generous +-5 sigma band.
  EXPECT_GT(sampled, 2280);
  EXPECT_LT(sampled, 2720);
}

TEST(AuditSamplerTest, RateIsClampedToUnitInterval) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(7.5, &registry);
  EXPECT_DOUBLE_EQ(auditor.rate(), 1.0);
  auditor.Enable(-0.5, &registry);
  EXPECT_DOUBLE_EQ(auditor.rate(), 0.0);
}

// Exercised under tsan (name matched by tools/check_tsan.sh): concurrent
// Record calls on one channel must be race-free and lose no samples.
TEST(AuditChannelTest, ConcurrentRecordIsRaceFree) {
  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(1.0, &registry);
  SketchAuditor::Channel* channel = auditor.ChannelFor(1.0, 16);
  constexpr int kThreads = 4;
  constexpr int kRecords = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([channel, &auditor] {
      for (int i = 0; i < kRecords; ++i) {
        if (auditor.ShouldSample()) {
          channel->Record(10.0, 10.5 + static_cast<double>(i % 3));
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  // Estimates 10.5/11.5/12.5 vs exact 10: relerr <= 0.25 < eps = 4/4 = 1.
  EXPECT_EQ(channel->samples(),
            static_cast<uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(channel->violations(), 0u);
  EXPECT_NEAR(channel->worst_relerr(), 0.25, 1e-12);
}

// The ISSUE-4 hand-count acceptance check: audit a fixed-seed fixture of
// sketch estimates at rate 1 and verify the ε-violation counter equals a
// count recomputed by hand with the same envelope formula.
TEST(AuditHandComputedTest, ViolationCounterMatchesManualCount) {
  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 11};
  auto sketcher = core::Sketcher::Create(params).value();
  auto estimator = core::DistanceEstimator::Create(params).value();

  MetricsRegistry registry;
  SketchAuditor auditor;
  auditor.Enable(1.0, &registry);
  SketchAuditor::Channel* channel = auditor.ChannelFor(params.p, params.k);
  const double eps = AuditEpsilon(params.p, params.k);

  rng::Xoshiro256 gen(5);
  std::vector<double> scratch;
  uint64_t manual_violations = 0;
  double manual_worst = 0.0;
  constexpr int kPairs = 16;
  for (int pair = 0; pair < kPairs; ++pair) {
    table::Matrix a(8, 8);
    table::Matrix b(8, 8);
    for (double& v : a.Values()) v = gen.NextDouble() * 100.0;
    for (double& v : b.Values()) v = gen.NextDouble() * 100.0;
    const double exact = core::LpDistance(a.View(), b.View(), params.p);
    const auto sketch_a = sketcher.SketchOf(a.View());
    const auto sketch_b = sketcher.SketchOf(b.View());
    const double estimate =
        estimator.EstimateWithScratch(sketch_a.values, sketch_b.values,
                                      &scratch);
    channel->Record(exact, estimate);
    const double relerr = std::fabs(estimate / exact - 1.0);
    if (relerr > eps) ++manual_violations;
    if (relerr > manual_worst) manual_worst = relerr;
  }

  EXPECT_EQ(channel->samples(), static_cast<uint64_t>(kPairs));
  EXPECT_EQ(channel->violations(), manual_violations);
  EXPECT_NEAR(channel->worst_relerr(), manual_worst, 1e-12);
  // On a healthy 64-sketch family the bulk of the samples sit inside the
  // envelope, so violations are a strict minority of the fixture.
  EXPECT_LT(manual_violations, static_cast<uint64_t>(kPairs) / 2);
}

TEST(AuditGlobalTest, EnabledTracksGlobalRate) {
  SketchAuditor& global = SketchAuditor::Global();
  global.Disable();
  EXPECT_FALSE(SketchAuditor::Enabled());
  global.Enable(0.5);
  EXPECT_TRUE(SketchAuditor::Enabled());
  global.Disable();
  EXPECT_FALSE(SketchAuditor::Enabled());
  MetricsRegistry::Global().ResetValues();
}

}  // namespace
}  // namespace tabsketch
