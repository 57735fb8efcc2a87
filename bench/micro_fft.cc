// Micro-benchmark of the FFT engine: 1-D transform throughput plus
// valid-mode correlate latency per kernel — single-kernel Correlate vs the
// real-pair-packed CorrelatePair — across transform sizes. Writes the rows
// to BENCH_fft.json so future FFT changes have a trajectory to compare
// against (twiddle tables, blocked 2-D passes, pair packing, ...).
//
// usage: micro_fft [size_list] [--metrics-json=FILE]
//   default sizes: 256,512,1024,2048

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "fft/complex_fft.h"
#include "fft/correlate.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/timer.h"

namespace {

using tabsketch::fft::CorrelationPlan;
using tabsketch::table::Matrix;

std::vector<size_t> ParseSizeList(const std::string& text) {
  std::vector<size_t> out;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    out.push_back(static_cast<size_t>(
        std::strtoull(text.substr(begin, end - begin).c_str(), nullptr, 10)));
    begin = end + 1;
  }
  return out;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  tabsketch::rng::Xoshiro256 gen(seed);
  Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 2.0 - 1.0;
  return out;
}

struct Row {
  size_t n;
  double fft1d_us;        // per 1-D transform of length n
  double correlate_ms;    // per kernel, single-kernel Correlate
  double pair_ms;         // per kernel, CorrelatePair (2 kernels per call)
};

// Tracked pair-speedup baselines per transform size, refreshed on current
// hardware. Historical note: the n=2048 entry used to pin a real-pair
// packing cliff (2.9x at 256 decaying to ~1.07x at 2048, the padded grid
// falling out of LLC); measured speedups now sit near 2x across the sweep,
// so the old values were stale in both directions — 256 was unreachable and
// 2048 masked any regression up to 2x. The assertion below keeps future
// drops visible against these measured values.
struct SpeedupBaseline {
  size_t n;
  double pair_speedup;
};
const SpeedupBaseline kPairSpeedupBaselines[] = {
    {256, 1.942}, {512, 1.809}, {1024, 1.965}, {2048, 2.177}};

// Wall-clock noise on shared runners is real; only flag a regression when
// the measured speedup drops below 60% of the recorded baseline, and call
// out a baseline refresh when it exceeds 150% (e.g. after the retiling
// lands).
constexpr double kRegressTolerance = 0.6;
constexpr double kImproveThreshold = 1.5;

double BaselineFor(size_t n) {
  for (const auto& entry : kPairSpeedupBaselines) {
    if (entry.n == n) return entry.pair_speedup;
  }
  return 0.0;  // unknown size: no baseline, no assertion
}

}  // namespace

int main(int argc, char** argv) {
  const tabsketch::util::ObservabilityArgs observability =
      tabsketch::util::EnableObservabilityFromArgs(&argc, argv);
  const std::vector<size_t> sizes =
      argc > 1 ? ParseSizeList(argv[1])
               : std::vector<size_t>{256, 512, 1024, 2048};

  std::printf("=== Micro-benchmark: FFT engine ===\n");
  std::printf("%6s %12s %16s %16s %10s\n", "n", "fft1d_us", "corr_ms/kern",
              "pair_ms/kern", "pair_gain");

  std::vector<Row> rows;
  for (size_t n : sizes) {
    Row row{};
    row.n = n;
    tabsketch::rng::Xoshiro256 gen(n);

    {
      // 1-D: forward/inverse round trips keep the signal bounded.
      std::vector<std::complex<double>> line(n);
      for (auto& value : line) {
        value = {gen.NextDouble() - 0.5, gen.NextDouble() - 0.5};
      }
      const size_t reps = (1u << 22) / n + 1;
      tabsketch::fft::Forward(line);  // warm the twiddle cache
      tabsketch::fft::Inverse(line);
      tabsketch::util::WallTimer timer;
      for (size_t r = 0; r < reps; ++r) {
        tabsketch::fft::Forward(line);
        tabsketch::fft::Inverse(line);
      }
      row.fft1d_us =
          timer.ElapsedSeconds() * 1e6 / (2.0 * static_cast<double>(reps));
    }

    {
      // Correlate at the pool build's shape: data n x n, kernels n/4 x n/4
      // (a middle rung of the dyadic ladder).
      const Matrix data = RandomMatrix(n, n, 17 * n + 1);
      const size_t kernel_side = n >= 4 ? n / 4 : 1;
      const Matrix kernel_a = RandomMatrix(kernel_side, kernel_side, 29);
      const Matrix kernel_b = RandomMatrix(kernel_side, kernel_side, 31);
      const CorrelationPlan plan(data);
      const size_t reps = (1u << 24) / (n * n) + 4;

      (void)plan.Correlate(kernel_a);  // warm per-thread workspaces
      tabsketch::util::WallTimer single;
      for (size_t r = 0; r < reps; ++r) {
        (void)plan.Correlate(kernel_a);
        (void)plan.Correlate(kernel_b);
      }
      row.correlate_ms =
          single.ElapsedSeconds() * 1e3 / (2.0 * static_cast<double>(reps));

      tabsketch::util::WallTimer paired;
      for (size_t r = 0; r < reps; ++r) {
        (void)plan.CorrelatePair(kernel_a, kernel_b);
      }
      row.pair_ms =
          paired.ElapsedSeconds() * 1e3 / (2.0 * static_cast<double>(reps));
    }

    rows.push_back(row);
    std::printf("%6zu %12.2f %16.3f %16.3f %9.2fx\n", row.n, row.fft1d_us,
                row.correlate_ms, row.pair_ms,
                row.correlate_ms / row.pair_ms);
  }

  // Assert each measured pair speedup against its tracked baseline.
  bool regressed = false;
  std::vector<const char*> statuses(rows.size(), "untracked");
  for (size_t i = 0; i < rows.size(); ++i) {
    const double baseline = BaselineFor(rows[i].n);
    if (baseline <= 0.0) continue;
    const double speedup = rows[i].correlate_ms / rows[i].pair_ms;
    if (speedup < baseline * kRegressTolerance) {
      statuses[i] = "regressed";
      regressed = true;
      std::fprintf(stderr,
                   "FAIL: n=%zu pair_speedup %.3f below %.0f%% of baseline "
                   "%.3f\n",
                   rows[i].n, speedup, kRegressTolerance * 100.0, baseline);
    } else if (speedup > baseline * kImproveThreshold) {
      statuses[i] = "improved-update-baseline";
      std::printf("note: n=%zu pair_speedup %.3f beats baseline %.3f by "
                  ">%.0f%%; refresh kPairSpeedupBaselines\n",
                  rows[i].n, speedup, baseline,
                  (kImproveThreshold - 1.0) * 100.0);
    } else {
      statuses[i] = "ok";
    }
  }

  const bool written = tabsketch::bench::WriteBenchJson(
      "BENCH_fft.json", "micro_fft", [&](std::FILE* json) {
        std::fprintf(json,
                     "  \"kernel_side\": \"n/4\",\n"
                     "  \"pair_speedup_tolerance\": %.2f,\n"
                     "  \"results\": [\n",
                     kRegressTolerance);
        for (size_t i = 0; i < rows.size(); ++i) {
          std::fprintf(json,
                       "    {\"n\": %zu, \"fft1d_us\": %.3f, "
                       "\"correlate_ms_per_kernel\": %.4f, "
                       "\"pair_ms_per_kernel\": %.4f, "
                       "\"pair_speedup\": %.3f, "
                       "\"pair_speedup_baseline\": %.3f, "
                       "\"status\": \"%s\"}%s\n",
                       rows[i].n, rows[i].fft1d_us, rows[i].correlate_ms,
                       rows[i].pair_ms,
                       rows[i].correlate_ms / rows[i].pair_ms,
                       BaselineFor(rows[i].n), statuses[i],
                       i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json, "  ]\n");
      });
  if (!written) return 1;
  if (!tabsketch::util::FlushObservability(observability)) return 1;
  return regressed ? 1 : 0;
}
