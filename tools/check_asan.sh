#!/usr/bin/env bash
# Builds the asan CMake preset and runs the tests that exercise the FFT
# engine's buffer handling (twiddle tables, reusable workspaces, pair
# packing, pruned passes) and the pool build that drives it, under
# AddressSanitizer + UndefinedBehaviorSanitizer.
#
# usage: tools/check_asan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

# The FFT/pool surface plus the seeded reader and parser fuzzing; the full
# suite also runs clean but takes much longer under the sanitizer.
ASAN_TESTS='Fft|Dft|Correlat|Twiddle|SketchPool|OddK|Sketcher|Metrics|MetricsSnapshot|MetricsTicker|Golden|EpsilonDelta|DyadicFactor|TraceRecorder|Audit|LruSketchCache|QueryEngine|ParseBatch|Serve|Admission|Snapshot|CodeKernels|CodePool|Quant|Growing|Streaming|StreamServe|BuildSuccessor|AppendPiece|Sparse|CorruptionRobustness|CodeFilter|NearestCandidate|KnnLookupOrder|KMeans|SketchBackend|CountRejection|NearestCentroidRejection'

ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-asan --output-on-failure \
        -R "${ASAN_TESTS}" "$@"

echo "asan: fft/pool tests clean"
