#include "core/stable_matrix.h"

#include "rng/splitmix64.h"
#include "rng/stable.h"
#include "rng/xoshiro256.h"
#include "util/logging.h"

namespace tabsketch::core {

uint64_t StableMatrixSeed(uint64_t master_seed, size_t index, size_t rows,
                          size_t cols) {
  // Mix the shape and index into distinct substream seeds. Shapes and indices
  // are far below 2^21, so the packed word is collision-free.
  const uint64_t shape_tag = (static_cast<uint64_t>(rows) << 42) ^
                             (static_cast<uint64_t>(cols) << 21) ^
                             static_cast<uint64_t>(index);
  return rng::MixSeeds(master_seed, shape_tag);
}

table::Matrix StableRandomMatrix(const SketchParams& params, size_t index,
                                 size_t rows, size_t cols) {
  TABSKETCH_CHECK(params.Validate().ok()) << params.Validate();
  TABSKETCH_CHECK(index < params.k) << "matrix index " << index
                                    << " out of range k=" << params.k;
  // The same counter walk as SparseStableKernel (core/sparse_kernel.cc), so
  // bulk matrices and sparse kernels agree bit-for-bit.
  const uint64_t matrix_seed =
      StableMatrixSeed(params.seed, index, rows, cols);
  table::Matrix out(rows, cols);
  uint64_t counter = 0;
  for (double& value : out.Values()) {
    value = rng::SampleSparseStableAt(params.p, params.sparsity,
                                      rng::MixSeeds(matrix_seed, counter++));
  }
  return out;
}

std::vector<table::Matrix> StableRandomMatrices(const SketchParams& params,
                                                size_t rows, size_t cols) {
  std::vector<table::Matrix> out;
  out.reserve(params.k);
  for (size_t i = 0; i < params.k; ++i) {
    out.push_back(StableRandomMatrix(params, i, rows, cols));
  }
  return out;
}

}  // namespace tabsketch::core
