#ifndef TABSKETCH_CORE_STABLE_MATRIX_H_
#define TABSKETCH_CORE_STABLE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sketch_params.h"
#include "table/matrix.h"

namespace tabsketch::core {

/// Deterministic seed of the index-th random matrix of shape rows x cols in
/// the sketch family identified by `master_seed`. The same (seed, index,
/// shape) always regenerates bit-identical matrices, which is what makes
/// sketches produced in different places (single-tile sketching, FFT sketch
/// fields, pools, saved-and-reloaded runs) mutually comparable.
uint64_t StableMatrixSeed(uint64_t master_seed, size_t index, size_t rows,
                          size_t cols);

/// Generates the index-th random matrix R[index] of the family: rows x cols
/// entries drawn iid from the symmetric p-stable distribution SaS(params.p)
/// (paper Section 3.3, "pre-processing phase"), gated and rescaled per entry
/// when params.sparsity < 1. `params` must be valid.
table::Matrix StableRandomMatrix(const SketchParams& params, size_t index,
                                 size_t rows, size_t cols);

/// Generates all k matrices of the family for the given shape.
std::vector<table::Matrix> StableRandomMatrices(const SketchParams& params,
                                                size_t rows, size_t cols);

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_STABLE_MATRIX_H_
