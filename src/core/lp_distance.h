#ifndef TABSKETCH_CORE_LP_DISTANCE_H_
#define TABSKETCH_CORE_LP_DISTANCE_H_

#include <span>

#include "table/matrix.h"

namespace tabsketch::core {

/// Exact Lp distance between two equal-length vectors:
///   ( sum_i |a_i - b_i|^p )^(1/p),  p > 0.
///
/// For p < 1 this is not a metric (the triangle inequality fails) but it is
/// exactly the dissimilarity the paper studies; as p -> 0 it approaches the
/// Hamming distance and strongly discounts outliers. Specialized fast paths
/// are taken for p = 1 and p = 2.
///
/// This routine is the exact baseline that sketching approximates; its cost
/// is linear in the object size, which is what makes comparisons between
/// large subtables expensive (paper Section 1).
double LpDistance(std::span<const double> a, std::span<const double> b,
                  double p);

/// Exact Lp distance between two subtables of identical dimensions,
/// treating each as its row-major linearization.
double LpDistance(const table::TableView& a, const table::TableView& b,
                  double p);

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_LP_DISTANCE_H_
