#include "core/lp_distance.h"

#include <cmath>

#include "util/logging.h"

namespace tabsketch::core {
namespace {

double SumAbsPow(std::span<const double> a, std::span<const double> b,
                 double p) {
  TABSKETCH_CHECK(a.size() == b.size())
      << "Lp distance between objects of different sizes: " << a.size()
      << " vs " << b.size();
  TABSKETCH_CHECK(p > 0.0) << "Lp distance requires p > 0, got " << p;
  double acc = 0.0;
  if (p == 1.0) {
    for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  } else if (p == 2.0) {
    for (size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      acc += d * d;
    }
  } else {
    for (size_t i = 0; i < a.size(); ++i) {
      acc += std::pow(std::fabs(a[i] - b[i]), p);
    }
  }
  return acc;
}

}  // namespace

double LpDistance(std::span<const double> a, std::span<const double> b,
                  double p) {
  const double acc = SumAbsPow(a, b, p);
  if (p == 1.0) return acc;
  if (p == 2.0) return std::sqrt(acc);
  return std::pow(acc, 1.0 / p);
}

double LpDistance(const table::TableView& a, const table::TableView& b,
                  double p) {
  TABSKETCH_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << "Lp distance between subtables of different shapes: " << a.rows()
      << "x" << a.cols() << " vs " << b.rows() << "x" << b.cols();
  TABSKETCH_CHECK(p > 0.0) << "Lp distance requires p > 0, got " << p;
  double acc = 0.0;
  for (size_t r = 0; r < a.rows(); ++r) {
    acc += SumAbsPow(a.Row(r), b.Row(r), p);
  }
  if (p == 1.0) return acc;
  if (p == 2.0) return std::sqrt(acc);
  return std::pow(acc, 1.0 / p);
}

}  // namespace tabsketch::core
