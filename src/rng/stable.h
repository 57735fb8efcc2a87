#ifndef TABSKETCH_RNG_STABLE_H_
#define TABSKETCH_RNG_STABLE_H_

#include "rng/distributions.h"
#include "rng/xoshiro256.h"
#include "util/result.h"

namespace tabsketch::rng {

/// Sampler for the standard symmetric alpha-stable distribution SaS(alpha)
/// (skewness beta = 0, unit scale, zero location), for alpha in (0, 2].
///
/// Stability property (the foundation of Lp sketching, paper Section 3.2):
/// if X_1..X_n ~ SaS(alpha) iid, then sum a_i X_i is distributed as
/// ||a||_alpha * X with X ~ SaS(alpha).
///
/// Sampling uses the Chambers-Mallows-Stuck (CMS) transform:
///   theta ~ Uniform(-pi/2, pi/2),  W ~ Exponential(1)
///   X = sin(alpha*theta) / cos(theta)^(1/alpha)
///       * (cos((1-alpha)*theta) / W)^((1-alpha)/alpha)
/// with the special cases alpha = 1 (Cauchy, X = tan(theta)) and alpha = 2
/// (Gaussian N(0,1) by our convention; see below) handled directly for speed
/// and exactness.
///
/// Normalization convention: at alpha = 2 the CMS transform produces N(0, 2);
/// we instead return N(0, 1) so that sum a_i X_i ~ ||a||_2 * N(0,1), matching
/// the Johnson-Lindenstrauss estimator used for L2 sketches. At alpha = 1 the
/// standard Cauchy already satisfies sum a_i X_i ~ ||a||_1 * Cauchy. For other
/// alpha the SaS(alpha) scale convention is the CMS one; the resulting
/// distance estimates are corrected by the B(p) factor of
/// core/scale_factor.h (paper Theorem 2).
class StableSampler {
 public:
  /// Creates a sampler for SaS(alpha). Returns InvalidArgument unless
  /// 0 < alpha <= 2.
  static util::Result<StableSampler> Create(double alpha);

  double alpha() const { return alpha_; }

  /// Draws one variate using `gen`.
  double Sample(Xoshiro256& gen);

 private:
  explicit StableSampler(double alpha);

  enum class Kind { kCauchy, kGaussian, kGeneral };

  double alpha_;
  Kind kind_;
  // Precomputed exponents for the general CMS branch.
  double inv_alpha_;
  double one_minus_alpha_over_alpha_;
  GaussianSampler gaussian_;
  CauchySampler cauchy_;
  ExponentialSampler exponential_;
};

/// Draws a single SaS(alpha) variate from a dedicated generator seeded with
/// `seed`, statelessly: the same (alpha, seed) always yields the same value.
///
/// This is the counter-based primitive behind the sketch family's random
/// matrices: entry (r, c) of matrix i is derived from a per-entry seed, so
/// bulk matrices and sparse kernels regenerate the same values independently
/// (core/stable_matrix.h). `alpha` must be in (0, 2].
double SampleStableAt(double alpha, uint64_t seed);

/// Very sparse stable variant (Ping Li): zero with probability 1 - sparsity,
/// otherwise SampleStableAt(alpha, seed) rescaled by sparsity^(-1/alpha) so
/// that sum a_i X_i still concentrates around ||a||_alpha at a variance cost
/// that shrinks as the support of `a` grows (DESIGN.md Section 16).
///
/// The support gate and the value draw are derived from independent mixes of
/// the same seed, so membership and magnitude are uncorrelated, and the same
/// (alpha, sparsity, seed) always yields the same value — the counter-based
/// random-access invariant carries over unchanged. sparsity >= 1 returns the
/// dense draw bit-identically (legacy families are the sparsity = 1 case).
/// `sparsity` must be in (0, 1].
double SampleSparseStableAt(double alpha, double sparsity, uint64_t seed);

}  // namespace tabsketch::rng

#endif  // TABSKETCH_RNG_STABLE_H_
