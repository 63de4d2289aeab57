// Polynomials over F_p: the algebraic core of packed secret sharing.
//
// Shares are evaluations of degree-<=d polynomials; secrets sit at the packed
// evaluation points beta_1..beta_l; refresh deals polynomials constrained to
// vanish on a point set. Everything here is coefficient-form. The generic
// algorithms are O(m^2), ample for the paper's degrees (d = t + l <= ~40);
// above PolyEngineCrossover() points the entry points dispatch to the
// quasi-linear subproduct-tree engine (math/poly_engine.h), which computes
// bit-identical elements (F_p arithmetic is exact, Montgomery form is
// canonical), so callers never see which path ran.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"

namespace pisces::math {

using field::FpCtx;
using field::FpElem;

class Poly {
 public:
  Poly() = default;  // the zero polynomial
  explicit Poly(std::vector<FpElem> coeffs) : c_(std::move(coeffs)) {}

  // Number of coefficients; the zero polynomial has size 0. degree() is
  // size()-1 with the convention that deg(0) reports 0.
  std::size_t size() const { return c_.size(); }
  std::size_t degree() const { return c_.empty() ? 0 : c_.size() - 1; }
  bool IsZero(const FpCtx& ctx) const;

  const std::vector<FpElem>& coeffs() const { return c_; }

  FpElem Eval(const FpCtx& ctx, const FpElem& x) const;

  // Uniformly random polynomial of degree <= deg (deg+1 coefficients).
  static Poly Random(const FpCtx& ctx, Rng& rng, std::size_t deg);

  // Uniformly random polynomial f of degree <= deg subject to
  // f(xs[i]) == ys[i] for all i. Requires distinct xs and xs.size() <= deg+1.
  // The result is f = W(x)*u(x) + I(x) with W the vanishing polynomial of xs,
  // u uniform of degree <= deg - xs.size(), and I the interpolant. Packed
  // sharing draws u exactly as this does but evaluates f through a cached
  // generator matrix (pss/packed_shamir.h); this stays as its test oracle.
  static Poly RandomWithConstraints(const FpCtx& ctx, Rng& rng,
                                    std::size_t deg,
                                    std::span<const FpElem> xs,
                                    std::span<const FpElem> ys);

  // Unique interpolating polynomial of degree <= xs.size()-1 in coefficient
  // form. xs must be distinct. Dispatches to the subproduct-tree engine
  // (math/poly_engine.h) above PolyEngineCrossover() points and to the
  // generic Lagrange path below it; both compute the exact same elements.
  static Poly Interpolate(const FpCtx& ctx, std::span<const FpElem> xs,
                          std::span<const FpElem> ys);

  // The generic O(m^2) Lagrange interpolation, always taken regardless of
  // size: the differential oracle for the engine and the bench baseline.
  static Poly InterpolateLagrange(const FpCtx& ctx, std::span<const FpElem> xs,
                                  std::span<const FpElem> ys);

  static Poly Add(const FpCtx& ctx, const Poly& a, const Poly& b);
  static Poly Mul(const FpCtx& ctx, const Poly& a, const Poly& b);

  // Vanishing polynomial prod_i (x - xs[i]).
  static Poly Vanishing(const FpCtx& ctx, std::span<const FpElem> xs);

  // Euclidean division: a = q*b + r with deg(r) < deg(b). b must be nonzero.
  static std::pair<Poly, Poly> DivMod(const FpCtx& ctx, const Poly& a,
                                      const Poly& b);

  // Drops zero leading coefficients (degree normalization).
  Poly Trimmed(const FpCtx& ctx) const;

 private:
  std::vector<FpElem> c_;  // c_[i] is the coefficient of x^i
};

// f(x) for the interpolant of (xs, ys), evaluated directly (no coefficient
// form). O(m^2); the workhorse of reconstruction.
FpElem LagrangeEval(const FpCtx& ctx, std::span<const FpElem> xs,
                    std::span<const FpElem> ys, const FpElem& x);

// Weights w_i with f(x) = sum_i w_i * ys[i] for any degree <= xs.size()-1
// interpolant. Reused across many blocks sharing the same point set.
std::vector<FpElem> LagrangeCoeffs(const FpCtx& ctx,
                                   std::span<const FpElem> xs,
                                   const FpElem& x);

// Weight vectors for many evaluation points over one base set, sharing a
// single batch inversion of the (point-independent) denominators. This is
// the cheap path for hyperinvertible-matrix and checker construction.
std::vector<std::vector<FpElem>> LagrangeCoeffsMulti(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points);

// True iff the points (xs, ys) lie on a polynomial of degree <= deg.
// This is the well-formedness check used by VSS verifiers.
bool PointsOnLowDegree(const FpCtx& ctx, std::span<const FpElem> xs,
                       std::span<const FpElem> ys, std::size_t deg);

// The same check, handing back the polynomial it built: the interpolant of
// the first deg+1 points if every point lies on it, else nullopt. Requires
// xs.size() >= deg+1.
std::optional<Poly> LowDegreeInterpolant(const FpCtx& ctx,
                                         std::span<const FpElem> xs,
                                         std::span<const FpElem> ys,
                                         std::size_t deg);

// Precomputed consistency/evaluation machinery for a fixed point set.
//
// Construction does all the Lagrange work (one batch inversion per weight
// vector); Consistent() and EvalAt() are then multiplication-only, which
// matters when the same point set is checked for hundreds of blocks (VSS
// check rows, recovery of a whole file).
class PointChecker {
 public:
  // xs must have at least deg+1 distinct entries.
  PointChecker(const FpCtx& ctx, std::vector<FpElem> xs, std::size_t deg);

  // ys (aligned with xs) lies on a polynomial of degree <= deg?
  bool Consistent(std::span<const FpElem> ys) const;

  // f(x) where f interpolates the first deg+1 points.
  FpElem EvalAt(const FpElem& x, std::span<const FpElem> ys) const;
  // Same, with the weight vector reused across calls.
  std::vector<FpElem> WeightsAt(const FpElem& x) const;
  static FpElem Apply(const FpCtx& ctx, std::span<const FpElem> weights,
                      std::span<const FpElem> ys);

  std::size_t deg() const { return deg_; }

 private:
  const FpCtx* ctx_;
  std::vector<FpElem> xs_;
  std::size_t deg_;
  // extra_weights_[e][k]: weight of ys[k] when predicting ys[deg+1+e].
  std::vector<std::vector<FpElem>> extra_weights_;
};

}  // namespace pisces::math
