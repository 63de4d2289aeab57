// Process-wide memo for the point-set-dependent precomputations that the
// protocol re-derives every window: Lagrange weight sets (reconstruction,
// VSS check rows) and Vandermonde evaluation rows (share generation, deal
// evaluation).
//
// Every refresh window rebuilds a VssBatch per file with the SAME holder and
// vanishing point sets, and every download recomputes the same reconstruction
// weights for the same responder set; each rebuild costs O(m^2) field
// multiplications plus a batch inversion. The caches here memoize those
// results keyed by (context, evaluation-point set), following the
// CachedHyperInvertible precedent in math/matrix.h.
//
// Invalidation rules (see docs/parallelism.md):
//   * entries are immutable once inserted -- handing out shared_ptr<const T>
//     means a cached value can never change under a reader, so lookups from
//     pool workers are safe;
//   * keys include the FpCtx address AND the full little-endian dump of the
//     point coordinates, so two contexts (or two point sets) never alias;
//   * the cache is wiped wholesale when it exceeds kMaxEntries -- eviction
//     never depends on timing or thread count, keeping runs reproducible.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "field/fp.h"
#include "math/matrix.h"

namespace pisces::math {

using field::FpCtx;
using field::FpElem;

// Upper bound on retained entries per cache before a wholesale clear. A
// cluster sweep touches a handful of point sets per (n, t, l) configuration;
// 256 comfortably covers every bench sweep while bounding memory.
inline constexpr std::size_t kWeightCacheMaxEntries = 256;

// Memoized LagrangeCoeffsMulti: weight vectors for `eval_points` over the
// base set `xs` (one batch inversion on a miss, pure lookup on a hit).
std::shared_ptr<const std::vector<std::vector<FpElem>>> CachedLagrangeWeights(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points);

// Memoized Vandermonde rows: row r holds xs[r]^0 .. xs[r]^{cols-1}. Dotting a
// row with a coefficient vector evaluates a degree <= cols-1 polynomial at
// xs[r]; cached so per-block share evaluation stops re-deriving the powers.
std::shared_ptr<const Matrix> CachedVandermondeRows(const FpCtx& ctx,
                                                    std::span<const FpElem> xs,
                                                    std::size_t cols);

// Test hook: drops every cached entry (both caches).
void ClearWeightCaches();
// Test hook: total entries currently held across both caches.
std::size_t WeightCacheSize();

// Hits and misses across both caches count into the obs registry as
// math.wc_hits / math.wc_misses (relaxed atomics -- observability only, never
// part of control flow). The driver snapshots the registry around each
// experiment window and the Recorder CSV carries the deltas, so a sweep shows
// how much precomputation the caches absorbed.

}  // namespace pisces::math
