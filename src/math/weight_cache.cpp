#include "math/weight_cache.h"

#include <map>
#include <mutex>

#include "math/poly.h"
#include "obs/registry.h"

namespace pisces::math {

namespace {

// Registry-held ("math.*") hit/miss counters.
obs::Counter& g_wc_hits =
    obs::RegisterCounter("math.wc_hits", "weight/Vandermonde cache hits");
obs::Counter& g_wc_misses =
    obs::RegisterCounter("math.wc_misses", "weight/Vandermonde cache misses");

// Cache key: context identity plus the raw limb dump of every point (points
// are in Montgomery form, which is canonical for a fixed modulus) and a size
// tag separating the xs set from the evaluation set / column count.
struct CacheKey {
  const FpCtx* ctx;
  std::vector<std::uint64_t> blob;

  bool operator<(const CacheKey& o) const {
    if (ctx != o.ctx) return ctx < o.ctx;
    return blob < o.blob;
  }
};

void AppendElems(std::vector<std::uint64_t>& blob,
                 std::span<const FpElem> elems) {
  blob.push_back(elems.size());
  for (const FpElem& e : elems) {
    blob.insert(blob.end(), e.v.begin(), e.v.end());
  }
}

struct Caches {
  std::mutex mu;
  std::map<CacheKey, std::shared_ptr<const std::vector<std::vector<FpElem>>>>
      weights;
  std::map<CacheKey, std::shared_ptr<const Matrix>> vandermonde;
};

Caches& Instance() {
  static Caches caches;
  return caches;
}

}  // namespace

std::shared_ptr<const std::vector<std::vector<FpElem>>> CachedLagrangeWeights(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points) {
  CacheKey key{&ctx, {}};
  AppendElems(key.blob, xs);
  AppendElems(key.blob, eval_points);

  Caches& c = Instance();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    auto it = c.weights.find(key);
    if (it != c.weights.end()) {
      g_wc_hits.Add();
      return it->second;
    }
  }
  g_wc_misses.Add();
  // Compute outside the lock: misses are rare and the computation is the
  // expensive part. Two racing misses insert identical values; first wins.
  auto value = std::make_shared<const std::vector<std::vector<FpElem>>>(
      LagrangeCoeffsMulti(ctx, xs, eval_points));
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.weights.size() >= kWeightCacheMaxEntries) c.weights.clear();
  return c.weights.emplace(std::move(key), std::move(value)).first->second;
}

std::shared_ptr<const Matrix> CachedVandermondeRows(const FpCtx& ctx,
                                                    std::span<const FpElem> xs,
                                                    std::size_t cols) {
  CacheKey key{&ctx, {}};
  AppendElems(key.blob, xs);
  key.blob.push_back(cols);

  Caches& c = Instance();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    auto it = c.vandermonde.find(key);
    if (it != c.vandermonde.end()) {
      g_wc_hits.Add();
      return it->second;
    }
  }
  g_wc_misses.Add();
  auto value =
      std::make_shared<const Matrix>(Vandermonde(ctx, xs, cols));
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.vandermonde.size() >= kWeightCacheMaxEntries) c.vandermonde.clear();
  return c.vandermonde.emplace(std::move(key), std::move(value)).first->second;
}

void ClearWeightCaches() {
  Caches& c = Instance();
  std::lock_guard<std::mutex> lock(c.mu);
  c.weights.clear();
  c.vandermonde.clear();
}

std::size_t WeightCacheSize() {
  Caches& c = Instance();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.weights.size() + c.vandermonde.size();
}

}  // namespace pisces::math
