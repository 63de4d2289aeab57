#include "math/poly_engine.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "math/weight_cache.h"  // kWeightCacheMaxEntries: shared cap policy
#include "obs/registry.h"

namespace pisces::math {

namespace {

obs::Counter& g_pd_hits =
    obs::RegisterCounter("math.pd_hits", "poly-domain (subproduct tree) cache hits");
obs::Counter& g_pd_misses =
    obs::RegisterCounter("math.pd_misses", "poly-domain (subproduct tree) cache misses");
obs::Counter& g_tree_interps =
    obs::RegisterCounter("math.tree_interps", "interpolations on a subproduct tree");

// Karatsuba recurses while both operands are larger than this; below it the
// lazy-dot schoolbook convolution (one Montgomery reduction per output
// coefficient) is faster than the recursion's add/copy overhead.
constexpr std::size_t kKaratsubaBase = 24;

// Subproduct-tree leaves cover at most this many points; leaf work (the
// synthetic-division combination) is O(leaf^2) with tiny constants, so small
// leaves just add node overhead.
constexpr std::size_t kTreeLeafSize = 8;

// out[k] = sum_{i+j=k} a[i]*b[j], one wide reduction per coefficient.
std::vector<FpElem> SchoolbookMul(const FpCtx& ctx, std::span<const FpElem> a,
                                  std::span<const FpElem> b) {
  std::vector<FpElem> out(a.size() + b.size() - 1);
  field::DotAcc acc(ctx);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t lo = k >= b.size() ? k - b.size() + 1 : 0;
    const std::size_t hi = std::min(a.size() - 1, k);
    acc.Reset();
    for (std::size_t i = lo; i <= hi; ++i) acc.MulAdd(a[i], b[k - i]);
    out[k] = acc.Reduce();
  }
  return out;
}

std::vector<FpElem> MulRec(const FpCtx& ctx, std::span<const FpElem> a,
                           std::span<const FpElem> b) {
  if (a.size() < b.size()) std::swap(a, b);
  if (b.size() <= kKaratsubaBase) return SchoolbookMul(ctx, a, b);
  const std::size_t h = (a.size() + 1) / 2;
  std::span<const FpElem> a0 = a.first(h);
  std::span<const FpElem> a1 = a.subspan(h);
  std::vector<FpElem> out(a.size() + b.size() - 1, ctx.Zero());
  if (b.size() <= h) {
    // Unbalanced split: b * (a0 + x^h * a1) as two recursive products.
    std::vector<FpElem> lo = MulRec(ctx, a0, b);
    std::vector<FpElem> hi = MulRec(ctx, a1, b);
    for (std::size_t i = 0; i < lo.size(); ++i) out[i] = lo[i];
    for (std::size_t i = 0; i < hi.size(); ++i) {
      out[h + i] = ctx.Add(out[h + i], hi[i]);
    }
    return out;
  }
  std::span<const FpElem> b0 = b.first(h);
  std::span<const FpElem> b1 = b.subspan(h);
  std::vector<FpElem> z0 = MulRec(ctx, a0, b0);
  std::vector<FpElem> z2 = MulRec(ctx, a1, b1);
  std::vector<FpElem> as(a0.begin(), a0.end());
  for (std::size_t i = 0; i < a1.size(); ++i) as[i] = ctx.Add(as[i], a1[i]);
  std::vector<FpElem> bs(b0.begin(), b0.end());
  for (std::size_t i = 0; i < b1.size(); ++i) bs[i] = ctx.Add(bs[i], b1[i]);
  std::vector<FpElem> z1 = MulRec(ctx, as, bs);
  for (std::size_t i = 0; i < z0.size(); ++i) out[i] = z0[i];
  for (std::size_t i = 0; i < z2.size(); ++i) {
    out[2 * h + i] = ctx.Add(out[2 * h + i], z2[i]);
  }
  for (std::size_t i = 0; i < z1.size(); ++i) {
    FpElem mid = z1[i];
    if (i < z0.size()) mid = ctx.Sub(mid, z0[i]);
    if (i < z2.size()) mid = ctx.Sub(mid, z2[i]);
    out[h + i] = ctx.Add(out[h + i], mid);
  }
  return out;
}

}  // namespace

std::vector<FpElem> MulPolys(const FpCtx& ctx, std::span<const FpElem> a,
                             std::span<const FpElem> b) {
  if (a.empty() || b.empty()) return {};
  return MulRec(ctx, a, b);
}

SubproductTree::SubproductTree(const FpCtx& ctx, std::vector<FpElem> xs)
    : ctx_(&ctx), xs_(std::move(xs)) {
  Require(!xs_.empty(), "SubproductTree: empty point set");
  const std::size_t m = xs_.size();
  nodes_.reserve(4 * (m / kTreeLeafSize + 1));
  root_ = Build(0, m);
  // Barycentric weights: P'(x_i) for all i by Horner on the derivative, then
  // a single batch inversion. A zero derivative value is exactly a repeated
  // point.
  const std::vector<FpElem>& pc = nodes_[root_].poly;
  std::vector<FpElem> dp(m);
  FpElem idx = ctx_->Zero();
  for (std::size_t i = 1; i <= m; ++i) {
    idx = ctx_->Add(idx, ctx_->One());
    dp[i - 1] = ctx_->Mul(pc[i], idx);
  }
  inv_derivs_ = EvalMany(*ctx_, dp, xs_);
  for (const FpElem& d : inv_derivs_) {
    Require(!ctx_->IsZero(d), "SubproductTree: duplicate point");
  }
  ctx_->BatchInv(inv_derivs_);
}

std::size_t SubproductTree::Build(std::size_t begin, std::size_t count) {
  Node n;
  n.begin = begin;
  n.count = count;
  if (count <= kTreeLeafSize) {
    n.left = n.right = npos;
    // Small monic vanishing polynomial, built root by root.
    n.poly.assign(1, ctx_->One());
    for (std::size_t i = 0; i < count; ++i) {
      const FpElem& root = xs_[begin + i];
      n.poly.push_back(ctx_->Zero());
      for (std::size_t j = n.poly.size() - 1; j-- > 0;) {
        n.poly[j + 1] = ctx_->Add(n.poly[j + 1], n.poly[j]);
        n.poly[j] = ctx_->Neg(ctx_->Mul(n.poly[j], root));
      }
    }
  } else {
    const std::size_t half = count / 2;
    n.left = Build(begin, half);
    n.right = Build(begin + half, count - half);
    n.poly = MulPolys(*ctx_, nodes_[n.left].poly, nodes_[n.right].poly);
  }
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

const std::vector<FpElem>& SubproductTree::root() const {
  return nodes_[root_].poly;
}

std::vector<FpElem> SubproductTree::UpCombine(
    std::size_t node_idx, std::span<const FpElem> scaled) const {
  const Node& n = nodes_[node_idx];
  if (n.left == npos) {
    // sum_i scaled[i] * poly/(x - x_i); each quotient by synthetic division
    // (the node polynomial is monic), O(count^2) at leaf sizes.
    std::vector<FpElem> out(n.count, ctx_->Zero());
    std::vector<FpElem> qi(n.count);
    for (std::size_t i = 0; i < n.count; ++i) {
      const FpElem& x = xs_[n.begin + i];
      FpElem carry = n.poly[n.count];  // leading coefficient (== 1)
      for (std::size_t j = n.count; j-- > 0;) {
        qi[j] = carry;
        carry = ctx_->Add(n.poly[j], ctx_->Mul(carry, x));
      }
      const FpElem& s = scaled[n.begin + i];
      if (ctx_->IsZero(s)) continue;
      for (std::size_t j = 0; j < n.count; ++j) {
        out[j] = ctx_->Add(out[j], ctx_->Mul(s, qi[j]));
      }
    }
    return out;
  }
  const std::vector<FpElem> fl = UpCombine(n.left, scaled);
  const std::vector<FpElem> fr = UpCombine(n.right, scaled);
  std::vector<FpElem> a = MulPolys(*ctx_, fl, nodes_[n.right].poly);
  const std::vector<FpElem> b = MulPolys(*ctx_, fr, nodes_[n.left].poly);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = ctx_->Add(a[i], b[i]);
  return a;  // n.count coefficients
}

std::vector<FpElem> SubproductTree::Interpolate(
    std::span<const FpElem> ys) const {
  Require(ys.size() == xs_.size(), "SubproductTree: ys size mismatch");
  std::vector<FpElem> scaled(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    scaled[i] = ctx_->Mul(ys[i], inv_derivs_[i]);
  }
  g_tree_interps.Add();
  return UpCombine(root_, scaled);
}

std::vector<FpElem> EvalMany(const FpCtx& ctx, std::span<const FpElem> f,
                             std::span<const FpElem> xs) {
  std::vector<FpElem> out(xs.size(), ctx.Zero());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    FpElem acc = ctx.Zero();
    for (std::size_t j = f.size(); j-- > 0;) {
      acc = ctx.Add(ctx.Mul(acc, xs[i]), f[j]);
    }
    out[i] = acc;
  }
  return out;
}

namespace {

// Domain cache, following math/weight_cache.cpp to the letter: context
// address + little-endian coordinate dump as the key, immutable shared_ptr
// values, compute-outside-lock (racing misses insert identical trees; first
// wins), wholesale clear past the cap so eviction never depends on timing.
struct DomainKey {
  const FpCtx* ctx;
  std::vector<std::uint64_t> blob;

  bool operator<(const DomainKey& o) const {
    if (ctx != o.ctx) return ctx < o.ctx;
    return blob < o.blob;
  }
};

struct DomainCache {
  std::mutex mu;
  std::map<DomainKey, std::shared_ptr<const SubproductTree>> trees;
};

DomainCache& Domains() {
  static DomainCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const SubproductTree> CachedSubproductTree(
    const FpCtx& ctx, std::span<const FpElem> xs) {
  DomainKey key{&ctx, {}};
  key.blob.reserve(1 + xs.size() * field::kMaxLimbs);
  key.blob.push_back(xs.size());
  for (const FpElem& e : xs) {
    key.blob.insert(key.blob.end(), e.v.begin(), e.v.end());
  }

  DomainCache& c = Domains();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    auto it = c.trees.find(key);
    if (it != c.trees.end()) {
      g_pd_hits.Add();
      return it->second;
    }
  }
  g_pd_misses.Add();
  auto value = std::make_shared<const SubproductTree>(
      ctx, std::vector<FpElem>(xs.begin(), xs.end()));
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.trees.size() >= kWeightCacheMaxEntries) c.trees.clear();
  return c.trees.emplace(std::move(key), std::move(value)).first->second;
}

void ClearPolyDomainCache() {
  DomainCache& c = Domains();
  std::lock_guard<std::mutex> lock(c.mu);
  c.trees.clear();
}

std::size_t PolyDomainCacheSize() {
  DomainCache& c = Domains();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.trees.size();
}

}  // namespace pisces::math
