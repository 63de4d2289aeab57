#include "pss/packed_shamir.h"

#include "common/task_pool.h"
#include "math/berlekamp_welch.h"
#include "math/weight_cache.h"

namespace pisces::pss {

PackedShamir::PackedShamir(std::shared_ptr<const FpCtx> ctx, Params params)
    : ctx_(std::move(ctx)),
      params_(params),
      points_(*ctx_, params.n, params.l) {
  params_.Validate();
}

std::vector<FpElem> PackedShamir::ShareBlock(std::span<const FpElem> secrets,
                                             Rng& rng) const {
  const std::vector<FpElem> block(secrets.begin(), secrets.end());
  return std::move(ShareBlocks({&block, 1}, rng)[0]);
}

const math::Matrix& PackedShamir::Generator() const {
  std::call_once(generator_once_, [this] {
    const std::size_t l = params_.l;
    const std::size_t d = params_.degree();
    auto lagrange =
        math::CachedLagrangeWeights(*ctx_, points_.betas(), points_.alphas());
    const math::Poly w = math::Poly::Vanishing(*ctx_, points_.betas());
    generator_ = math::Matrix(params_.n, d + 1);
    for (std::size_t i = 0; i < params_.n; ++i) {
      for (std::size_t j = 0; j < l; ++j) {
        generator_.At(i, j) = (*lagrange)[i][j];
      }
      // Column l + k holds W(alpha_i) * alpha_i^k.
      FpElem wx = w.Eval(*ctx_, points_.alpha(i));
      for (std::size_t k = l; k <= d; ++k) {
        generator_.At(i, k) = wx;
        wx = ctx_->Mul(wx, points_.alpha(i));
      }
    }
  });
  return generator_;
}

std::vector<std::vector<FpElem>> PackedShamir::ShareBlocks(
    std::span<const std::vector<FpElem>> blocks, Rng& rng,
    std::uint64_t* extra_cpu_ns) const {
  const std::size_t l = params_.l;
  const std::size_t m = params_.degree() - l + 1;  // mask coefficients
  for (const auto& block : blocks) {
    Require(block.size() == l, "ShareBlocks: need exactly l secrets");
  }
  const math::Matrix& gen = Generator();
  // Serial draw in block order, each block's mask u drawn as
  // Poly::Random(d - l) draws it: this keeps multi-threaded runs
  // bit-identical to serial ones.
  std::vector<FpElem> masks(blocks.size() * m);
  for (FpElem& u : masks) u = ctx_->Random(rng);
  std::vector<std::vector<FpElem>> out(
      blocks.size(), std::vector<FpElem>(params_.n, ctx_->Zero()));
  GlobalPool().ParallelFor(
      0, blocks.size(),
      [&](std::size_t b) {
        // [s_0..s_{l-1}, u_0..u_{d-l}], the vector every row is dotted with.
        std::vector<FpElem> v(blocks[b]);
        v.insert(v.end(), masks.begin() + b * m, masks.begin() + (b + 1) * m);
        for (std::size_t i = 0; i < params_.n; ++i) {
          out[b][i] = ctx_->Dot(gen.Row(i), v);
        }
      },
      extra_cpu_ns);
  return out;
}

std::vector<FpElem> PackedShamir::ReconstructBlock(
    std::span<const std::uint32_t> parties,
    std::span<const FpElem> shares) const {
  Require(parties.size() == shares.size(), "ReconstructBlock: size mismatch");
  auto weights = ReconstructionWeights(parties);
  std::vector<FpElem> secrets;
  secrets.reserve(params_.l);
  for (const auto& w : *weights) {
    secrets.push_back(math::PointChecker::Apply(*ctx_, w, shares));
  }
  return secrets;
}

bool PackedShamir::ConsistentShares(std::span<const std::uint32_t> parties,
                                    std::span<const FpElem> shares) const {
  std::vector<FpElem> xs = points_.AlphasOf(parties);
  return math::PointsOnLowDegree(*ctx_, xs, shares, params_.degree());
}

std::optional<std::vector<FpElem>> PackedShamir::RobustReconstructBlock(
    std::span<const std::uint32_t> parties, std::span<const FpElem> shares,
    std::vector<std::size_t>* corrupted) const {
  Require(parties.size() == shares.size(),
          "RobustReconstructBlock: size mismatch");
  const std::size_t d = params_.degree();
  if (parties.size() < d + 1) return std::nullopt;
  std::vector<FpElem> xs = points_.AlphasOf(parties);
  const std::size_t max_errors = (parties.size() - d - 1) / 2;
  auto f = math::RobustInterpolate(*ctx_, xs, shares, d, max_errors);
  if (!f) return std::nullopt;
  if (corrupted != nullptr) *corrupted = math::Mismatches(*ctx_, *f, xs, shares);
  std::vector<FpElem> secrets;
  secrets.reserve(params_.l);
  for (std::size_t j = 0; j < params_.l; ++j) {
    secrets.push_back(f->Eval(*ctx_, points_.beta(j)));
  }
  return secrets;
}

std::shared_ptr<const std::vector<std::vector<FpElem>>>
PackedShamir::ReconstructionWeights(
    std::span<const std::uint32_t> parties) const {
  Require(parties.size() >= params_.degree() + 1,
          "ReconstructionWeights: not enough parties");
  std::vector<FpElem> xs = points_.AlphasOf(parties);
  std::span<const FpElem> xs_used(xs.data(), params_.degree() + 1);
  return math::CachedLagrangeWeights(*ctx_, xs_used, points_.betas());
}

std::vector<std::vector<FpElem>> PackedShamir::ReconstructBlocks(
    std::span<const std::uint32_t> parties,
    std::span<const std::vector<FpElem>> shares_by_block,
    std::uint64_t* extra_cpu_ns) const {
  auto weights = ReconstructionWeights(parties);
  const std::size_t m = params_.degree() + 1;
  for (const auto& shares : shares_by_block) {
    Require(shares.size() == parties.size(),
            "ReconstructBlocks: size mismatch");
  }
  std::vector<std::vector<FpElem>> out(
      shares_by_block.size(), std::vector<FpElem>(params_.l, ctx_->Zero()));
  GlobalPool().ParallelFor(
      0, shares_by_block.size(),
      [&](std::size_t b) {
        std::span<const FpElem> ys(shares_by_block[b].data(), m);
        for (std::size_t j = 0; j < params_.l; ++j) {
          out[b][j] = math::PointChecker::Apply(*ctx_, (*weights)[j], ys);
        }
      },
      extra_cpu_ns);
  return out;
}

}  // namespace pisces::pss
