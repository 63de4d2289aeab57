// Packed Shamir secret sharing (Franklin-Yung [22] in the paper).
//
// A block of l secrets (s_1..s_l) is shared with one random polynomial f of
// degree <= d = t + l satisfying f(beta_j) = s_j; party i's share is
// f(alpha_i). Privacy holds against any t shares; any d+1 shares reconstruct.
//
// f is linear in (secrets, randomness): f = I + W*u with I the interpolant of
// the secrets at the betas, W the vanishing polynomial of the betas and u
// uniform of degree <= d - l. So f(alpha_i) is one dot product of a fixed
// generator row with [s_0..s_{l-1}, u_0..u_{d-l}] -- Shamir sharing as a
// systematic RS encoder -- and sharing a block needs no inversion.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "common/rng.h"
#include "math/matrix.h"
#include "math/poly.h"
#include "pss/params.h"

namespace pisces::pss {

using field::FpCtx;
using field::FpElem;

class PackedShamir {
 public:
  PackedShamir(std::shared_ptr<const FpCtx> ctx, Params params);

  const FpCtx& ctx() const { return *ctx_; }
  const Params& params() const { return params_; }
  const EvalPoints& points() const { return points_; }

  // Shares one block; secrets.size() must be exactly l. Returns n shares,
  // indexed by party: ShareBlocks on a single block.
  std::vector<FpElem> ShareBlock(std::span<const FpElem> secrets,
                                 Rng& rng) const;

  // Shares many blocks at once: out[b][i] is party i's share of block b.
  // Randomness is drawn serially in block order (so the result is
  // bit-identical to calling ShareBlock per block with the same rng, and to
  // Poly::RandomWithConstraints evaluated at each alpha), then the n generator
  // dots per block fan out over the global task pool. extra_cpu_ns
  // accumulates pool-worker CPU (see common/task_pool.h).
  std::vector<std::vector<FpElem>> ShareBlocks(
      std::span<const std::vector<FpElem>> blocks, Rng& rng,
      std::uint64_t* extra_cpu_ns = nullptr) const;

  // Reconstructs the l secrets of one block from the first d+1 shares held
  // by `parties` (ReconstructionWeights applied to them; extras are unused).
  std::vector<FpElem> ReconstructBlock(std::span<const std::uint32_t> parties,
                                       std::span<const FpElem> shares) const;

  // Reconstructs many blocks against one responder set: out[b] is the secret
  // block recovered from shares_by_block[b] (aligned with `parties`). The
  // Lagrange weights are computed once (memoized across calls, see
  // ReconstructionWeights) and the per-block weighted sums fan out over the
  // global task pool.
  std::vector<std::vector<FpElem>> ReconstructBlocks(
      std::span<const std::uint32_t> parties,
      std::span<const std::vector<FpElem>> shares_by_block,
      std::uint64_t* extra_cpu_ns = nullptr) const;

  // True iff the given (party, share) points lie on a degree <= d polynomial.
  bool ConsistentShares(std::span<const std::uint32_t> parties,
                        std::span<const FpElem> shares) const;

  // Reconstruction tolerating corrupted share values (Berlekamp-Welch):
  // succeeds when at most floor((parties.size() - d - 1) / 2) shares are
  // wrong -- with the paper's 3t + l < n this covers t actively corrupted
  // responders when all n respond. nullopt when decoding fails. When
  // `corrupted` is non-null it receives the indices into `parties` whose
  // shares disagreed with the decoded polynomial (empty on clean input).
  std::optional<std::vector<FpElem>> RobustReconstructBlock(
      std::span<const std::uint32_t> parties, std::span<const FpElem> shares,
      std::vector<std::size_t>* corrupted = nullptr) const;

  // Precomputed reconstruction weights: (*recon)[j][i] is the weight of
  // parties[i]'s share in secret j. Memoized process-wide per responder set
  // (math/weight_cache.h), so reconstructing many blocks -- or many files --
  // against the same responders pays the O(d^2) Lagrange work once.
  std::shared_ptr<const std::vector<std::vector<FpElem>>>
  ReconstructionWeights(std::span<const std::uint32_t> parties) const;

 private:
  // The n x (d+1) generator matrix, row i = [lambda_0(alpha_i) ..
  // lambda_{l-1}(alpha_i), W(alpha_i) * alpha_i^0 .. W(alpha_i) *
  // alpha_i^{d-l}] with lambda_j the Lagrange basis over the betas. Built on
  // the first share, so hosts (which never share) never pay for it.
  const math::Matrix& Generator() const;

  std::shared_ptr<const FpCtx> ctx_;
  Params params_;
  EvalPoints points_;
  mutable std::once_flag generator_once_;
  mutable math::Matrix generator_;
};

}  // namespace pisces::pss
