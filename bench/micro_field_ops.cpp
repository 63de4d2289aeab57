// Microbenchmarks of the field and polynomial substrate (google-benchmark):
// the primitive costs behind every figure. Field ops dominate the protocol,
// so this is where the g parameter's cost physically lives.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench_common.h"
#include "crypto/ca.h"
#include "crypto/chacha20.h"
#include "crypto/channel.h"
#include "field/primes.h"
#include "math/poly.h"
#include "math/poly_engine.h"
#include "pss/packed_shamir.h"

namespace {

using pisces::Rng;
using pisces::field::FpCtx;
using pisces::field::FpElem;
using pisces::field::StandardPrimeBe;

const FpCtx& CtxFor(std::size_t bits) {
  static std::map<std::size_t, std::unique_ptr<FpCtx>> ctxs;
  auto it = ctxs.find(bits);
  if (it == ctxs.end()) {
    it = ctxs.emplace(bits, std::make_unique<FpCtx>(StandardPrimeBe(bits)))
             .first;
  }
  return *it->second;
}

// Generic runtime-width CIOS path (the pre-specialization baseline): the
// Generic-suffixed benchmarks below measure the same op on this context, so
// specialized/generic ratios come straight out of one run.
const FpCtx& GenericCtxFor(std::size_t bits) {
  static std::map<std::size_t, std::unique_ptr<FpCtx>> ctxs;
  auto it = ctxs.find(bits);
  if (it == ctxs.end()) {
    it = ctxs.emplace(bits, std::make_unique<FpCtx>(
                                StandardPrimeBe(bits),
                                pisces::field::KernelDispatch::kGeneric))
             .first;
  }
  return *it->second;
}

constexpr std::size_t kDotLen = 32;

void BM_FieldMul(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(1);
  FpElem a = ctx.Random(rng), b = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldMulGeneric(benchmark::State& state) {
  const FpCtx& ctx = GenericCtxFor(state.range(0));
  Rng rng(1);
  FpElem a = ctx.Random(rng), b = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMulGeneric)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldSqr(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(8);
  FpElem a = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Sqr(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldSqr)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldSqrGeneric(benchmark::State& state) {
  const FpCtx& ctx = GenericCtxFor(state.range(0));
  Rng rng(8);
  FpElem a = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Sqr(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldSqrGeneric)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

// Lazy-reduction dot product (one wide reduction per output) vs the naive
// Add(Mul(...)) fold it replaced in MulVec / Lagrange / VSS hot loops.
void BM_FieldDot(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(9);
  std::vector<FpElem> a, b;
  for (std::size_t i = 0; i < kDotLen; ++i) {
    a.push_back(ctx.Random(rng));
    b.push_back(ctx.Random(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Dot(a, b));
  }
}
BENCHMARK(BM_FieldDot)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldDotNaive(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(9);
  std::vector<FpElem> a, b;
  for (std::size_t i = 0; i < kDotLen; ++i) {
    a.push_back(ctx.Random(rng));
    b.push_back(ctx.Random(rng));
  }
  for (auto _ : state) {
    FpElem acc = ctx.Zero();
    for (std::size_t i = 0; i < kDotLen; ++i) {
      acc = ctx.Add(acc, ctx.Mul(a[i], b[i]));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldDotNaive)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FieldAdd(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(2);
  FpElem a = ctx.Random(rng), b = ctx.Random(rng);
  for (auto _ : state) {
    a = ctx.Add(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldAdd)->Arg(256)->Arg(2048);

void BM_FieldInv(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(3);
  FpElem a = ctx.RandomNonZero(rng);
  for (auto _ : state) {
    a = ctx.Inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInv)->Arg(256)->Arg(1024);

// Batch inversion over the poly-engine point counts (256-bit field): one Inv
// plus 3(m-1) muls, vs m full Inv exponentiations without the trick.
void BM_BatchInv(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(256);
  Rng rng(4);
  std::vector<FpElem> elems;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    elems.push_back(ctx.RandomNonZero(rng));
  }
  for (auto _ : state) {
    auto copy = elems;
    ctx.BatchInv(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_BatchInv)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_PolyEvalDeg18(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(5);
  auto f = pisces::math::Poly::Random(ctx, rng, 18);
  FpElem x = ctx.Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Eval(ctx, x));
  }
}
BENCHMARK(BM_PolyEvalDeg18)->Arg(256)->Arg(1024);

void BM_Interpolate(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(1024);
  Rng rng(6);
  std::size_t m = state.range(0);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < m; ++i) {
    xs.push_back(ctx.FromUint64(i + 1));
    ys.push_back(ctx.Random(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::math::Poly::Interpolate(ctx, xs, ys));
  }
}
BENCHMARK(BM_Interpolate)->Arg(8)->Arg(19)->Arg(37);

void BM_LagrangeCoeffs(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(1024);
  Rng rng(7);
  std::size_t m = state.range(0);
  std::vector<FpElem> xs;
  for (std::size_t i = 0; i < m; ++i) xs.push_back(ctx.FromUint64(i + 1));
  FpElem x = ctx.FromUint64(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::math::LagrangeCoeffs(ctx, xs, x));
  }
}
BENCHMARK(BM_LagrangeCoeffs)->Arg(19)->Arg(37);

// --- Poly-engine suite (docs/polynomial_engine.md) ------------------------
// Engine-vs-oracle pairs at n in {16, 64, 256, 1024} on the 256-bit field
// (the serving hot path); scripts/bench_micro.sh turns these into the "poly"
// section of BENCH_field.json and the measured crossover.

// Share-domain shape: the consecutive points 1..n.
std::vector<FpElem> BenchPoints(const FpCtx& ctx, std::size_t n) {
  std::vector<FpElem> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(ctx.FromUint64(i + 1));
  return xs;
}

void BM_PolyInterpTree(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(256);
  Rng rng(11);
  const std::size_t n = state.range(0);
  const std::vector<FpElem> xs = BenchPoints(ctx, n);
  pisces::math::SubproductTree tree(ctx, xs);
  std::vector<FpElem> ys;
  for (std::size_t i = 0; i < n; ++i) ys.push_back(ctx.Random(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Interpolate(ys));
  }
}
BENCHMARK(BM_PolyInterpTree)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_PolyInterpLagrange(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(256);
  Rng rng(11);
  const std::size_t n = state.range(0);
  const std::vector<FpElem> xs = BenchPoints(ctx, n);
  std::vector<FpElem> ys;
  for (std::size_t i = 0; i < n; ++i) ys.push_back(ctx.Random(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pisces::math::Poly::InterpolateLagrange(ctx, xs, ys));
  }
}
BENCHMARK(BM_PolyInterpLagrange)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// One-time domain cost: node polynomials + barycentric weights. Amortized
// across every block/window that reuses the point set.
void BM_PolyDomainBuild(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(256);
  const std::size_t n = state.range(0);
  const std::vector<FpElem> xs = BenchPoints(ctx, n);
  for (auto _ : state) {
    pisces::math::SubproductTree tree(ctx, xs);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_PolyDomainBuild)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// --- Certificate and channel crypto (docs/observability.md "crypto.*") ----
// The fixed per-reboot and per-message costs: one exponentiation with a
// full-width exponent (the shape of Fermat Inv and of DH), a Schnorr cert
// verification, a DH key agreement over the 512-bit group, one sealed frame
// opened on the other end, and the hash and cipher beneath it.

void BM_PowBytes(benchmark::State& state) {
  const FpCtx& ctx = CtxFor(state.range(0));
  Rng rng(12);
  FpElem a = ctx.RandomNonZero(rng);
  const pisces::Bytes e = rng.RandomBytes(ctx.elem_bytes());
  for (auto _ : state) {
    a = ctx.PowBytes(a, e);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_PowBytes)->Arg(256)->Arg(512)->Arg(1024);

void BM_SchnorrVerify(benchmark::State& state) {
  namespace crypto = pisces::crypto;
  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::Default();
  Rng rng(13);
  crypto::CertAuthority ca(group, rng);
  const crypto::HostCert cert = ca.IssueHostKey(3, 1, rng).first;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::CertAuthority::VerifyCert(group, ca.public_key(), cert));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_DhSharedSecret(benchmark::State& state) {
  namespace crypto = pisces::crypto;
  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::Default();
  Rng rng(14);
  const crypto::SchnorrKeyPair mine = crypto::SchnorrKeygen(group, rng);
  const crypto::SchnorrKeyPair peer = crypto::SchnorrKeygen(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::DhSharedSecret(group, mine.sk, peer.pk));
  }
}
BENCHMARK(BM_DhSharedSecret);

void BM_ChannelSealOpen(benchmark::State& state) {
  Rng rng(15);
  const pisces::Bytes ka = rng.RandomBytes(64), kb = rng.RandomBytes(64);
  pisces::crypto::SecureChannel tx(ka, kb), rx(kb, ka);
  const pisces::Bytes msg = rng.RandomBytes(state.range(0));
  for (auto _ : state) {
    auto pt = rx.Open(tx.Seal(msg));
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelSealOpen)->Arg(64)->Arg(4096);

// The two primitives under a sealed frame: one SHA-256 (the HMAC's inner
// hash) and one ChaCha20 keystream pass, at a one-block and a 4 KiB message.
void BM_Sha256(benchmark::State& state) {
  Rng rng(17);
  const pisces::Bytes msg = rng.RandomBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pisces::crypto::Sha256Hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_ChaCha20Xor(benchmark::State& state) {
  Rng rng(18);
  const pisces::Bytes key = rng.RandomBytes(pisces::crypto::kChaChaKeySize);
  const pisces::Bytes nonce = rng.RandomBytes(pisces::crypto::kChaChaNonceSize);
  pisces::Bytes data = rng.RandomBytes(state.range(0));
  for (auto _ : state) {
    pisces::crypto::ChaCha20Xor(key, nonce, 1, data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20Xor)->Arg(64)->Arg(4096);

// --- Share generation (pss.* in BENCH_field.json) ------------------------
// One upload's PackedShamir::ShareBlocks at two perfbench shapes, args
// (n, t, l, g, blocks): window-bulk (a 64 KiB file at the paper's n=21
// configuration) and serve-wire (a serving upload at n=8). The scheme is
// warmed once first, so an iteration is the steady-state cost per upload.

void BM_ShareBlocks(benchmark::State& state) {
  pisces::pss::Params params;
  params.n = state.range(0);
  params.t = state.range(1);
  params.l = state.range(2);
  params.field_bits = state.range(3);
  auto ctx = std::make_shared<const FpCtx>(StandardPrimeBe(params.field_bits));
  const pisces::pss::PackedShamir shamir(ctx, params);
  Rng rng(16);
  std::vector<std::vector<FpElem>> blocks(state.range(4));
  for (auto& b : blocks) {
    for (std::size_t j = 0; j < params.l; ++j) b.push_back(ctx->Random(rng));
  }
  shamir.ShareBlocks(blocks, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir.ShareBlocks(blocks, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(4));
}
BENCHMARK(BM_ShareBlocks)
    ->Args({21, 4, 6, 1024, 86})
    ->Args({8, 1, 2, 256, 32});

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared flags (--threads,
// --trace, ...) are stripped by bench::Parse before google-benchmark sees
// argv, since ReportUnrecognizedArguments treats any leftover as fatal.
int main(int argc, char** argv) {
  pisces::bench::Options opts = pisces::bench::Parse(argc, argv);
  // Trustworthy build-type marker for scripts/bench_micro.sh's release gate.
  // google-benchmark's own "library_build_type" context key reflects the
  // NDEBUG state of the *library* when IT was compiled (the distro package
  // reports "debug" regardless of how this binary is built), so the gate
  // keys on our translation unit instead.
#ifdef NDEBUG
  benchmark::AddCustomContext("pisces_build_type", "release");
#else
  benchmark::AddCustomContext("pisces_build_type", "debug");
#endif
  benchmark::AddCustomContext(
      "pisces_poly_crossover",
      std::to_string(pisces::math::PolyEngineCrossover()));
  int rest_argc = static_cast<int>(opts.rest.size());
  benchmark::Initialize(&rest_argc, opts.rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, opts.rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (obs::TraceEnabled()) obs::WriteTrace();
  return 0;
}
