// Differential suite for the width-specialized Montgomery kernels and the
// lazy-reduction dot product (field/fp_kernels.h, docs/field_kernels.md).
//
// The contract under test: for every standard prime size, the specialized
// kernels (Mul, Sqr) and the lazy Dot/DotAcc produce limb-for-limb identical
// results to the generic runtime-width CIOS oracle (an FpCtx constructed with
// KernelDispatch::kGeneric) and to the naive fold of Add(Mul(...)). Operands
// cover the edges the reduction bounds care about: 0, 1, 2, p-1, p-2, and the
// top-bit value 2^{g-1} (p is the largest prime below 2^g, so p-1 is the
// largest representable value "just below 2^g").
//
// Everything is seeded -- a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"
#include "field/primes.h"
#include "obs/registry.h"

namespace pisces::field {
namespace {

class FieldKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  FieldKernelTest()
      : fast_(StandardPrimeBe(GetParam())),
        oracle_(StandardPrimeBe(GetParam()), KernelDispatch::kGeneric),
        rng_(0xD07D07 ^ GetParam()) {}

  // Edge operands plus seeded random draws. Elements are context-agnostic
  // bit patterns (both contexts share the modulus), so values built with
  // either context compare bitwise.
  std::vector<FpElem> Operands(int randoms) {
    std::vector<FpElem> ops;
    ops.push_back(fast_.Zero());
    ops.push_back(fast_.One());
    ops.push_back(fast_.FromUint64(2));
    Bytes p_be = fast_.ModulusBytes();
    // p - 1 and p - 2 as little-endian byte strings.
    Bytes le(p_be.rbegin(), p_be.rend());
    le[0] -= 1;  // p is odd, so p-1 only touches the low byte
    ops.push_back(fast_.FromBytes(le));
    le[0] -= 1;
    ops.push_back(fast_.FromBytes(le));
    // 2^{g-1}: the top-bit value (< p since p is a g-bit prime).
    Bytes top(fast_.elem_bytes(), 0);
    top[top.size() - 1] = 0x80;
    ops.push_back(fast_.FromBytes(top));
    for (int i = 0; i < randoms; ++i) ops.push_back(fast_.Random(rng_));
    return ops;
  }

  // Scale work down at the large widths (the oracle is slow by design).
  int Randoms() const { return GetParam() <= 512 ? 12 : 4; }

  FpCtx fast_;
  FpCtx oracle_;
  Rng rng_;
};

TEST_P(FieldKernelTest, DispatchSelectsSpecializedWidth) {
  EXPECT_EQ(fast_.kernel_width(), GetParam() / 64);
  EXPECT_EQ(oracle_.kernel_width(), 0u);
  EXPECT_EQ(fast_.limbs(), oracle_.limbs());
}

TEST_P(FieldKernelTest, MulMatchesGenericOracle) {
  auto ops = Operands(Randoms());
  for (const FpElem& a : ops) {
    for (const FpElem& b : ops) {
      EXPECT_EQ(fast_.Mul(a, b), oracle_.Mul(a, b));
    }
  }
}

TEST_P(FieldKernelTest, SqrMatchesMulAndOracle) {
  auto ops = Operands(Randoms());
  for (const FpElem& a : ops) {
    FpElem s = fast_.Sqr(a);
    EXPECT_EQ(s, fast_.Mul(a, a));       // specialized sqr vs specialized mul
    EXPECT_EQ(s, oracle_.Sqr(a));        // vs generic sqr kernel
    EXPECT_EQ(s, oracle_.Mul(a, a));     // vs generic CIOS oracle
  }
}

TEST_P(FieldKernelTest, PowRidesOnSqr) {
  for (int i = 0; i < 4; ++i) {
    FpElem a = fast_.Random(rng_);
    EXPECT_EQ(fast_.PowUint64(a, 1), oracle_.PowUint64(a, 1));
    EXPECT_EQ(fast_.PowUint64(a, 2), oracle_.PowUint64(a, 2));
    EXPECT_EQ(fast_.PowUint64(a, 0x123456789), oracle_.PowUint64(a, 0x123456789));
  }
}

TEST_P(FieldKernelTest, DotMatchesNaiveFoldAtAllLengths) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 32u, 100u}) {
    std::vector<FpElem> a, b;
    for (std::size_t i = 0; i < n; ++i) {
      a.push_back(fast_.Random(rng_));
      b.push_back(fast_.Random(rng_));
    }
    FpElem naive = fast_.Zero();
    for (std::size_t i = 0; i < n; ++i) {
      naive = fast_.Add(naive, fast_.Mul(a[i], b[i]));
    }
    EXPECT_EQ(fast_.Dot(a, b), naive) << "n=" << n;
    EXPECT_EQ(oracle_.Dot(a, b), naive) << "generic lazy path, n=" << n;
  }
}

TEST_P(FieldKernelTest, DotEdgeOperandsMaximizeAccumulator) {
  // All-(p-1) vectors maximize every product; length 100 stresses the
  // carry ripple into the accumulator's top limb.
  auto ops = Operands(0);
  const FpElem pm1 = ops[3];
  std::vector<FpElem> a(100, pm1), b(100, pm1);
  FpElem naive = fast_.Zero();
  for (std::size_t i = 0; i < a.size(); ++i) {
    naive = fast_.Add(naive, fast_.Mul(a[i], b[i]));
  }
  EXPECT_EQ(fast_.Dot(a, b), naive);
  EXPECT_EQ(oracle_.Dot(a, b), naive);
  // Mixed edges against randoms.
  std::vector<FpElem> c = Operands(6);
  std::vector<FpElem> d(c.rbegin(), c.rend());
  FpElem naive2 = fast_.Zero();
  for (std::size_t i = 0; i < c.size(); ++i) {
    naive2 = fast_.Add(naive2, fast_.Mul(c[i], d[i]));
  }
  EXPECT_EQ(fast_.Dot(c, d), naive2);
  EXPECT_EQ(oracle_.Dot(c, d), naive2);
}

TEST_P(FieldKernelTest, DotAliasedInputs) {
  std::vector<FpElem> a;
  for (int i = 0; i < 17; ++i) a.push_back(fast_.Random(rng_));
  FpElem naive = fast_.Zero();
  for (const FpElem& x : a) naive = fast_.Add(naive, fast_.Sqr(x));
  // Same span passed as both arguments.
  EXPECT_EQ(fast_.Dot(a, a), naive);
  EXPECT_EQ(oracle_.Dot(a, a), naive);
  // DotAcc fed the same element object on both sides.
  DotAcc acc(fast_);
  for (const FpElem& x : a) acc.MulAdd(x, x);
  EXPECT_EQ(acc.Reduce(), naive);
}

TEST_P(FieldKernelTest, DotAccMatchesDotAndSurvivesReduceResetCycles) {
  std::vector<FpElem> a, b;
  for (int i = 0; i < 23; ++i) {
    a.push_back(fast_.Random(rng_));
    b.push_back(fast_.Random(rng_));
  }
  DotAcc acc(fast_);
  EXPECT_TRUE(fast_.IsZero(acc.Reduce()));  // empty accumulator
  for (std::size_t i = 0; i < a.size(); ++i) acc.MulAdd(a[i], b[i]);
  FpElem want = fast_.Dot(a, b);
  EXPECT_EQ(acc.Reduce(), want);
  // Reduce is non-destructive: a second call gives the same answer, and
  // further accumulation continues from the same state.
  EXPECT_EQ(acc.Reduce(), want);
  acc.MulAdd(a[0], b[0]);
  EXPECT_EQ(acc.Reduce(), fast_.Add(want, fast_.Mul(a[0], b[0])));
  acc.Reset();
  EXPECT_TRUE(fast_.IsZero(acc.Reduce()));
}

TEST_P(FieldKernelTest, DotPerformsExactlyOneReductionPerOutput) {
  std::vector<FpElem> a, b;
  for (int i = 0; i < 19; ++i) {
    a.push_back(fast_.Random(rng_));
    b.push_back(fast_.Random(rng_));
  }
  const obs::Snapshot before = obs::TakeSnapshot();
  FpElem r = fast_.Dot(a, b);
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_FALSE(fast_.IsZero(r));  // overwhelming probability
  EXPECT_EQ(obs::Value(delta, "field.dot_calls"), 1u);
  EXPECT_EQ(obs::Value(delta, "field.dot_products"), a.size());
  EXPECT_EQ(obs::Value(delta, "field.dot_reductions"), 1u);
#ifndef NDEBUG
  // Debug builds also count Montgomery multiplies: the whole dot pays
  // exactly ONE (the 2^64 fixup) instead of one reduction per product.
  EXPECT_EQ(obs::Value(delta, "field.mont_muls"), 1u);
#endif
}

INSTANTIATE_TEST_SUITE_P(AllPrimeSizes, FieldKernelTest,
                         ::testing::Values(256, 512, 1024, 2048));

// Non-standard widths must fall back to the generic path and still satisfy
// the lazy-reduction contract (the wide REDC is width-agnostic).
TEST(FieldKernelFallback, OddWidthUsesGenericAndDotStaysExact) {
  // A 192-bit odd modulus with a nonzero top limb (primality is not needed
  // for Montgomery multiplication or the dot identity).
  Bytes mod_be(24, 0xFF);  // 2^192 - 1 (odd)
  FpCtx ctx(mod_be);
  EXPECT_EQ(ctx.kernel_width(), 0u);
  EXPECT_EQ(ctx.limbs(), 3u);
  Rng rng(0xFA11BACC);
  std::vector<FpElem> a, b;
  for (int i = 0; i < 33; ++i) {
    a.push_back(ctx.Random(rng));
    b.push_back(ctx.Random(rng));
  }
  FpElem naive = ctx.Zero();
  for (std::size_t i = 0; i < a.size(); ++i) {
    naive = ctx.Add(naive, ctx.Mul(a[i], b[i]));
  }
  EXPECT_EQ(ctx.Dot(a, b), naive);
  for (const FpElem& x : a) EXPECT_EQ(ctx.Sqr(x), ctx.Mul(x, x));
}

}  // namespace
}  // namespace pisces::field
