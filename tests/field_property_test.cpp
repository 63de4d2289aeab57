// Randomized property tests for the prime-field layer.
//
// field_test.cpp pins down the basic axioms with a handful of draws; this
// suite hammers the algebraic laws with many seeded random triples across all
// four standard prime sizes, cross-checks Montgomery-form arithmetic against
// plain integer arithmetic on small values (the round-trip through ToBytes /
// FromBytes is exactly the from/to-Montgomery conversion), and covers the
// BatchInv edge cases the interpolation hot path depends on: singleton spans,
// spans of identical values, and interleaving with scalar Inv.
//
// Everything is seeded -- a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "crypto/schnorr.h"
#include "field/fp.h"
#include "field/primes.h"

namespace pisces::field {
namespace {

class FieldPropertyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  FieldPropertyTest()
      : ctx_(StandardPrimeBe(GetParam())), rng_(0x51EED ^ GetParam()) {}

  // Larger fields make Inv (a full modular exponentiation) expensive; scale
  // the iteration count down so the suite stays fast at g = 2048.
  int Iters() const { return GetParam() <= 512 ? 40 : 8; }

  FpCtx ctx_;
  Rng rng_;
};

TEST_P(FieldPropertyTest, AdditionGroupLaws) {
  for (int i = 0; i < Iters(); ++i) {
    FpElem a = ctx_.Random(rng_);
    FpElem b = ctx_.Random(rng_);
    FpElem c = ctx_.Random(rng_);
    EXPECT_TRUE(ctx_.Eq(ctx_.Add(a, b), ctx_.Add(b, a)));
    EXPECT_TRUE(ctx_.Eq(ctx_.Add(ctx_.Add(a, b), c),
                        ctx_.Add(a, ctx_.Add(b, c))));
    EXPECT_TRUE(ctx_.Eq(ctx_.Add(a, ctx_.Zero()), a));
    EXPECT_TRUE(ctx_.IsZero(ctx_.Add(a, ctx_.Neg(a))));
    // Sub is Add of the negation.
    EXPECT_TRUE(ctx_.Eq(ctx_.Sub(a, b), ctx_.Add(a, ctx_.Neg(b))));
    // Double negation.
    EXPECT_TRUE(ctx_.Eq(ctx_.Neg(ctx_.Neg(a)), a));
  }
}

TEST_P(FieldPropertyTest, MultiplicationLawsAndDistributivity) {
  for (int i = 0; i < Iters(); ++i) {
    FpElem a = ctx_.Random(rng_);
    FpElem b = ctx_.Random(rng_);
    FpElem c = ctx_.Random(rng_);
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, b), ctx_.Mul(b, a)));
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(ctx_.Mul(a, b), c),
                        ctx_.Mul(a, ctx_.Mul(b, c))));
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, ctx_.One()), a));
    EXPECT_TRUE(ctx_.IsZero(ctx_.Mul(a, ctx_.Zero())));
    // Left and right distributivity.
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, ctx_.Add(b, c)),
                        ctx_.Add(ctx_.Mul(a, b), ctx_.Mul(a, c))));
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(ctx_.Add(a, b), c),
                        ctx_.Add(ctx_.Mul(a, c), ctx_.Mul(b, c))));
    // Negation commutes with multiplication.
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(ctx_.Neg(a), b), ctx_.Neg(ctx_.Mul(a, b))));
    // Sqr is Mul with itself.
    EXPECT_TRUE(ctx_.Eq(ctx_.Sqr(a), ctx_.Mul(a, a)));
  }
}

TEST_P(FieldPropertyTest, FermatInverse) {
  for (int i = 0; i < Iters() / 4 + 1; ++i) {
    FpElem a = ctx_.RandomNonZero(rng_);
    FpElem inv = ctx_.Inv(a);
    // a * a^{-1} == 1 and the inverse of the inverse is a.
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, inv), ctx_.One()));
    EXPECT_TRUE(ctx_.Eq(ctx_.Inv(inv), a));
    // Inv agrees with explicit a^{p-2} via PowBytes: p-2 has the same byte
    // length as p because every standard prime ends in an odd byte > 2.
    Bytes e = ctx_.ModulusBytes();
    ASSERT_GE(e.back(), 3);
    e.back() -= 2;
    EXPECT_TRUE(ctx_.Eq(ctx_.PowBytes(a, e), inv));
    // Fermat's little theorem directly: a^{p-1} == 1.
    Bytes e1 = ctx_.ModulusBytes();
    e1.back() -= 1;
    EXPECT_TRUE(ctx_.Eq(ctx_.PowBytes(a, e1), ctx_.One()));
  }
  // (ab)^{-1} == a^{-1} b^{-1}.
  FpElem a = ctx_.RandomNonZero(rng_);
  FpElem b = ctx_.RandomNonZero(rng_);
  EXPECT_TRUE(ctx_.Eq(ctx_.Inv(ctx_.Mul(a, b)),
                      ctx_.Mul(ctx_.Inv(a), ctx_.Inv(b))));
  // 1^{-1} == 1.
  EXPECT_TRUE(ctx_.Eq(ctx_.Inv(ctx_.One()), ctx_.One()));
}

TEST_P(FieldPropertyTest, MontgomeryRoundTrip) {
  // ToBytes/FromBytes convert out of and back into Montgomery form; the
  // round trip must be exact in both directions for random elements.
  for (int i = 0; i < Iters(); ++i) {
    FpElem a = ctx_.Random(rng_);
    Bytes le = ctx_.ToBytes(a);
    ASSERT_EQ(le.size(), ctx_.elem_bytes());
    EXPECT_TRUE(ctx_.Eq(ctx_.FromBytes(le), a));
    // Serializing the round-tripped element reproduces the same bytes.
    EXPECT_EQ(ctx_.ToBytes(ctx_.FromBytes(le)), le);
  }
  // Montgomery-form arithmetic must agree with plain integer arithmetic on
  // values small enough to check directly.
  for (int i = 0; i < Iters(); ++i) {
    std::uint64_t x = rng_.Below(1u << 20);
    std::uint64_t y = rng_.Below(1u << 20);
    FpElem fx = ctx_.FromUint64(x);
    FpElem fy = ctx_.FromUint64(y);
    EXPECT_EQ(ctx_.ToUint64(ctx_.Add(fx, fy)), x + y);
    EXPECT_EQ(ctx_.ToUint64(ctx_.Mul(fx, fy)), x * y);
  }
  // Edge values: 0 and 1 survive the trip and map to the canonical elements.
  EXPECT_TRUE(ctx_.Eq(ctx_.FromBytes(ctx_.ToBytes(ctx_.Zero())), ctx_.Zero()));
  EXPECT_TRUE(ctx_.Eq(ctx_.FromBytes(ctx_.ToBytes(ctx_.One())), ctx_.One()));
  EXPECT_EQ(ctx_.ToUint64(ctx_.One()), 1u);
}

TEST_P(FieldPropertyTest, BatchInvSingleton) {
  FpElem a = ctx_.RandomNonZero(rng_);
  std::vector<FpElem> v{a};
  ctx_.BatchInv(v);
  EXPECT_TRUE(ctx_.Eq(v[0], ctx_.Inv(a)));
}

TEST_P(FieldPropertyTest, BatchInvAllSame) {
  // Every slot holds the same value; the running-product trick must still
  // produce the right inverse in every slot independently.
  FpElem a = ctx_.RandomNonZero(rng_);
  FpElem expected = ctx_.Inv(a);
  std::vector<FpElem> v(9, a);
  ctx_.BatchInv(v);
  for (const auto& e : v) EXPECT_TRUE(ctx_.Eq(e, expected));
}

TEST_P(FieldPropertyTest, BatchInvInterleavedWithInv) {
  // Alternate scalar Inv and BatchInv over the same draws: both paths must
  // agree element-wise, and calling one must not perturb the other.
  std::vector<FpElem> draws;
  for (int i = 0; i < 7; ++i) draws.push_back(ctx_.RandomNonZero(rng_));

  std::vector<FpElem> batch = draws;
  ctx_.BatchInv(batch);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    FpElem scalar = ctx_.Inv(draws[i]);
    EXPECT_TRUE(ctx_.Eq(batch[i], scalar)) << i;
    // Invert again through the other path: must return to the original.
    std::vector<FpElem> again{scalar};
    ctx_.BatchInv(again);
    EXPECT_TRUE(ctx_.Eq(again[0], draws[i])) << i;
  }
}

TEST_P(FieldPropertyTest, BatchInvEmptyIsNoop) {
  std::vector<FpElem> empty;
  ctx_.BatchInv(empty);  // must not crash or touch anything
  EXPECT_TRUE(empty.empty());
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, FieldPropertyTest,
                         ::testing::Values(256, 512, 1024, 2048));

// --- Exponentiation: windowed multi-exponentiation vs a binary oracle -----
//
// Runs on the four standard primes and on the 512-bit Schnorr group modulus
// (parameter 0), the modulus every cert verification and DH exponentiates in.
class PowDifferentialTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  PowDifferentialTest()
      : ctx_(GetParam() == 0
                 ? crypto::SchnorrGroup::Default().p_ctx().ModulusBytes()
                 : StandardPrimeBe(GetParam())),
        rng_(0x90E ^ GetParam()) {}

  // Binary left-to-right square-and-multiply, squaring through Mul so the
  // oracle shares no code with the routine under test beyond the multiply.
  FpElem PowOracle(const FpElem& a, std::span<const std::uint8_t> e) const {
    FpElem acc = ctx_.One();
    for (std::uint8_t byte : e) {
      for (int bit = 7; bit >= 0; --bit) {
        acc = ctx_.Mul(acc, acc);
        if ((byte >> bit) & 1) acc = ctx_.Mul(acc, a);
      }
    }
    return acc;
  }

  // A random big-endian exponent of exactly `bits` significant bits.
  Bytes ExpOfBits(std::size_t bits) {
    Bytes e = rng_.RandomBytes((bits + 7) / 8);
    if (bits % 8 != 0) e[0] &= static_cast<std::uint8_t>((1u << (bits % 8)) - 1);
    e[0] |= static_cast<std::uint8_t>(1u << ((bits + 7) % 8));
    return e;
  }

  FpCtx ctx_;
  Rng rng_;
};

TEST_P(PowDifferentialTest, RandomExponentsMatchOracle) {
  const std::size_t width = ctx_.elem_bytes();
  for (std::size_t len : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                          width, width + 9}) {
    FpElem a = ctx_.Random(rng_);
    Bytes e = rng_.RandomBytes(len);
    EXPECT_EQ(ctx_.PowBytes(a, e), PowOracle(a, e)) << "len " << len;
  }
}

TEST_P(PowDifferentialTest, EveryWindowShapeMatchesOracle) {
  // Bit lengths on both sides of every window-width switch, plus short ones:
  // the top window is shorter than w whenever the length is not aligned.
  for (std::size_t bits : {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 23, 24, 25,
                           79, 80, 81, 239, 240, 241, 671, 672, 673}) {
    FpElem a = ctx_.RandomNonZero(rng_);
    Bytes e = ExpOfBits(bits);
    EXPECT_EQ(ctx_.PowBytes(a, e), PowOracle(a, e)) << bits << " bits";
  }
}

TEST_P(PowDifferentialTest, EdgeExponents) {
  const FpElem a = ctx_.RandomNonZero(rng_);
  const std::size_t width = ctx_.elem_bytes();
  // Empty and all-zero exponents give 1, for any base including 0.
  EXPECT_EQ(ctx_.PowBytes(a, {}), ctx_.One());
  EXPECT_EQ(ctx_.PowBytes(ctx_.Zero(), {}), ctx_.One());
  for (std::size_t len : {std::size_t{1}, width, width + 3}) {
    EXPECT_EQ(ctx_.PowBytes(a, Bytes(len, 0)), ctx_.One()) << len;
  }
  // Exponent 1, bare and behind leading zero bytes.
  EXPECT_EQ(ctx_.PowBytes(a, Bytes{1}), a);
  EXPECT_EQ(ctx_.PowBytes(a, Bytes{0, 0, 0, 1}), a);
  EXPECT_EQ(ctx_.PowBytes(ctx_.Zero(), Bytes{0, 5}), ctx_.Zero());
  EXPECT_EQ(ctx_.PowBytes(ctx_.One(), Bytes(width, 0xFF)), ctx_.One());
  // All-ones: every window is full width and the maximum table entry.
  for (std::size_t len : {std::size_t{2}, width, width + 5}) {
    Bytes ones(len, 0xFF);
    EXPECT_EQ(ctx_.PowBytes(a, ones), PowOracle(a, ones)) << len;
  }
  // Leading zero bytes change nothing.
  Bytes e = ExpOfBits(100);
  Bytes padded = e;
  padded.insert(padded.begin(), 7, 0);
  EXPECT_EQ(ctx_.PowBytes(a, padded), ctx_.PowBytes(a, e));
  EXPECT_EQ(ctx_.PowBytes(a, padded), PowOracle(a, e));
  // Exponents wider than the modulus.
  Bytes wide = ExpOfBits(8 * width + 40);
  EXPECT_EQ(ctx_.PowBytes(a, wide), PowOracle(a, wide));
  // Small exponents through PowUint64.
  for (std::uint64_t k : {0ull, 1ull, 2ull, 3ull, 0x123456789ull, ~0ull}) {
    Bytes be(8);
    for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(k >> (56 - 8 * i));
    EXPECT_EQ(ctx_.PowUint64(a, k), PowOracle(a, be)) << k;
  }
}

TEST_P(PowDifferentialTest, MultiPowIsProductOfSinglePows) {
  EXPECT_EQ(ctx_.MultiPowBytes({}), ctx_.One());
  const std::size_t width = ctx_.elem_bytes();
  for (std::size_t terms = 1; terms <= 4; ++terms) {
    std::vector<FpElem> bases;
    std::vector<Bytes> exps;
    for (std::size_t i = 0; i < terms; ++i) {
      bases.push_back(ctx_.Random(rng_));
      // Mixed shapes: empty, zero, short, and full/over-width exponents.
      switch ((terms + i) % 5) {
        case 0: exps.push_back({}); break;
        case 1: exps.push_back(Bytes(3, 0)); break;
        case 2: exps.push_back(rng_.RandomBytes(5)); break;
        case 3: exps.push_back(rng_.RandomBytes(width)); break;
        default: exps.push_back(rng_.RandomBytes(width + 4)); break;
      }
    }
    std::vector<PowTerm> list;
    FpElem expect = ctx_.One();
    for (std::size_t i = 0; i < terms; ++i) {
      list.push_back(PowTerm{bases[i], exps[i]});
      expect = ctx_.Mul(expect, ctx_.PowBytes(bases[i], exps[i]));
    }
    EXPECT_EQ(ctx_.MultiPowBytes(list), expect) << terms << " terms";
  }
  // A repeated base: a^x * a^y == a^(x+y) for small x, y.
  const FpElem a = ctx_.RandomNonZero(rng_);
  const Bytes x{0x01, 0x23}, y{0x45};
  const PowTerm same[] = {{a, x}, {a, y}};
  EXPECT_EQ(ctx_.MultiPowBytes(same), ctx_.PowUint64(a, 0x0123 + 0x45));
}

INSTANTIATE_TEST_SUITE_P(AllModuli, PowDifferentialTest,
                         ::testing::Values(256, 512, 1024, 2048, 0));

}  // namespace
}  // namespace pisces::field
