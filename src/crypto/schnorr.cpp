#include "crypto/schnorr.h"

#include <mutex>

#include "crypto/sha256.h"
#include "field/limbs.h"
#include "field/primes.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace pisces::crypto {

using field::FpCtx;
using field::FpElem;

namespace {

// Random prime with exactly `bits` bits (top bit forced).
Bytes RandomPrimeBe(Rng& rng, std::size_t bits) {
  Require(bits % 8 == 0, "RandomPrimeBe: bits must be byte aligned");
  for (;;) {
    Bytes cand = rng.RandomBytes(bits / 8);
    cand.front() |= 0x80;
    cand.back() |= 1;
    if (field::MillerRabinIsPrime(cand, 2, rng) &&
        field::MillerRabinIsPrime(cand, 40, rng)) {
      return cand;
    }
  }
}

Bytes BeFromLimbs(const field::Limbs& v, std::size_t nbytes) {
  Bytes out(nbytes);
  for (std::size_t i = 0; i < nbytes; ++i) {
    std::size_t lo = nbytes - 1 - i;  // byte index from LSB
    out[i] = static_cast<std::uint8_t>(v[lo / 8] >> (8 * (lo % 8)));
  }
  return out;
}

field::Limbs LimbsFromBeBytes(std::span<const std::uint8_t> be) {
  field::Limbs out{};
  std::size_t limb = 0, shift = 0;
  for (std::size_t i = be.size(); i-- > 0;) {
    out[limb] |= static_cast<std::uint64_t>(be[i]) << shift;
    shift += 8;
    if (shift == 64) { shift = 0; ++limb; }
  }
  return out;
}

}  // namespace

SchnorrGroup SchnorrGroup::Generate(Rng& rng, std::size_t p_bits,
                                    std::size_t q_bits) {
  Require(p_bits >= 2 * q_bits, "SchnorrGroup: p must be wider than q^2 scale");
  Require(p_bits % 64 == 0 && q_bits % 64 == 0,
          "SchnorrGroup: sizes must be limb aligned");
  Bytes q_be = RandomPrimeBe(rng, q_bits);
  field::Limbs q = LimbsFromBeBytes(q_be);
  const std::size_t qk = q_bits / 64;
  const std::size_t mk = (p_bits - q_bits) / 64;

  // Search p = q*m + 1 prime, with m even and sized so p has exactly p_bits.
  field::Limbs m{};
  Bytes m_be;
  for (;;) {
    m_be = rng.RandomBytes((p_bits - q_bits) / 8);
    m_be.front() |= 0xC0;  // force top bits so q*m occupies p_bits
    m_be.back() &= ~std::uint8_t{1};  // even
    m = LimbsFromBeBytes(m_be);
    std::uint64_t wide[2 * field::kMaxLimbs];
    field::MulN(wide, q.data(), m.data(), std::max(qk, mk));
    // p = q*m + 1 occupies at most qk+mk limbs.
    field::Limbs p{};
    for (std::size_t i = 0; i < qk + mk; ++i) p[i] = wide[i];
    p[0] += 1;  // q*m is even, no carry
    if (field::BitLengthN(p.data(), field::kMaxLimbs) != p_bits) continue;
    Bytes p_be = BeFromLimbs(p, p_bits / 8);
    if (!field::MillerRabinIsPrime(p_be, 2, rng)) continue;
    if (!field::MillerRabinIsPrime(p_be, 40, rng)) continue;

    auto p_ctx = std::make_shared<FpCtx>(p_be);
    auto q_ctx = std::make_shared<FpCtx>(q_be);
    // Generator: g = h^m mod p for random h; order divides q (prime), so any
    // g != 1 has order exactly q.
    for (;;) {
      FpElem h = p_ctx->Random(rng);
      if (p_ctx->IsZero(h)) continue;
      FpElem g = p_ctx->PowBytes(h, m_be);
      if (!p_ctx->Eq(g, p_ctx->One()) && !p_ctx->IsZero(g)) {
        return SchnorrGroup(std::move(p_ctx), std::move(q_ctx), g);
      }
    }
  }
}

const SchnorrGroup& SchnorrGroup::Default() {
  static std::once_flag flag;
  static std::unique_ptr<SchnorrGroup> group;
  std::call_once(flag, [] {
    Rng rng(0x5EEDF00DULL);
    group = std::make_unique<SchnorrGroup>(SchnorrGroup::Generate(rng, 512, 256));
  });
  return *group;
}

Bytes SchnorrGroup::ScalarToBe(const FpElem& s) const {
  Bytes le = q_ctx_->ToBytes(s);
  return Bytes(le.rbegin(), le.rend());
}

FpElem SchnorrGroup::ScalarFromBe(std::span<const std::uint8_t> be) const {
  Bytes le(be.rbegin(), be.rend());
  return q_ctx_->FromBytes(le);
}

FpElem SchnorrGroup::HashToScalar(std::span<const std::uint8_t> digest) const {
  // Interpret the digest as a big-endian integer and reduce mod q. q has its
  // top bit set, so a 256-bit digest needs at most one subtraction.
  field::Limbs v = LimbsFromBeBytes(digest);
  const std::size_t qk = q_ctx_->limbs();
  Require(digest.size() <= qk * 8, "HashToScalar: digest too wide");
  field::Limbs q = LimbsFromBeBytes(q_ctx_->ModulusBytes());
  field::CondSubN(v.data(), q.data(), qk);
  Bytes le(qk * 8);
  for (std::size_t i = 0; i < qk; ++i) StoreLe64(v[i], le.data() + 8 * i);
  return q_ctx_->FromBytes(le);
}

Bytes SchnorrSignature::Serialize() const {
  ByteWriter w;
  w.Blob(e);
  w.Blob(s);
  return w.Take();
}

SchnorrSignature SchnorrSignature::Deserialize(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  SchnorrSignature sig;
  auto e = r.Blob();
  auto s = r.Blob();
  sig.e.assign(e.begin(), e.end());
  sig.s.assign(s.begin(), s.end());
  return sig;
}

SchnorrKeyPair SchnorrKeygen(const SchnorrGroup& group, Rng& rng) {
  const FpCtx& q = group.q_ctx();
  const FpCtx& p = group.p_ctx();
  FpElem x = q.RandomNonZero(rng);
  Bytes x_be = group.ScalarToBe(x);
  FpElem y = p.PowBytes(group.g(), x_be);
  return SchnorrKeyPair{x_be, p.ToBytes(y)};
}

namespace {
FpElem Challenge(const SchnorrGroup& group,
                 std::span<const std::uint8_t> r_bytes,
                 std::span<const std::uint8_t> pk,
                 std::span<const std::uint8_t> msg) {
  Sha256 h;
  h.Update(r_bytes);
  h.Update(pk);
  h.Update(msg);
  Digest d = h.Finish();
  return group.HashToScalar(d);
}
}  // namespace

SchnorrSignature SchnorrSign(const SchnorrGroup& group,
                             std::span<const std::uint8_t> sk,
                             std::span<const std::uint8_t> msg, Rng& rng) {
  const FpCtx& p = group.p_ctx();
  const FpCtx& q = group.q_ctx();
  FpElem x = group.ScalarFromBe(sk);
  FpElem y = p.PowBytes(group.g(), sk);
  Bytes pk = p.ToBytes(y);

  FpElem k = q.RandomNonZero(rng);
  Bytes k_be = group.ScalarToBe(k);
  FpElem r = p.PowBytes(group.g(), k_be);
  Bytes r_bytes = p.ToBytes(r);

  FpElem e = Challenge(group, r_bytes, pk, msg);
  // s = k + x*e mod q
  FpElem s = q.Add(k, q.Mul(x, e));
  return SchnorrSignature{group.ScalarToBe(e), group.ScalarToBe(s)};
}

bool SchnorrVerify(const SchnorrGroup& group, std::span<const std::uint8_t> pk,
                   std::span<const std::uint8_t> msg,
                   const SchnorrSignature& sig) {
  const FpCtx& p = group.p_ctx();
  const FpCtx& q = group.q_ctx();
  if (sig.e.size() != q.elem_bytes() || sig.s.size() != q.elem_bytes()) {
    return false;
  }
  FpElem y, e;
  try {
    Bytes pk_le(pk.begin(), pk.end());
    y = p.FromBytes(pk_le);
    // Both scalars must be canonical (< q): an s shifted by q would verify
    // too, handing out a second valid signature for the same message.
    e = group.ScalarFromBe(sig.e);
    group.ScalarFromBe(sig.s);
  } catch (const Error&) {
    return false;
  }
  // r' = g^s * y^{-e} = g^s * y^{q-e} mod p, in one shared squaring chain.
  const Bytes neg_e = group.ScalarToBe(q.Neg(e));
  const field::PowTerm terms[] = {{group.g(), sig.s}, {y, neg_e}};
  FpElem r = p.MultiPowBytes(terms);
  FpElem e2 = Challenge(group, p.ToBytes(r), pk, msg);
  return q.Eq(e, e2);
}

Bytes DhSharedSecret(const SchnorrGroup& group, std::span<const std::uint8_t> sk,
                     std::span<const std::uint8_t> peer_pk) {
  static obs::Counter& count =
      obs::RegisterCounter("crypto.dh", "Diffie-Hellman key agreements");
  count.Add();
  obs::Span span(obs::SpanKind::kDh);
  const FpCtx& p = group.p_ctx();
  Bytes pk_le(peer_pk.begin(), peer_pk.end());
  FpElem y = p.FromBytes(pk_le);
  FpElem shared = p.PowBytes(y, sk);
  return p.ToBytes(shared);
}

}  // namespace pisces::crypto
