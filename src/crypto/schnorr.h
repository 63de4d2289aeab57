// Schnorr signatures over a prime-order subgroup of Z_p^*.
//
// Role in PiSCES (paper SectionIV-A "Public Key Installation" / "Secure
// Reboot"): the hypervisor holds a CA keypair; after every reboot it
// generates and signs a fresh host keypair, and the rebooted host broadcasts
// the signed key to rejoin the network. Peers verify the signature before
// accepting traffic, which is what prevents an adversary from racing a fresh
// host for network acceptance.
//
// Group parameters are DSA-style: q a 256-bit prime, p = q*m + 1 a 512-bit
// prime, g of order q. Parameters are generated deterministically from a
// fixed seed (they are public), so every process agrees on the group.
#pragma once

#include <memory>

#include "common/rng.h"
#include "field/fp.h"

namespace pisces::crypto {

class SchnorrGroup {
 public:
  // Deterministically generates a group: q_bits-bit prime order, p_bits-bit
  // modulus.
  static SchnorrGroup Generate(Rng& rng, std::size_t p_bits,
                               std::size_t q_bits);

  // Process-wide default group (512/256 bits, fixed seed).
  static const SchnorrGroup& Default();

  const field::FpCtx& p_ctx() const { return *p_ctx_; }
  const field::FpCtx& q_ctx() const { return *q_ctx_; }
  const field::FpElem& g() const { return g_; }

  // Scalar (mod q) <-> big-endian bytes of fixed q-width.
  Bytes ScalarToBe(const field::FpElem& s) const;
  field::FpElem ScalarFromBe(std::span<const std::uint8_t> be) const;

  // Digest bytes -> scalar mod q.
  field::FpElem HashToScalar(std::span<const std::uint8_t> digest) const;

 private:
  SchnorrGroup(std::shared_ptr<field::FpCtx> p_ctx,
               std::shared_ptr<field::FpCtx> q_ctx, field::FpElem g)
      : p_ctx_(std::move(p_ctx)), q_ctx_(std::move(q_ctx)), g_(g) {}

  std::shared_ptr<field::FpCtx> p_ctx_;
  std::shared_ptr<field::FpCtx> q_ctx_;
  field::FpElem g_;
};

struct SchnorrKeyPair {
  Bytes sk;  // scalar, big-endian, q-width
  Bytes pk;  // group element, serialized via p_ctx
};

struct SchnorrSignature {
  Bytes e;  // challenge scalar, big-endian q-width
  Bytes s;  // response scalar, big-endian q-width

  bool operator==(const SchnorrSignature&) const = default;

  Bytes Serialize() const;
  static SchnorrSignature Deserialize(std::span<const std::uint8_t> data);
};

SchnorrKeyPair SchnorrKeygen(const SchnorrGroup& group, Rng& rng);

SchnorrSignature SchnorrSign(const SchnorrGroup& group,
                             std::span<const std::uint8_t> sk,
                             std::span<const std::uint8_t> msg, Rng& rng);

bool SchnorrVerify(const SchnorrGroup& group, std::span<const std::uint8_t> pk,
                   std::span<const std::uint8_t> msg,
                   const SchnorrSignature& sig);

// Static Diffie-Hellman over the group: peer_pk^sk mod p, serialized.
// Feed through HKDF to derive channel keys (see channel.h).
Bytes DhSharedSecret(const SchnorrGroup& group, std::span<const std::uint8_t> sk,
                     std::span<const std::uint8_t> peer_pk);

}  // namespace pisces::crypto
