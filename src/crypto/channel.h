// Authenticated encrypted point-to-point channels between share storage
// hosts, replacing the paper's TLS links.
//
// Key agreement is static Diffie-Hellman over the Schnorr group using the
// hypervisor-signed host keys of the current epoch; directional keys come out
// of HKDF. Framing is encrypt-then-MAC: nonce counter || ChaCha20 ciphertext
// || HMAC-SHA256 tag. Because host keys are rotated at every reboot (Key
// Secrecy, paper SectionIII-C.3), an adversary corrupting a host in round i
// cannot decrypt traffic from rounds j > i.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/schnorr.h"

namespace pisces::crypto {

// Derives the two directional channel keys for the (lo, hi) host pair from a
// DH shared secret. Returns {key_lo_to_hi, key_hi_to_lo}.
std::pair<Bytes, Bytes> DeriveChannelKeys(std::span<const std::uint8_t> shared,
                                          std::uint32_t epoch,
                                          std::uint32_t id_lo,
                                          std::uint32_t id_hi);

// One direction of a secure channel. Sealing increments a nonce counter;
// opening rejects replays with a sliding acceptance window (IPsec/DTLS
// style): frames up to kReplayWindow counters behind the highest seen are
// accepted exactly once, anything older or already seen is rejected. Plain
// strictly-increasing enforcement would turn benign network reordering into
// silent message loss -- the fault fabric's reorder knob found exactly that.
class SecureChannel {
 public:
  // Frames this far behind the newest accepted counter are still accepted
  // (once). Bounds legitimate reorder tolerance AND replay memory.
  static constexpr std::uint64_t kReplayWindow = 64;

  // Each key is cipher key (32 B) || MAC key (32 B).
  SecureChannel(std::span<const std::uint8_t> send_key,
                std::span<const std::uint8_t> recv_key);

  Bytes Seal(std::span<const std::uint8_t> plaintext);
  // nullopt on tag mismatch, replay/too-old counter, or malformed frame.
  std::optional<Bytes> Open(std::span<const std::uint8_t> frame);

  std::uint64_t sent_count() const { return send_counter_; }

 private:
  // One direction's key schedule: the cipher key, and the MAC key with its
  // HMAC pads absorbed once here rather than once per frame.
  struct DirectionKeys {
    explicit DirectionKeys(std::span<const std::uint8_t> key);
    Bytes cipher_key;
    HmacSha256Key mac;
  };

  DirectionKeys send_;
  DirectionKeys recv_;
  std::uint64_t send_counter_ = 0;
  std::uint64_t recv_highwater_ = 0;  // highest counter accepted so far
  // Bit i records whether counter recv_highwater_ - i has been accepted.
  std::uint64_t recv_seen_ = 0;
};

// Convenience: build the pair of matching channel endpoints for two hosts
// given their long-term (epoch) keys.
SecureChannel MakeChannel(const SchnorrGroup& group,
                          std::span<const std::uint8_t> my_sk,
                          std::span<const std::uint8_t> peer_pk,
                          std::uint32_t epoch, std::uint32_t my_id,
                          std::uint32_t peer_id);

}  // namespace pisces::crypto
