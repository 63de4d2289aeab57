// HMAC-SHA256 (RFC 2104), used for message authentication on secure channels
// and as the PRF inside HKDF.
#pragma once

#include "crypto/sha256.h"

namespace pisces::crypto {

// HMAC-SHA256 under one key, with the key pads absorbed once at
// construction: each Mac() then costs the data's compressions plus two,
// instead of re-hashing ipad and opad per message.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::span<const std::uint8_t> key);

  Digest Mac(std::span<const std::uint8_t> data) const;

 private:
  Sha256 inner_;  // state after ipad
  Sha256 outer_;  // state after opad
};

Digest HmacSha256(std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> data);

// Constant-time digest comparison.
bool DigestEq(const Digest& a, const Digest& b);

}  // namespace pisces::crypto
