// SHA-256 (FIPS 180-4), implemented from scratch. The compression function
// runs on the CPU's SHA extensions where present, else on a portable scalar
// loop (crypto/sha256_kernels.h).
//
// Used for: file integrity checksums in the codec, HMAC/HKDF for channel
// keys, and the Fiat-Shamir style challenge in Schnorr signatures.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace pisces::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  void Update(std::span<const std::uint8_t> data);
  Digest Finish();

  void Reset();

 private:
  // Compresses `blocks` consecutive 64-byte blocks into h_.
  void Compress(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

Digest Sha256Hash(std::span<const std::uint8_t> data);

}  // namespace pisces::crypto
