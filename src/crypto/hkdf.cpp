#include "crypto/hkdf.h"

namespace pisces::crypto {

Bytes HkdfSha256(std::span<const std::uint8_t> salt,
                 std::span<const std::uint8_t> ikm,
                 std::span<const std::uint8_t> info, std::size_t out_len) {
  Require(out_len <= 255 * kSha256DigestSize, "HkdfSha256: output too long");
  const HmacSha256Key prk(HmacSha256(salt, ikm));
  Bytes out;
  out.reserve(out_len);
  Bytes t;
  std::uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes block = t;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    Digest d = prk.Mac(block);
    t.assign(d.begin(), d.end());
    std::size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

}  // namespace pisces::crypto
