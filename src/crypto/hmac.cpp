#include "crypto/hmac.h"

namespace pisces::crypto {

HmacSha256Key::HmacSha256Key(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    Digest kd = Sha256Hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad);
  outer_.Update(opad);
}

Digest HmacSha256Key::Mac(std::span<const std::uint8_t> data) const {
  Sha256 inner = inner_;
  inner.Update(data);
  Sha256 outer = outer_;
  outer.Update(inner.Finish());
  return outer.Finish();
}

Digest HmacSha256(std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> data) {
  return HmacSha256Key(key).Mac(data);
}

bool DigestEq(const Digest& a, const Digest& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace pisces::crypto
