#include "crypto/channel.h"

#include "crypto/chacha20.h"
#include "crypto/hkdf.h"
#include "obs/registry.h"

namespace pisces::crypto {

std::pair<Bytes, Bytes> DeriveChannelKeys(std::span<const std::uint8_t> shared,
                                          std::uint32_t epoch,
                                          std::uint32_t id_lo,
                                          std::uint32_t id_hi) {
  ByteWriter info;
  info.Raw(Bytes{'p', 'i', 's', 'c', 'e', 's', '-', 'c', 'h'});
  info.U32(epoch);
  info.U32(id_lo);
  info.U32(id_hi);
  Bytes salt;  // empty salt is fine for HKDF
  Bytes okm = HkdfSha256(salt, shared, info.bytes(), 2 * (32 + 32));
  // Each direction: 32B cipher key + 32B mac key, packed together.
  Bytes lo_to_hi(okm.begin(), okm.begin() + 64);
  Bytes hi_to_lo(okm.begin() + 64, okm.end());
  return {std::move(lo_to_hi), std::move(hi_to_lo)};
}

namespace {
std::span<const std::uint8_t> CheckedKey(std::span<const std::uint8_t> key) {
  Require(key.size() == 64, "SecureChannel: keys must be 64 bytes (cipher||mac)");
  return key;
}
}  // namespace

SecureChannel::DirectionKeys::DirectionKeys(std::span<const std::uint8_t> key)
    : cipher_key(key.begin(), key.begin() + 32), mac(key.subspan(32)) {}

SecureChannel::SecureChannel(std::span<const std::uint8_t> send_key,
                             std::span<const std::uint8_t> recv_key)
    : send_(CheckedKey(send_key)), recv_(CheckedKey(recv_key)) {}

namespace {
// Frame layout: counter (u64 LE) || ciphertext length (u32 LE) || ChaCha20
// ciphertext || HMAC-SHA256 tag over everything before it.
constexpr std::size_t kFrameHeader = 8 + 4;

std::array<std::uint8_t, kChaChaNonceSize> NonceFor(std::uint64_t counter) {
  std::array<std::uint8_t, kChaChaNonceSize> nonce{};
  StoreLe64(counter, nonce.data());
  return nonce;
}
}  // namespace

Bytes SecureChannel::Seal(std::span<const std::uint8_t> plaintext) {
  static obs::Counter& sealed = obs::RegisterCounter(
      "crypto.bytes_sealed", "plaintext bytes sealed by SecureChannel::Seal");
  sealed.Add(plaintext.size());
  ++send_counter_;
  const std::size_t body_len = kFrameHeader + plaintext.size();
  Bytes frame(body_len + kSha256DigestSize);
  StoreLe64(send_counter_, frame.data());
  StoreLe32(static_cast<std::uint32_t>(plaintext.size()), frame.data() + 8);
  std::copy(plaintext.begin(), plaintext.end(), frame.begin() + kFrameHeader);
  ChaCha20Xor(send_.cipher_key, NonceFor(send_counter_), 1,
              std::span<std::uint8_t>(frame).subspan(kFrameHeader,
                                                     plaintext.size()));
  const Digest tag = send_.mac.Mac(std::span(frame).first(body_len));
  std::copy(tag.begin(), tag.end(), frame.begin() + body_len);
  return frame;
}

std::optional<Bytes> SecureChannel::Open(std::span<const std::uint8_t> frame) {
  if (frame.size() < kFrameHeader + kSha256DigestSize) return std::nullopt;
  const std::size_t body_len = frame.size() - kSha256DigestSize;
  Digest expected = recv_.mac.Mac(frame.first(body_len));
  Digest got;
  std::copy(frame.begin() + body_len, frame.end(), got.begin());
  if (!DigestEq(expected, got)) return std::nullopt;

  const std::uint64_t counter = LoadLe64(frame.data());
  if (LoadLe32(frame.data() + 8) != body_len - kFrameHeader) return std::nullopt;
  // Sliding-window anti-replay. recv_seen_ bit i covers counter
  // recv_highwater_ - i; bit 0 (the highwater itself) is always set.
  if (counter > recv_highwater_) {
    const std::uint64_t advance = counter - recv_highwater_;
    recv_seen_ = advance >= 64 ? 0 : recv_seen_ << advance;
    recv_seen_ |= 1;
    recv_highwater_ = counter;
  } else {
    const std::uint64_t behind = recv_highwater_ - counter;
    if (behind >= kReplayWindow) return std::nullopt;  // too old
    const std::uint64_t bit = 1ull << behind;
    if ((recv_seen_ & bit) != 0) return std::nullopt;  // replay
    recv_seen_ |= bit;
  }
  Bytes pt(frame.begin() + kFrameHeader, frame.begin() + body_len);
  ChaCha20Xor(recv_.cipher_key, NonceFor(counter), 1, pt);
  static obs::Counter& opened = obs::RegisterCounter(
      "crypto.bytes_opened", "plaintext bytes opened by SecureChannel::Open");
  opened.Add(pt.size());
  return pt;
}

SecureChannel MakeChannel(const SchnorrGroup& group,
                          std::span<const std::uint8_t> my_sk,
                          std::span<const std::uint8_t> peer_pk,
                          std::uint32_t epoch, std::uint32_t my_id,
                          std::uint32_t peer_id) {
  Require(my_id != peer_id, "MakeChannel: identical endpoints");
  Bytes shared = DhSharedSecret(group, my_sk, peer_pk);
  std::uint32_t lo = std::min(my_id, peer_id);
  std::uint32_t hi = std::max(my_id, peer_id);
  auto [lo_to_hi, hi_to_lo] = DeriveChannelKeys(shared, epoch, lo, hi);
  if (my_id == lo) return SecureChannel(lo_to_hi, hi_to_lo);
  return SecureChannel(hi_to_lo, lo_to_hi);
}

}  // namespace pisces::crypto
