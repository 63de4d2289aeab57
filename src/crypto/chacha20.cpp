#include "crypto/chacha20.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace pisces::crypto {

namespace {

// The 4x4 state as four rows of four lanes (GCC vector extensions: SSE2 on
// x86-64, plain lanes elsewhere). A column round is one quarter round on the
// rows; rotating rows 1-3 by 1-3 lanes lines the diagonals up as columns.
using Row = std::uint32_t __attribute__((vector_size(16)));

template <int N>
Row Rotl(Row x) {
  return (x << N) | (x >> (32 - N));
}

void QuarterRound(Row& a, Row& b, Row& c, Row& d) {
  a += b; d ^= a; d = Rotl<16>(d);
  c += d; b ^= c; b = Rotl<12>(b);
  a += b; d ^= a; d = Rotl<8>(d);
  c += d; b ^= c; b = Rotl<7>(b);
}

// 64 keystream bytes for the state `in` (block counter in lane 0 of row 3).
void KeystreamBlock(const Row in[4], std::uint8_t out[64]) {
  Row a = in[0], b = in[1], c = in[2], d = in[3];
  for (int round = 0; round < 10; ++round) {
    QuarterRound(a, b, c, d);
    b = __builtin_shuffle(b, Row{1, 2, 3, 0});
    c = __builtin_shuffle(c, Row{2, 3, 0, 1});
    d = __builtin_shuffle(d, Row{3, 0, 1, 2});
    QuarterRound(a, b, c, d);
    b = __builtin_shuffle(b, Row{3, 0, 1, 2});
    c = __builtin_shuffle(c, Row{2, 3, 0, 1});
    d = __builtin_shuffle(d, Row{1, 2, 3, 0});
  }
  const Row rows[4] = {a + in[0], b + in[1], c + in[2], d + in[3]};
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, rows, 64);
  } else {
    for (int i = 0; i < 16; ++i) StoreLe32(rows[i / 4][i % 4], out + 4 * i);
  }
}

}  // namespace

void ChaCha20Xor(std::span<const std::uint8_t> key,
                 std::span<const std::uint8_t> nonce, std::uint32_t counter,
                 std::span<std::uint8_t> data) {
  Require(key.size() == kChaChaKeySize, "ChaCha20: bad key size");
  Require(nonce.size() == kChaChaNonceSize, "ChaCha20: bad nonce size");
  const std::uint8_t* k = key.data();
  const std::uint8_t* n = nonce.data();
  Row state[4] = {
      {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574},
      {LoadLe32(k), LoadLe32(k + 4), LoadLe32(k + 8), LoadLe32(k + 12)},
      {LoadLe32(k + 16), LoadLe32(k + 20), LoadLe32(k + 24), LoadLe32(k + 28)},
      {counter, LoadLe32(n), LoadLe32(n + 4), LoadLe32(n + 8)}};
  std::uint8_t block[64];
  for (std::size_t off = 0; off < data.size(); off += 64) {
    KeystreamBlock(state, block);
    ++state[3][0];
    std::uint8_t* dst = data.data() + off;
    if (data.size() - off >= 64) {
      Row text[4], ks[4];
      std::memcpy(text, dst, 64);
      std::memcpy(ks, block, 64);
      for (int i = 0; i < 4; ++i) text[i] ^= ks[i];
      std::memcpy(dst, text, 64);
    } else {
      for (std::size_t i = 0; off + i < data.size(); ++i) dst[i] ^= block[i];
    }
  }
}

std::array<std::uint8_t, 64> ChaCha20Block(std::span<const std::uint8_t> key,
                                           std::span<const std::uint8_t> nonce,
                                           std::uint32_t counter) {
  std::array<std::uint8_t, 64> out{};
  ChaCha20Xor(key, nonce, counter, out);
  return out;
}

}  // namespace pisces::crypto
