// Crypto substrate tests against published vectors (FIPS 180-4, RFC 4231,
// RFC 5869, RFC 8439) plus behavioural tests for Schnorr, the CA, and the
// secure channel.
#include <gtest/gtest.h>

#include "crypto/ca.h"
#include "crypto/chacha20.h"
#include "crypto/channel.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "obs/registry.h"

namespace pisces::crypto {
namespace {

Bytes Ascii(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string HexOf(std::span<const std::uint8_t> d) { return ToHex(d); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(HexOf(Sha256Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HexOf(Sha256Hash(Ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256Hash(Ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data = Ascii("the quick brown fox jumps over the lazy dog 0123456789");
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(std::span<const std::uint8_t>(data).subspan(0, split));
    h.Update(std::span<const std::uint8_t>(data).subspan(split));
    EXPECT_EQ(h.Finish(), Sha256Hash(data)) << split;
  }
}

// SHA-256 of `data` on the scalar kernel alone, with its own padding: the
// oracle for Sha256's kernel choice and for its Update/Finish buffering.
Digest ScalarSha256(std::span<const std::uint8_t> data) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{data.size()} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  kernels::Sha256CompressScalar(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 32; ++i) out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

TEST(Sha256Kernels, ShaNiMatchesScalarOnRandomBlocks) {
#if defined(__x86_64__)
  if (!kernels::Sha256HasShaNi()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(0x5A256);
  for (int iter = 0; iter < 10000; ++iter) {
    std::uint32_t scalar[8], shani[8];
    for (int i = 0; i < 8; ++i) scalar[i] = shani[i] = static_cast<std::uint32_t>(rng.Next());
    const std::size_t blocks = 1 + iter % 3;
    const Bytes data = rng.RandomBytes(64 * blocks);
    kernels::Sha256CompressScalar(scalar, data.data(), blocks);
    kernels::Sha256CompressShaNi(shani, data.data(), blocks);
    ASSERT_TRUE(std::equal(scalar, scalar + 8, shani)) << "iteration " << iter;
  }
#else
  GTEST_SKIP() << "SHA-NI kernel is x86-64 only";
#endif
}

// Every length through 300 bytes (the 55/56/63/64 padding edges and several
// blocks), fed whole and in uneven Update splits, against the scalar oracle.
TEST(Sha256Kernels, HashMatchesScalarOracleForEveryLengthAndSplit) {
  Rng rng(0xD16E57);
  const Bytes data = rng.RandomBytes(300);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t len = 0; len <= all.size(); ++len) {
    const auto msg = all.first(len);
    const Digest want = ScalarSha256(msg);
    EXPECT_EQ(Sha256Hash(msg), want) << len;
    for (std::size_t step : {1u, 7u, 63u, 64u, 65u}) {
      Sha256 h;
      for (std::size_t off = 0; off < len; off += step) {
        h.Update(msg.subspan(off, std::min(step, len - off)));
      }
      EXPECT_EQ(h.Finish(), want) << len << " in steps of " << step;
    }
  }
}

// RFC 4231 test cases 1-7, through the keyed state and the one-shot wrapper.
// Case 5 publishes only the leading 128 bits; 6 and 7 use a key longer than
// the block, which is hashed first.
TEST(Hmac, Rfc4231Cases1To7) {
  Bytes key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const struct {
    Bytes key;
    Bytes data;
    std::string mac_hex;
  } cases[] = {
      {Bytes(20, 0x0b), Ascii("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {Ascii("Jefe"), Ascii("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(20, 0x0c), Ascii("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {Bytes(131, 0xaa),
       Ascii("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       Ascii("This is a test using a larger than block-size key and a larger "
             "than block-size data. The key needs to be hashed before being "
             "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  int n = 0;
  for (const auto& c : cases) {
    ++n;
    const std::size_t len = c.mac_hex.size() / 2;
    const HmacSha256Key keyed(c.key);
    // The keyed state is reused: its second Mac must match too.
    for (const Digest& d :
         {HmacSha256(c.key, c.data), keyed.Mac(c.data), keyed.Mac(c.data)}) {
      EXPECT_EQ(HexOf(std::span(d).first(len)), c.mac_hex) << "case " << n;
    }
  }
}

TEST(Hmac, DigestEqConstantTime) {
  Digest a{}, b{};
  EXPECT_TRUE(DigestEq(a, b));
  b[31] = 1;
  EXPECT_FALSE(DigestEq(a, b));
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = FromHex("000102030405060708090a0b0c");
  Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = HkdfSha256(salt, ikm, info, 42);
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DifferentInfoGivesDifferentKeys) {
  Bytes ikm(32, 0x42);
  Bytes a = HkdfSha256({}, ikm, Ascii("a"), 32);
  Bytes b = HkdfSha256({}, ikm, Ascii("b"), 32);
  EXPECT_NE(a, b);
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = FromHex("000000090000004a00000000");
  auto block = ChaCha20Block(key, nonce, 1);
  EXPECT_EQ(ToHex(std::span<const std::uint8_t>(block.data(), 16)),
            "10f1e7e4d13b5915500fdd1fa32071c4");
}

TEST(ChaCha20, Rfc8439Encryption) {
  Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = FromHex("000000000000004a00000000");
  Bytes plaintext = Ascii(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes ct = plaintext;
  ChaCha20Xor(key, nonce, 1, ct);
  EXPECT_EQ(ToHex(std::span<const std::uint8_t>(ct.data(), 32)),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption is the same operation.
  Bytes back = ct;
  ChaCha20Xor(key, nonce, 1, back);
  EXPECT_EQ(back, plaintext);
}

TEST(ChaCha20, RejectsBadSizes) {
  Bytes key(31, 0);
  Bytes nonce(12, 0);
  Bytes data(4, 0);
  EXPECT_THROW(ChaCha20Xor(key, nonce, 0, data), InvalidArgument);
}

// RFC 8439 section 2.3, one 32-bit word at a time: the oracle for the
// row-vector ChaCha20.
void ScalarChaCha20Xor(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> nonce,
                       std::uint32_t counter, std::span<std::uint8_t> data) {
  auto rotl = [](std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); };
  auto qr = [&](std::uint32_t* w, int a, int b, int c, int d) {
    w[a] += w[b]; w[d] ^= w[a]; w[d] = rotl(w[d], 16);
    w[c] += w[d]; w[b] ^= w[c]; w[b] = rotl(w[b], 12);
    w[a] += w[b]; w[d] ^= w[a]; w[d] = rotl(w[d], 8);
    w[c] += w[d]; w[b] ^= w[c]; w[b] = rotl(w[b], 7);
  };
  for (std::size_t off = 0; off < data.size(); off += 64, ++counter) {
    std::uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
    for (int i = 0; i < 8; ++i) state[4 + i] = LoadLe32(key.data() + 4 * i);
    state[12] = counter;
    for (int i = 0; i < 3; ++i) state[13 + i] = LoadLe32(nonce.data() + 4 * i);
    std::uint32_t w[16];
    std::copy(state, state + 16, w);
    for (int round = 0; round < 10; ++round) {
      qr(w, 0, 4, 8, 12); qr(w, 1, 5, 9, 13); qr(w, 2, 6, 10, 14); qr(w, 3, 7, 11, 15);
      qr(w, 0, 5, 10, 15); qr(w, 1, 6, 11, 12); qr(w, 2, 7, 8, 13); qr(w, 3, 4, 9, 14);
    }
    for (std::size_t i = 0; i < 64 && off + i < data.size(); ++i) {
      data[off + i] ^= static_cast<std::uint8_t>((w[i / 4] + state[i / 4]) >> (8 * (i % 4)));
    }
  }
}

TEST(ChaCha20, MatchesScalarOracleForEveryLength) {
  Rng rng(0xC4AC4A);
  const Bytes key = rng.RandomBytes(kChaChaKeySize);
  const Bytes nonce = rng.RandomBytes(kChaChaNonceSize);
  const Bytes text = rng.RandomBytes(300);
  for (std::size_t len = 0; len <= text.size(); ++len) {
    Bytes got(text.begin(), text.begin() + len);
    Bytes want = got;
    ChaCha20Xor(key, nonce, 1, got);
    ScalarChaCha20Xor(key, nonce, 1, want);
    ASSERT_EQ(got, want) << len;
  }
}

// The block counter is 32 bits and wraps; the nonce words never carry.
TEST(ChaCha20, CounterWrapMatchesScalarOracle) {
  Rng rng(0x3A9);
  const Bytes key = rng.RandomBytes(kChaChaKeySize);
  const Bytes nonce = rng.RandomBytes(kChaChaNonceSize);
  Bytes got = rng.RandomBytes(4 * 64 + 17);
  Bytes want = got;
  ChaCha20Xor(key, nonce, 0xfffffffe, got);
  ScalarChaCha20Xor(key, nonce, 0xfffffffe, want);
  EXPECT_EQ(got, want);
}

class SchnorrTest : public ::testing::Test {
 protected:
  SchnorrTest() : group_(SchnorrGroup::Default()), rng_(33) {}
  const SchnorrGroup& group_;
  Rng rng_;
};

TEST_F(SchnorrTest, GroupStructure) {
  const auto& p = group_.p_ctx();
  EXPECT_EQ(p.bits(), 512u);
  EXPECT_EQ(group_.q_ctx().bits(), 256u);
  // g has order q: g^q == 1.
  Bytes q_be = group_.q_ctx().ModulusBytes();
  EXPECT_TRUE(p.Eq(p.PowBytes(group_.g(), q_be), p.One()));
  EXPECT_FALSE(p.Eq(group_.g(), p.One()));
}

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  auto keys = SchnorrKeygen(group_, rng_);
  Bytes msg = Ascii("refresh epoch 7 commitment");
  auto sig = SchnorrSign(group_, keys.sk, msg, rng_);
  EXPECT_TRUE(SchnorrVerify(group_, keys.pk, msg, sig));
}

TEST_F(SchnorrTest, TamperedMessageFails) {
  auto keys = SchnorrKeygen(group_, rng_);
  auto sig = SchnorrSign(group_, keys.sk, Ascii("hello"), rng_);
  EXPECT_FALSE(SchnorrVerify(group_, keys.pk, Ascii("hellp"), sig));
}

TEST_F(SchnorrTest, WrongKeyFails) {
  auto keys = SchnorrKeygen(group_, rng_);
  auto other = SchnorrKeygen(group_, rng_);
  auto sig = SchnorrSign(group_, keys.sk, Ascii("msg"), rng_);
  EXPECT_FALSE(SchnorrVerify(group_, other.pk, Ascii("msg"), sig));
}

TEST_F(SchnorrTest, SignatureSerialization) {
  auto keys = SchnorrKeygen(group_, rng_);
  auto sig = SchnorrSign(group_, keys.sk, Ascii("x"), rng_);
  auto back = SchnorrSignature::Deserialize(sig.Serialize());
  EXPECT_EQ(back.e, sig.e);
  EXPECT_EQ(back.s, sig.s);
}

TEST_F(SchnorrTest, WrongSizeScalarsRejected) {
  auto keys = SchnorrKeygen(group_, rng_);
  Bytes msg = Ascii("sized");
  auto sig = SchnorrSign(group_, keys.sk, msg, rng_);
  ASSERT_TRUE(SchnorrVerify(group_, keys.pk, msg, sig));
  for (bool which_e : {true, false}) {
    for (int delta : {-1, 1}) {
      SchnorrSignature bad = sig;
      Bytes& field = which_e ? bad.e : bad.s;
      if (delta < 0) {
        field.erase(field.begin());  // drop a leading byte
      } else {
        field.insert(field.begin(), 0);  // same value, one byte too wide
      }
      EXPECT_FALSE(SchnorrVerify(group_, keys.pk, msg, bad))
          << (which_e ? "e" : "s") << " delta " << delta;
    }
  }
  SchnorrSignature empty;
  EXPECT_FALSE(SchnorrVerify(group_, keys.pk, msg, empty));
}

TEST_F(SchnorrTest, OutOfRangeScalarsRejected) {
  auto keys = SchnorrKeygen(group_, rng_);
  Bytes msg = Ascii("ranged");
  auto sig = SchnorrSign(group_, keys.sk, msg, rng_);
  ASSERT_TRUE(SchnorrVerify(group_, keys.pk, msg, sig));
  const Bytes q_be = group_.q_ctx().ModulusBytes();
  ASSERT_EQ(q_be.size(), sig.e.size());
  // s + q is the same exponent of g (g has order q), so without the range
  // check it would verify: a second signature for the same message.
  Bytes s_plus_q(sig.s.size());
  unsigned carry = 0;
  for (std::size_t i = s_plus_q.size(); i-- > 0;) {
    carry += unsigned{sig.s[i]} + q_be[i];
    s_plus_q[i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  for (const Bytes& out : {q_be, Bytes(q_be.size(), 0xFF)}) {
    SchnorrSignature bad_e = sig;
    bad_e.e = out;
    EXPECT_FALSE(SchnorrVerify(group_, keys.pk, msg, bad_e));
    SchnorrSignature bad_s = sig;
    bad_s.s = out;
    EXPECT_FALSE(SchnorrVerify(group_, keys.pk, msg, bad_s));
  }
  if (carry == 0) {  // s + q still fits in q-width bytes
    SchnorrSignature shifted = sig;
    shifted.s = s_plus_q;
    EXPECT_FALSE(SchnorrVerify(group_, keys.pk, msg, shifted));
  }
  // A public key that is not a field element is rejected, not thrown.
  EXPECT_FALSE(SchnorrVerify(group_, Bytes(keys.pk.size(), 0xFF), msg, sig));
}

TEST_F(SchnorrTest, DhSharedSecretSymmetric) {
  auto a = SchnorrKeygen(group_, rng_);
  auto b = SchnorrKeygen(group_, rng_);
  EXPECT_EQ(DhSharedSecret(group_, a.sk, b.pk),
            DhSharedSecret(group_, b.sk, a.pk));
  auto c = SchnorrKeygen(group_, rng_);
  EXPECT_NE(DhSharedSecret(group_, a.sk, b.pk),
            DhSharedSecret(group_, a.sk, c.pk));
}

TEST_F(SchnorrTest, CertAuthorityIssuesVerifiableCerts) {
  CertAuthority ca(group_, rng_);
  auto [cert, sk] = ca.IssueHostKey(5, 2, rng_);
  EXPECT_EQ(cert.host_id, 5u);
  EXPECT_EQ(cert.epoch, 2u);
  EXPECT_TRUE(CertAuthority::VerifyCert(group_, ca.public_key(), cert));
  // Cert round-trips the wire.
  auto back = HostCert::Deserialize(cert.Serialize());
  EXPECT_TRUE(CertAuthority::VerifyCert(group_, ca.public_key(), back));
  // Tampering breaks it.
  back.host_id = 6;
  EXPECT_FALSE(CertAuthority::VerifyCert(group_, ca.public_key(), back));
}

TEST_F(SchnorrTest, CertFromOtherCaRejected) {
  CertAuthority ca1(group_, rng_);
  CertAuthority ca2(group_, rng_);
  auto [cert, sk] = ca1.IssueHostKey(1, 1, rng_);
  EXPECT_FALSE(CertAuthority::VerifyCert(group_, ca2.public_key(), cert));
}

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : group_(SchnorrGroup::Default()), rng_(44) {
    a_keys_ = SchnorrKeygen(group_, rng_);
    b_keys_ = SchnorrKeygen(group_, rng_);
  }
  SecureChannel MakeA() {
    return MakeChannel(group_, a_keys_.sk, b_keys_.pk, 1, 10, 20);
  }
  SecureChannel MakeB() {
    return MakeChannel(group_, b_keys_.sk, a_keys_.pk, 1, 20, 10);
  }
  const SchnorrGroup& group_;
  Rng rng_;
  SchnorrKeyPair a_keys_, b_keys_;
};

TEST_F(ChannelTest, SealOpenRoundTrip) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes msg = Ascii("share block 42");
  Bytes frame = a.Seal(msg);
  EXPECT_NE(frame, msg);  // actually encrypted
  auto opened = b.Open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
  // And the other direction with independent keys.
  Bytes frame2 = b.Seal(msg);
  EXPECT_NE(frame2, frame);
  auto opened2 = a.Open(frame2);
  ASSERT_TRUE(opened2.has_value());
  EXPECT_EQ(*opened2, msg);
}

// crypto.bytes_sealed / crypto.bytes_opened count plaintext bytes, exactly;
// a rejected frame opens nothing.
TEST_F(ChannelTest, SealAndOpenCountPlaintextBytes) {
  auto a = MakeA();
  auto b = MakeB();
  const Bytes msg = rng_.RandomBytes(1000);
  obs::Snapshot before = obs::TakeSnapshot();
  Bytes frame = a.Seal(msg);
  ASSERT_TRUE(b.Open(frame).has_value());
  obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "crypto.bytes_sealed"), msg.size());
  EXPECT_EQ(obs::Value(delta, "crypto.bytes_opened"), msg.size());

  before = obs::TakeSnapshot();
  EXPECT_FALSE(b.Open(frame).has_value());  // replay
  delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "crypto.bytes_sealed"), 0u);
  EXPECT_EQ(obs::Value(delta, "crypto.bytes_opened"), 0u);
}

TEST_F(ChannelTest, TamperDetected) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes frame = a.Seal(Ascii("data"));
  frame[frame.size() / 2] ^= 1;
  EXPECT_FALSE(b.Open(frame).has_value());
}

TEST_F(ChannelTest, ReplayRejected) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes frame = a.Seal(Ascii("once"));
  EXPECT_TRUE(b.Open(frame).has_value());
  EXPECT_FALSE(b.Open(frame).has_value());
}

TEST_F(ChannelTest, ReorderedFrameAcceptedExactlyOnce) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes f1 = a.Seal(Ascii("one"));
  Bytes f2 = a.Seal(Ascii("two"));
  // The network delivered f2 first; f1 is late but legitimate. The sliding
  // anti-replay window accepts it once and rejects the replayed copy.
  EXPECT_TRUE(b.Open(f2).has_value());
  auto late = b.Open(f1);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, Ascii("one"));
  EXPECT_FALSE(b.Open(f1).has_value()) << "second copy is a replay";
  EXPECT_FALSE(b.Open(f2).has_value()) << "second copy is a replay";
}

TEST_F(ChannelTest, FramesBehindTheWindowRejected) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes stale = a.Seal(Ascii("stale"));  // counter 1
  // Advance the receive highwater far past the window.
  for (std::uint64_t i = 0; i < SecureChannel::kReplayWindow + 1; ++i) {
    ASSERT_TRUE(b.Open(a.Seal(Ascii("advance"))).has_value());
  }
  EXPECT_FALSE(b.Open(stale).has_value())
      << "counters older than the window must be rejected unseen or not";
}

TEST_F(ChannelTest, ShuffledBurstAllAcceptedOnceUnderWindow) {
  auto a = MakeA();
  auto b = MakeB();
  std::vector<Bytes> frames;
  for (int i = 0; i < 32; ++i) {
    frames.push_back(a.Seal(Bytes{static_cast<std::uint8_t>(i)}));
  }
  // Worst-case reorder within the window: deliver in reverse.
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    EXPECT_TRUE(b.Open(*it).has_value());
  }
  for (const auto& f : frames) {
    EXPECT_FALSE(b.Open(f).has_value()) << "every duplicate must be rejected";
  }
}

// The sealed wire format, pinned: counter (u64 LE) || blob(ChaCha20
// ciphertext) || HMAC-SHA256 tag, for fixed keys at send counter 3.
TEST(ChannelGolden, SealFrameIsPinned) {
  Bytes ka(64), kb(64);
  for (int i = 0; i < 64; ++i) {
    ka[i] = static_cast<std::uint8_t>(i);
    kb[i] = static_cast<std::uint8_t>(0x80 + i);
  }
  SecureChannel tx(ka, kb), rx(kb, ka);
  const Bytes msg = Ascii("pisces frame");
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(rx.Open(tx.Seal(msg)).has_value());
  const Bytes frame = tx.Seal(msg);
  EXPECT_EQ(ToHex(frame),
            "03000000000000000c0000008c78971c6a224dab503a4449326b6530d4708b85"
            "538b35f6b82690f8014e00825483c12e596941369fa8e1c0");
  auto opened = rx.Open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

// The one-buffer Seal writes exactly the frame the ByteWriter construction
// did: counter || blob(ChaCha20 ciphertext) || HMAC over both.
TEST(ChannelGolden, SealMatchesByteWriterFrame) {
  Rng rng(0xF4A3E);
  const Bytes key = rng.RandomBytes(64);
  SecureChannel tx(key, rng.RandomBytes(64));
  const std::span<const std::uint8_t> cipher_key = std::span(key).first(32);
  const std::span<const std::uint8_t> mac_key = std::span(key).subspan(32);
  for (std::uint64_t counter = 1; counter <= 301; ++counter) {
    const Bytes msg = rng.RandomBytes(counter - 1);
    Bytes nonce(kChaChaNonceSize, 0);
    StoreLe64(counter, nonce.data());
    Bytes ct = msg;
    ChaCha20Xor(cipher_key, nonce, 1, ct);
    ByteWriter w;
    w.U64(counter);
    w.Blob(ct);
    w.Raw(HmacSha256(mac_key, w.bytes()));
    ASSERT_EQ(tx.Seal(msg), w.bytes()) << "length " << msg.size();
  }
}

TEST_F(ChannelTest, EpochSeparation) {
  auto a1 = MakeChannel(group_, a_keys_.sk, b_keys_.pk, 1, 10, 20);
  auto b2 = MakeChannel(group_, b_keys_.sk, a_keys_.pk, 2, 20, 10);
  Bytes frame = a1.Seal(Ascii("cross-epoch"));
  EXPECT_FALSE(b2.Open(frame).has_value());
}

}  // namespace
}  // namespace pisces::crypto
