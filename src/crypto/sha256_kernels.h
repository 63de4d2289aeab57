// SHA-256 compression kernels behind Sha256 (internal header).
//
// Sha256 picks one kernel per process: the SHA-NI kernel when the CPU reports
// the SHA extensions (and SSE4.1), otherwise the portable scalar loop. The
// scalar kernel is also the oracle the SHA-NI kernel is tested against
// (tests/crypto_test.cpp). Nothing outside Sha256 and its tests selects a
// kernel; there is no knob.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pisces::crypto::kernels {

// Compresses `blocks` consecutive 64-byte blocks into state (h0..h7).
void Sha256CompressScalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks);

#if defined(__x86_64__)
// Same contract; only valid when Sha256HasShaNi() is true.
void Sha256CompressShaNi(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t blocks);
#endif

// True iff this CPU runs Sha256CompressShaNi (checked once, by CPUID).
bool Sha256HasShaNi();

}  // namespace pisces::crypto::kernels
