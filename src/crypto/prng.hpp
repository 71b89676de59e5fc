#pragma once
// Deterministic pseudo-random number generation for the 2PC stack.
//
// Cryptographic protocols in this library consume randomness from a
// counter-free xoshiro256** generator seeded via splitmix64.  Two parties
// that hold the *same* seed form a "shared PRG" (correlated randomness),
// which is how the trusted dealer and share-generation helpers derive
// common masks without communication.
//
// This is a reproducibility-grade generator, not a CSPRNG; see README.md,
// "Honest scope", for the security caveats of the whole simulation.

#include <array>
#include <cstdint>

namespace pasnet::crypto {

/// xoshiro256** PRNG.  Deterministic given the seed; never throws.
class Prng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Prng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next 64 uniformly random bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform value in [0, 2^bits) for 1 <= bits <= 64.
  std::uint64_t next_bits(int bits) noexcept;

  /// Uniform value in [0, bound) using rejection sampling; bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double next_unit() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// One splitmix64 step; useful as a cheap non-cryptographic hash/KDF for
/// deriving OT pad keys from group elements.
std::uint64_t splitmix64(std::uint64_t x) noexcept;

}  // namespace pasnet::crypto
