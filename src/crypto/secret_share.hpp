#pragma once
// Additive secret sharing over Z_{2^k} (paper §II-A).
//
//   shr(x): sample r uniformly, shares are (r, x - r).
//   rec(JxK): x = x_S0 + x_S1 mod 2^k.
//
// A `Shared` value holds one half per party.  An in-process context runs
// both parties, so it fills both halves; a remote context runs one party
// and fills only that party's half, leaving the peer's empty.  Protocol
// code never combines halves except through channel exchanges (or the
// reconstruction helpers, in tests and on the client).

#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "crypto/ring.hpp"

namespace pasnet::crypto {

class TwoPartyContext;  // crypto/party.hpp

/// A secret-shared vector JxK = (s0, s1) with x = s0 + s1 mod 2^k.
struct Shared {
  RingVec s0;
  RingVec s1;

  /// Elements per half (either half may be the unfilled one).
  [[nodiscard]] std::size_t size() const noexcept { return s0.empty() ? s1.size() : s0.size(); }
  [[nodiscard]] const RingVec& share(int party) const { return party == 0 ? s0 : s1; }
  [[nodiscard]] RingVec& share(int party) { return party == 0 ? s0 : s1; }
};

/// XOR-shared bit vector (one byte per bit in memory; packed on the wire).
/// Like Shared, a remote context fills only its own party's half.
struct BitShared {
  std::vector<std::uint8_t> b0;
  std::vector<std::uint8_t> b1;

  /// Bits per half (either half may be the unfilled one).
  [[nodiscard]] std::size_t size() const noexcept { return b0.empty() ? b1.size() : b0.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& share(int party) const {
    return party == 0 ? b0 : b1;
  }
  [[nodiscard]] std::vector<std::uint8_t>& share(int party) { return party == 0 ? b0 : b1; }
};

/// Share generation shr(x): x is a vector of ring elements.
[[nodiscard]] Shared share(const RingVec& x, Prng& prng, const RingConfig& rc);

/// Share generation from real values via fixed-point encoding.
[[nodiscard]] Shared share_reals(const std::vector<double>& xs, Prng& prng,
                                 const RingConfig& rc);

/// Share recovering rec(JxK).
[[nodiscard]] RingVec reconstruct(const Shared& x, const RingConfig& rc);

/// Reconstruct and decode to reals.
[[nodiscard]] std::vector<double> reconstruct_reals(const Shared& x, const RingConfig& rc);

// --- Local linear operations (no communication; paper Eq. 1) -------------
//
// Each fills the halves of the parties `ctx` runs (TwoPartyContext::runs)
// and reads only those halves of its operands.

/// JaX + YK computed share-wise.
[[nodiscard]] Shared linear(const TwoPartyContext& ctx, std::uint64_t a, const Shared& x,
                            const Shared& y);

[[nodiscard]] Shared add(const TwoPartyContext& ctx, const Shared& x, const Shared& y);
[[nodiscard]] Shared sub(const TwoPartyContext& ctx, const Shared& x, const Shared& y);

/// Multiply by a public ring constant.
[[nodiscard]] Shared scale(const TwoPartyContext& ctx, const Shared& x, std::uint64_t c);

/// Add a public constant vector: only party 0 adjusts its share.
[[nodiscard]] Shared add_public(const TwoPartyContext& ctx, const Shared& x, const RingVec& c);

/// SecureML-style local truncation by the fixed-point fraction bits:
/// party 0 arithmetically shifts its share, party 1 shifts the negation of
/// its share and negates back.  Introduces at most 1 LSB of error with
/// overwhelming probability for values far from the ring boundary.
[[nodiscard]] Shared truncate_shares(const TwoPartyContext& ctx, const Shared& x);

}  // namespace pasnet::crypto
