#pragma once
// (1,n)-oblivious transfer (paper §III-C.1, Fig. 4).
//
// The comparison flow splits each 32-bit value into U = 16 parts of 2 bits
// and retrieves one of n = 4 masked table entries per part.  We implement a
// batched semi-honest 1-of-4 OT in two interchangeable modes:
//
//  * `dh_masked`  — a Bellare–Micali-style instantiation over Z_p with the
//    Mersenne prime p = 2^61 - 1, mirroring the paper's g^r mod m masking.
//    Functionally correct; toy-strength parameters (DESIGN.md §3.4).
//  * `correlated` — an ideal-functionality fast path that produces the same
//    transcript sizes (for traffic accounting) without the modular
//    exponentiation; used when simulating large tensors.  Refused in a
//    remote two-process context (see RemoteContextOptions).
//
// Both modes produce identical protocol results and identical byte counts.
// The OtMode selector itself lives in crypto/party.hpp so the context can
// enforce the remote refusal at construction time.

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/party.hpp"

namespace pasnet::crypto {

/// Number of OT table entries (2-bit parts -> 1-of-4).
inline constexpr int kOtFanIn = 4;

/// Batched 1-of-4 OT.
///
/// For every instance t the sender (party `sender`) inputs 4 one-byte
/// messages `tables[t]`, the receiver (the other party) inputs a choice
/// `choices[t]` in [0,4); the receiver learns exactly `tables[t][choice]`.
/// Returns the receiver's outputs.  Two messages total: receiver -> sender
/// (blinded keys) then sender -> receiver (masked tables).
[[nodiscard]] std::vector<std::uint8_t> ot_1of4(
    TwoPartyContext& ctx, int sender,
    const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
    const std::vector<std::uint8_t>& choices, OtMode mode);

/// Per-context staging area for (1,4)-OT batches — the OT analog of
/// OpenBuffer.  In immediate mode (default) every stage runs its own OT
/// dance (two messages, the historical transcript).  In coalescing mode —
/// enabled by the IR executor for staged-comparison round groups — stages
/// accumulate and flush() merges every pending request with the same
/// (sender, mode) into ONE two-message OT batch, so independent comparison
/// instances share the leaf round.  Receiver outputs are scattered back to
/// each stage's output vector at flush.
class OtBuffer {
 public:
  explicit OtBuffer(TwoPartyContext& ctx) : ctx_(ctx) {}
  OtBuffer(const OtBuffer&) = delete;
  OtBuffer& operator=(const OtBuffer&) = delete;

  /// Stages one batched OT; `*out` receives the per-instance outputs.
  void stage(int sender, std::vector<std::array<std::uint8_t, kOtFanIn>> tables,
             std::vector<std::uint8_t> choices, std::vector<std::uint8_t>* out,
             OtMode mode);

  /// Runs every pending stage: consecutive stages sharing (sender, mode)
  /// merge into one OT batch.  No-op when nothing is pending.
  void flush();

  /// Drops every pending stage (error-path cleanup; see OpenBuffer).
  void discard() noexcept { pending_.clear(); }
  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

  /// Switches between immediate and coalescing staging.  Must not be
  /// called with stages pending.
  void set_coalescing(bool on);
  [[nodiscard]] bool coalescing() const noexcept { return coalescing_; }

 private:
  struct Pending {
    int sender;
    OtMode mode;
    std::vector<std::array<std::uint8_t, kOtFanIn>> tables;
    std::vector<std::uint8_t> choices;
    std::vector<std::uint8_t>* out;
  };
  TwoPartyContext& ctx_;
  std::vector<Pending> pending_;
  bool coalescing_ = false;
};

/// 61-bit Mersenne-prime modular helpers (exposed for tests).
namespace dh {
inline constexpr std::uint64_t kPrime = (1ULL << 61) - 1;
inline constexpr std::uint64_t kGenerator = 3;
/// Fixed public group constant with unknown discrete log to either party.
inline constexpr std::uint64_t kPublicC = 0x1D0C0FFEE1234567ULL % kPrime;

[[nodiscard]] std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) noexcept;
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp) noexcept;
[[nodiscard]] std::uint64_t invmod(std::uint64_t a) noexcept;
}  // namespace dh

}  // namespace pasnet::crypto
