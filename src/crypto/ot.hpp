#pragma once
// (1,n)-oblivious transfer (paper §III-C.1, Fig. 4).
//
// The comparison flow splits each value into 2-bit parts and retrieves one
// of n = 4 masked table entries per part.  Every (1,4)-OT spends one
// precomputed random OT (crypto::RandomOt; Beaver, "Precomputing Oblivious
// Transfer", CRYPTO 1995) from the context's triple source: the sender
// holds four random one-byte pads P_0..P_3, the receiver a random choice r
// and P_r.  Online the receiver sends its shift s = (c − r) mod 4 — two
// bits, packed four to a byte per staged request — and the sender replies
// T_j ⊕ P_{(j − s) mod 4} for j = 0..3.  The receiver unmasks entry c with
// P_r, since (c − s) mod 4 = r; the other entries stay masked by pads it
// never saw.  Two messages, 4.25 bytes per instance, and no public-key
// operation online: the modular exponentiations live in the offline phase
// (the IKNP base OTs of crypto/ot_ext when the parties generate their own
// material).

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/party.hpp"

namespace pasnet::crypto {

/// Number of OT table entries (2-bit parts -> 1-of-4).
inline constexpr int kOtFanIn = 4;

/// A shift or reply frame of the wrong length: the peer is out of step
/// or hostile.
class OtError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Ignored.  Kept only so existing callers of SecureConfig::ot_mode and
/// ot_1of4 still compile; every (1,4)-OT is the precomputed one.
enum class OtMode { dh_masked, correlated };

/// Batched 1-of-4 OT.
///
/// For every instance t the sender (party `sender`) inputs 4 one-byte
/// messages `tables[t]`, the receiver (the other party) inputs a choice
/// `choices[t]` in [0,4); the receiver learns exactly `tables[t][choice]`.
/// Draws one random OT batch from the context's triple source, then runs
/// the two messages: receiver -> sender (packed shifts), sender ->
/// receiver (masked tables).  Returns the receiver's outputs.
[[nodiscard]] std::vector<std::uint8_t> ot_1of4(
    TwoPartyContext& ctx, int sender,
    const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
    const std::vector<std::uint8_t>& choices, OtMode mode = OtMode::dh_masked);

/// Per-context staging area for (1,4)-OT batches — the OT analog of
/// OpenBuffer.  Stages accumulate and flush() merges every run of pending
/// requests with the same sender into ONE two-message exchange, so
/// independent comparison instances share the leaf round.  Each stage
/// keeps its own random OTs and its own byte-packed shifts, so merging
/// changes the message count, never the bytes.
class OtBuffer {
 public:
  explicit OtBuffer(TwoPartyContext& ctx) : ctx_(ctx) {}
  OtBuffer(const OtBuffer&) = delete;
  OtBuffer& operator=(const OtBuffer&) = delete;

  /// Stages one batched OT spending `rot` (sender rot.sender, one random
  /// OT per instance); `*out` receives the per-instance outputs.  Only the
  /// roles the context runs read their input, so a remote process passes
  /// its own: the sender's tables or the receiver's choices.  `*out` must
  /// outlive the next flush().
  void stage(RandomOt rot, std::vector<std::array<std::uint8_t, kOtFanIn>> tables,
             std::vector<std::uint8_t> choices, std::vector<std::uint8_t>* out);

  /// Runs every pending stage: consecutive stages sharing a sender merge
  /// into one exchange.  No-op when nothing is pending.  The pending stages
  /// leave the buffer before the first exchange, so a throwing exchange
  /// parks nothing.
  void flush();

  /// Drops every pending stage (error-path cleanup; see OpenBuffer).
  void discard() noexcept { pending_.clear(); }
  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

 private:
  struct Pending {
    RandomOt rot;
    std::vector<std::array<std::uint8_t, kOtFanIn>> tables;
    std::vector<std::uint8_t> choices;
    std::vector<std::uint8_t>* out;
  };
  /// The two messages for `count` stages sharing one sender.
  void transfer(Pending* batch, std::size_t count);

  TwoPartyContext& ctx_;
  std::vector<Pending> pending_;
};

/// 61-bit Mersenne-prime modular helpers: the group of the IKNP base OTs
/// (crypto/ot_ext).  Toy-strength parameters.
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
