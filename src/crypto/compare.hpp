#pragma once
// Secure comparison (paper §II-C, §III-C.1): the millionaires protocol on
// 2-bit parts via (1,4)-OT, plus the DReLU / ReLU / max building blocks the
// non-polynomial 2PC operators are made of.
//
// Every DReLU compares inside a window of w = kCompareBits = 32 bits, the
// paper's comparison width (U = 16 two-bit parts, Fig. 4), on a ring of
// k >= 32 bits (RingConfig::bits = 64 by default); a narrower ring is its
// own window, w = k.  Layout of the reduction as it runs:
//   x = x0 + x1 mod 2^k                        (additive shares)
//   y = x mod 2^w = x0 mod 2^w + x1 mod 2^w    (each party reduces locally)
//   msb_w(y) = bit_{w-1}(x0) ^ bit_{w-1}(x1) ^ carry,
//   carry    = [lo(x0) + lo(x1) >= 2^(w-1)] = millionaire( lo(x0) > 2^(w-1)-1-lo(x1) )
// where lo() keeps the low w-1 = 31 bits (drelu_millionaire_bits).  The
// millionaire splits both 31-bit inputs into 16 digits of 2 bits
// (millionaire_digits), resolves each digit with one (1,4)-OT, and
// combines the (gt, eq) pairs with a 4-level Beaver-AND tree,
// 16 -> 8 -> 4 -> 2 -> 1 (millionaire_and_level_multipliers).
//
// The tail that turns the XOR-shared DReLU bit b into b·v_j over Z_2^k
// for P payloads is one exchange (MuxRound): a bit-injection triple
// supplies a random bit r, additively shared — the shares' low bits are
// its XOR shares — and per payload a random [a_j] with [r·a_j].  Party i
// opens c = b ⊕ r (packed bits) and e_j = v_j − a_j together, then
//   [b·v_j]_i = [i==0]·c·e_j + c·[a_j]_i + (1 − 2c)·(e_j·[r]_i + [r·a_j]_i)
// is local.  It multiplies by a 0/1 bit, so no truncation follows and the
// gated payloads stay exact over the whole ring.
//
// Exactness: if |x| < 2^(w-1) ring units, y read as a signed w-bit value
// is x itself, so bit w-1 of y is the sign of x and DReLU(x) = NOT
// msb_w(y).  At f = 12 fraction bits that is |x| < 2^19 in real units.
// A larger |x| wraps the window and gets a meaningless sign, so every
// comparison entry point below states |x| < 2^31 ring units as its
// precondition.  A ring of k <= 32 bits is exact over the whole ring.

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/ot.hpp"
#include "crypto/party.hpp"

namespace pasnet::crypto {

/// Width of every DReLU's comparison window, in bits: the paper's 32.
inline constexpr int kCompareBits = 32;

/// Bits the millionaire inside a DReLU on a `ring_bits`-bit ring compares:
/// the window's bits below its sign bit (31; a ring narrower than the
/// window is its own window).  The one width the protocol, the static
/// preprocessing plan (ir::derive_plan) and the analytic cost model
/// (perf::drelu_rounds, perf::ir_op_wire_bytes) size a comparison by.
[[nodiscard]] constexpr int drelu_millionaire_bits(int ring_bits) noexcept {
  return (ring_bits < kCompareBits ? ring_bits : kCompareBits) - 1;
}

/// Reconstruct XOR-shared bits (local; for tests and final outputs).
[[nodiscard]] std::vector<std::uint8_t> reconstruct_bits(const BitShared& v);

/// Local XOR of two shared bit vectors, over the halves `ctx` runs.
[[nodiscard]] BitShared xor_bits(const TwoPartyContext& ctx, const BitShared& x,
                                 const BitShared& y);

/// NOT: flips the logical value by flipping party 0's share (a no-op on a
/// party-1 process, whose party-0 half is empty).
[[nodiscard]] BitShared not_bits(const BitShared& x);

/// Beaver AND over Z2 (one parallel round; consumes |x| bit triples).
[[nodiscard]] BitShared and_bits(TwoPartyContext& ctx, const BitShared& x,
                                 const BitShared& y);

// --- Staged (resumable) comparison phases ----------------------------------
//
// The blocking comparison stack (millionaire + AND tree + the mux tail) is
// built from resumable phase machines so the IR executor can advance every
// independent comparison instance of a round group in lockstep: one shared
// (1,4)-OT leaf round, one shared exchange per AND-tree level, one shared
// opening for the tail.  Each machine draws ALL of its correlated
// randomness up front at begin() — in the exact order the historical
// blocking protocol consumed it — so the dealer/TripleSource
// request stream stays program-ordered (and store-backed replay stays
// bit-identical) no matter how phases interleave across instances.

/// Which per-context buffer a staged comparison needs flushed before its
/// next step(): the OT buffer, the bit-open buffer, the ring OpenBuffer —
/// or nothing (the result is ready).
enum class CompareWait : std::uint8_t { ot, bits, opens, done };

/// Flushes the context buffer `w` names (no-op for done).
void flush_compare_buffers(TwoPartyContext& ctx, CompareWait w);

/// Runs a staged machine as a group of one: begin(ctx, begin_args...),
/// then flush whichever buffer it waits on and step it until it is done.
/// The one drive loop of the one-shot protocol functions; the IR executor
/// walks a whole round group the same way.
template <typename Staged, typename... BeginArgs>
void run_staged(TwoPartyContext& ctx, Staged& machine, BeginArgs&&... begin_args) {
  machine.begin(ctx, std::forward<BeginArgs>(begin_args)...);
  while (machine.waiting() != CompareWait::done) {
    flush_compare_buffers(ctx, machine.waiting());
    machine.step(ctx);
  }
}

/// Per-context staging area for joint XOR-share openings — the Z2 analog
/// of OpenBuffer: flush() opens everything pending in ONE exchange.  Each
/// stage's bits are packed to a byte boundary separately, so the on-wire
/// bytes are identical to separate opens.
class BitOpenBuffer {
 public:
  explicit BitOpenBuffer(TwoPartyContext& ctx) : ctx_(ctx) {}
  BitOpenBuffer(const BitOpenBuffer&) = delete;
  BitOpenBuffer& operator=(const BitOpenBuffer&) = delete;

  /// Stages x for opening; the next flush() writes the reconstructed
  /// public bits to *out, which must outlive it.
  void stage(BitShared x, std::vector<std::uint8_t>* out);
  /// Opens every pending stage in one exchange.  The stages leave the
  /// buffer before the exchange, so a throwing exchange parks nothing.
  void flush();
  void discard() noexcept { pending_.clear(); }
  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

 private:
  TwoPartyContext& ctx_;
  std::vector<BitStage> pending_;
};

/// Staged Beaver AND over Z2: stage() defers the (d, e) opening onto the
/// context's bit-open buffer, finish() recombines once the bits are
/// public.  and_bits() is stage + flush + finish.
class AndRound {
 public:
  /// `t` must be a bit triple of x's size (pre-drawn by the caller so the
  /// dealer request order is the caller's, not the flush schedule's).
  void stage(TwoPartyContext& ctx, const BitShared& x, const BitShared& y, BitTriple t);
  [[nodiscard]] BitShared finish(const TwoPartyContext& ctx);

 private:
  BitTriple t_;
  std::vector<std::uint8_t> de_;  // opened d||e (2n public bits)
};

/// Staged oblivious select of P payloads by one XOR-shared bit, the
/// comparison tail: stage() opens c = sel ⊕ r and e = v − a over a
/// bit-injection triple in one exchange on ctx.opens(), finish()
/// recombines sel · v_j locally (file comment).  crypto::mux is stage +
/// flush + finish.
class MuxRound {
 public:
  /// `t` must be a BilinearSpec::bit_injection(sel.size(), P) triple for
  /// the P payloads (pre-drawn by the caller).
  void stage(TwoPartyContext& ctx, const BitShared& sel, const std::vector<Shared>& payloads,
             BilinearTriple t);
  /// sel · v_j per payload, exact over the whole ring.
  [[nodiscard]] std::vector<Shared> finish(const TwoPartyContext& ctx);

 private:
  BilinearTriple t_;
  std::vector<std::uint8_t> c_;  // opened sel ⊕ r
  RingVec e_;                    // opened v − a, payload-major
};

/// Pre-drawn randomness for one millionaire comparison over n values: the
/// sender's leaf masks, one random (1,4)-OT per leaf and one bit triple
/// per AND-tree combine level, in the canonical (protocol-order) sequence.
struct MillionaireMaterial {
  std::vector<std::uint8_t> r_lt, r_eq;  ///< n·digits leaf masks (party 1)
  RandomOt leaf_ots;                     ///< n·digits, party 1 sends
  std::vector<BitTriple> levels;         ///< one per AND combine level
};

/// Draws the material one millionaire_gt(n values, nbits) consumes: the
/// leaf masks from party 1's share stream, then the leaf random OTs and
/// the AND-tree bit triples from the triple source.
[[nodiscard]] MillionaireMaterial draw_millionaire_material(TwoPartyContext& ctx,
                                                            std::size_t n, int nbits);

/// Resumable millionaires protocol: begin() stages the per-digit (1,4)-OT
/// leaf batch on ctx.ots(); each step() after a flush consumes the round's
/// results and stages the next AND-tree level on ctx.bit_opens().  Party 0
/// holds `a` and party 1 `b`; a remote context reads only its own party's
/// input (the other may be empty), and the comparison size comes from the
/// material.
class StagedMillionaire {
 public:
  void begin(TwoPartyContext& ctx, const std::vector<std::uint64_t>& a,
             const std::vector<std::uint64_t>& b, int nbits, MillionaireMaterial material);
  [[nodiscard]] CompareWait waiting() const noexcept { return wait_; }
  void step(TwoPartyContext& ctx);
  /// XOR shares of [a > b]; valid once waiting() == done.
  [[nodiscard]] BitShared& result() noexcept { return gts_.front(); }

 private:
  void stage_level(TwoPartyContext& ctx);
  std::size_t n_ = 0;
  int digits_ = 0;
  std::size_t level_ = 0;
  MillionaireMaterial mat_;
  std::vector<std::uint8_t> leaf_;
  std::vector<BitShared> gts_, eqs_;
  AndRound and_;
  CompareWait wait_ = CompareWait::done;
};

/// Resumable DReLU: each party reduces its share to the comparison
/// window, then the millionaire carry over the window's low bits plus the
/// local fold of the window's sign bit and the negation.  Exact when every
/// |x| < 2^31 ring units (see the top of this file).
class StagedDrelu {
 public:
  /// Material must come from draw_drelu_material(ctx, x.size()).
  void begin(TwoPartyContext& ctx, const Shared& x, MillionaireMaterial material);
  [[nodiscard]] CompareWait waiting() const noexcept;
  void step(TwoPartyContext& ctx);
  [[nodiscard]] BitShared& result() noexcept { return mill_.result(); }

 private:
  StagedMillionaire mill_;
  std::vector<std::uint8_t> top_[2];  // each party's share msb
  bool folded_ = false;
};

[[nodiscard]] MillionaireMaterial draw_drelu_material(TwoPartyContext& ctx, std::size_t n);

/// Pre-drawn randomness for one gated select of P payloads by one DReLU
/// bit: the DReLU material, then the tail's one bit-injection triple
/// (BilinearSpec::bit_injection(n, P)), in protocol order.
struct DreluMuxMaterial {
  MillionaireMaterial mill;
  BilinearTriple tail;
};

[[nodiscard]] DreluMuxMaterial draw_drelu_mux_material(TwoPartyContext& ctx, std::size_t n,
                                                       std::size_t payloads);

/// Resumable v_p ⊙ DReLU(v_0) over P payloads v_0..v_{P-1} — the shared
/// core of 2PC ReLU (P = 1, v_0 = x), secure max (P = 1, v_0 = a - b;
/// max = b + result) and the argmax tournament (P = 2: the value and index
/// differences, both gated by the value comparison).  Phases: DReLU (OT +
/// AND levels), then the one-exchange mux tail over all P payloads
/// (MuxRound).  Exact when every |v_0| < 2^31 ring units; the payloads
/// may span the ring.
class StagedDreluMux {
 public:
  void begin(TwoPartyContext& ctx, std::vector<Shared> payloads, DreluMuxMaterial material);
  [[nodiscard]] CompareWait waiting() const noexcept;
  void step(TwoPartyContext& ctx);
  /// One gated vector per payload; valid once waiting() == done.
  [[nodiscard]] std::vector<Shared>& result() noexcept { return out_; }

 private:
  enum class Phase : std::uint8_t { drelu, mux, done };
  Phase phase_ = Phase::done;
  StagedDrelu drelu_;
  MuxRound tail_;
  BilinearTriple tail_t_;
  std::vector<Shared> v_;
  std::vector<Shared> out_;
};

/// Pairs compared at each level of a pairwise tournament over `entries`
/// entries, an odd entry carrying up unpaired — the tree max-pool reduces
/// its window taps with (paper Eq. 13) and argmax its classes with.  The
/// single definition the tournament protocol, ir::derive_plan and the
/// analytic cost model share.
[[nodiscard]] std::vector<std::size_t> tournament_level_pairs(std::size_t entries);

/// Millionaires protocol: party 0 holds `a`, party 1 holds `b`, both lists
/// of `nbits`-bit non-negative values; returns XOR shares of [a > b].  A
/// remote context reads only its own party's list.
[[nodiscard]] BitShared millionaire_gt(TwoPartyContext& ctx,
                                       const std::vector<std::uint64_t>& a,
                                       const std::vector<std::uint64_t>& b, int nbits);

/// Shape of the millionaire reduction for `nbits`-bit inputs — the single
/// definition the protocol (millionaire_gt), the static preprocessing-plan
/// derivation (ir::derive_plan) and the analytic round model
/// (perf::drelu_rounds) all share, so they cannot drift apart.
///
/// millionaire_digits: number of 2-bit parts each value splits into.
/// millionaire_and_level_multipliers: one entry per AND-tree combine
/// level; level i consumes entry[i]·n bit triples (and one communication
/// round) for n compared values.
[[nodiscard]] int millionaire_digits(int nbits) noexcept;
[[nodiscard]] std::vector<int> millionaire_and_level_multipliers(int nbits);

/// XOR shares of the sign bit of a secret-shared ring value.  Requires
/// |x| < 2^31 ring units (the comparison window).
[[nodiscard]] BitShared msb(TwoPartyContext& ctx, const Shared& x);

/// DReLU(x) = [x >= 0] = NOT msb(x), XOR-shared.  Requires |x| < 2^31
/// ring units (the comparison window).
[[nodiscard]] BitShared drelu(TwoPartyContext& ctx, const Shared& x);

/// Oblivious select: returns J sel ? x : 0 K with `sel` an XOR-shared bit
/// — the MuxRound tail run one-shot (one exchange, exact for any x).
[[nodiscard]] Shared mux(TwoPartyContext& ctx, const BitShared& sel, const Shared& x);

/// 2PC-ReLU on shares: relu(x) = x · DReLU(x).  Requires |x| < 2^31 ring
/// units (the comparison window).
[[nodiscard]] Shared relu(TwoPartyContext& ctx, const Shared& x);

/// Elementwise secure max: max(a,b) = b + (a-b)·DReLU(a-b).  Requires
/// |a - b| < 2^31 ring units (the comparison window).
[[nodiscard]] Shared max_elem(TwoPartyContext& ctx, const Shared& a, const Shared& b);

}  // namespace pasnet::crypto
