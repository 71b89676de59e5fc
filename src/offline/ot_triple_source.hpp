#pragma once
// Two-party triple generation over IKNP OT extension — the offline phase
// with NO third party.
//
// The dealer path simulates the triple functionality by holding both
// half streams (crypto/beaver.hpp); this generator realizes the same
// functionality as a genuine 2PC protocol: each party draws ONLY its own
// half (a_p, b_p, x_p) and the cross terms o_p = a_peer ⊙ b_p − x_peer
// arrive through correlated OTs built on crypto/ot_ext.  Where the half
// seeds come from is the trust boundary:
//
//  - In-process simulation contexts seed party p's half from the canonical
//    half_stream_seed(dealer_seed, p).  z_p is then a deterministic
//    function of the two half streams alone, so the bundles are
//    BIT-IDENTICAL to TripleDealer's for the same dealer seed — the
//    verification contract the dealer-differential tests pin.
//  - Remote (two-process) contexts seed each half from role_prng —
//    process-local entropy — because the canonical seed is public and
//    would let the peer recompute this party's halves (and thus every
//    triple) offline.  Remote ot-ext bundles are therefore role-private
//    and NOT dealer-identical; logits agree with dealer-served runs only
//    up to fixed-point truncation-LSB noise (the share split differs, and
//    SecureML local truncation noise rides on the share split).
//
// Per direction (sender S, receiver R) the cross term decomposes into one
// correlated OT per (choice element, ring bit): R's choice bit is bit i of
// its mask half, S's correlation is 2^i times a slice of its mask half,
// and a derandomization group per output slice pins Σ_j x_j = −X_group so
// the OT outputs sum to exactly o_R.  A bit-injection product
// (BilinearSpec::bit_b) needs only one-bit choices: r·a_q = r_q·a_q +
// r_peer·(1 − 2·r_q)·a_q, so per compared value each direction runs one
// COT whose P-element message carries the payload terms, and B's additive
// sharing adds one more for its single cross term r0·r1 (P0 -> P1): 3
// COTs per value where a 64-bit product spends 128 per element.  Boolean
// AND triples use one 1-of-2 OT per instance (messages x_S and
// x_S ⊕ a_S).  A random (1,4)-OT with sender S uses two random 1-of-2
// OTs, one per bit of R's random choice r, plus four correction bytes:
// entry v is S's pad P_v masked by byte v of
// the two OT pads v's bits select, so R unmasks exactly P_r.  Like the
// triple halves, S's pads and R's choice come from each party's own
// random-OT half stream (canonical in simulation, role_prng remotely).
// The wire schedule is two sequential IKNP dances (direction A: P0 sends,
// direction B: P1 sends), three rounds each:
//
//   S -> R : base-OT chooser frame                     (round 1)
//   R -> S : base-OT reply, then the IKNP u frame      (round 2)
//   S -> R : arithmetic + byte correction frames       (round 3)
//
// Everything here is replayable from a PreprocessingPlan, so both the
// online PartySession path and the OfflineGenerator backend drive one
// implementation; ot_ext_generation_cost() is the analytic witness the
// three-way traffic cross-check tests pin against measured stats/trace.

#include <cstdint>
#include <vector>

#include "crypto/party.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"

namespace pasnet::offline {

/// Analytic traffic/cost model of one generate_bundles_ot_ext() run —
/// computed from the plan alone, matching the channel meter byte for byte.
struct OtExtCost {
  std::uint64_t rounds = 0;
  std::uint64_t bytes_p0_to_p1 = 0;
  std::uint64_t bytes_p1_to_p0 = 0;
  std::uint64_t messages = 0;
  std::uint64_t base_ots = 0;  ///< 128 per active direction
  std::uint64_t ext_cots = 0;  ///< extended correlated OTs, both directions

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_p0_to_p1 + bytes_p1_to_p0;
  }
};

/// Exact traffic of generating `lanes` bundles of `plan`'s material.
[[nodiscard]] OtExtCost ot_ext_generation_cost(const PreprocessingPlan& plan,
                                               std::size_t lanes);

/// Generates `dealer_seeds.size()` query bundles of `plan`'s material into
/// `bundles` (a caller-owned array of that length) by running the two
/// IKNP directions over `ctx`'s channel(s).  In the in-process simulation
/// modes both roles run on the calling thread and the produced bundles
/// equal TripleDealer(plan.ring, dealer_seeds[j])'s draws, value for
/// value.  In a remote context only the local party's halves are filled
/// (peer share slots stay zero, exactly like slice_bundle_for_party), and
/// they are drawn from role_prng — dealer_seeds then only sets the lane
/// count; see the file comment for why remote bundles are role-private
/// rather than dealer-identical.
/// Counts obs::Counter::ot_ext_base / ot_ext_cots on ctx's counter block.
void generate_bundles_ot_ext(const PreprocessingPlan& plan, crypto::TwoPartyContext& ctx,
                             const std::vector<std::uint64_t>& dealer_seeds,
                             QueryBundle* bundles);

}  // namespace pasnet::offline
