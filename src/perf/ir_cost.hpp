#pragma once
// Analytic costing of the secure-inference IR.
//
// profile_program prices a scheduled ir::SecureProgram with the latency
// model so analytic and measured statistics are comparable on the same
// object: per-op compute/communication come from the paper's Eq. 5-16
// cost functions, while the `rounds` fields follow the protocol stack's
// actual round structure (OT phases, AND-tree depth, the one-exchange mux
// tail, merged E/F openings) — the same rounds the executor measures.
// Ops sharing a round group count their rounds together: the group costs
// as many rounds as its costliest member, because every comparison walks the
// same per-level phase block (shared OT round, shared exchange per AND
// level and open phase — independent of the instance count) and
// single-round members merge into one exchange.  The terminal opening
// (logits or argmax indices) adds one more.  Whatever round groups a
// program carries are priced this way, one op per group included.
//
// The CI round-regression guard asserts the executor's measured rounds
// exactly equal this model's prediction on the reference models.

#include "crypto/ring.hpp"
#include "ir/program.hpp"
#include "perf/latency_model.hpp"

namespace pasnet::perf {

/// Rounds of one DReLU (comparison) pass: the two messages of the (1,4)-OT
/// leaves (receiver shifts, then sender's masked tables) plus the
/// log-depth AND combine tree over the 2-bit digits of the comparison
/// window's low bits.  `ring_bits` is the *functional* ring width
/// (RingConfig::bits, 64 by default); the 32-bit comparison window
/// (crypto::kCompareBits) sets the tree depth on any ring at least that
/// wide, so drelu_rounds(64) == drelu_rounds(32) == 6.
[[nodiscard]] int drelu_rounds(int ring_bits = 64);

/// Analytic cost of one IR op with protocol-accurate round counts (each
/// multiplication's E and F open together); group merging across ops is
/// applied by profile_program, not here.
[[nodiscard]] OpCost ir_op_cost(const LatencyModel& model, const ir::Op& op,
                                int ring_bits = 64);

/// EXACT on-wire bytes one op's online protocol moves (both directions):
/// every opening at `wire_bits` per ring element, the (1,4)-OT leaves'
/// shifts (2 bits per instance, packed to a byte boundary per batch) and
/// masked tables (4 bytes per instance), the AND-tree's per-level packed
/// bit opens, and each mux tail's packed c bits beside its payload
/// openings.  Every part is packed per op, so the figure holds
/// however the ops are grouped.  This is what the channel meter measures —
/// OpCost::comm_bytes stays the paper's Eq. 5-16 estimate used by the NAS
/// latency model.
[[nodiscard]] std::uint64_t ir_op_wire_bytes(const ir::Op& op, int ring_bits = 64,
                                             int wire_bits = 32);

/// Whole-program analytic profile.
struct ProgramCost {
  OpCost total;                ///< includes the terminal opening round
  std::vector<OpCost> per_op;  ///< aligned with program.ops
  int round_groups = 0;        ///< coalesced open groups counted once
  /// Exact wire bytes of the whole program, terminal opening included.
  /// Every grouping moves the same bytes (merging a group's exchanges
  /// merges messages, not their contents); the CI guard asserts the
  /// measured channel bytes equal this figure exactly.
  std::uint64_t wire_bytes = 0;
};

/// Analytic profile of the OFFLINE phase: what it costs the two parties to
/// produce one batch's correlated randomness themselves via the IKNP
/// OT-extension generator (`--triples=ot-ext`), versus shipping the same
/// material from a pregenerated dealer store.  The ot_ext fields are exact:
/// they reproduce offline::ot_ext_generation_cost on the program's derived
/// plan (the analytic witness the generation-traffic tests pin channel
/// stats against).  store_bytes_shipped counts the material values of
/// `batch` bundles, PreprocessingPlan::material_bytes_per_query() each;
/// a serialized bundle adds length prefixes, pool counts and a spec record
/// per product triple (tiny_relu: 178,096 B of values, 179,760 B
/// serialized).
struct OfflinePhaseCost {
  std::uint64_t ot_ext_wire_bytes = 0;  ///< both directions, `batch` lanes
  std::uint64_t ot_ext_rounds = 0;
  std::uint64_t ot_ext_messages = 0;
  std::uint64_t base_ots = 0;            ///< public-key base OTs (128/direction)
  std::uint64_t ext_cots = 0;            ///< extended correlated OTs, all lanes
  std::uint64_t store_bytes_shipped = 0; ///< dealer-store alternative: material values only
  std::uint64_t material_elems = 0;      ///< ring elements generated, all lanes
  std::uint64_t bit_triples = 0;         ///< AND triples generated, all lanes
};

/// Prices the offline phase of `batch` queries of `program` (derives the
/// preprocessing plan internally; `ring` must match the serving ring).
[[nodiscard]] OfflinePhaseCost profile_offline_phase(const ir::SecureProgram& program,
                                                     const crypto::RingConfig& ring,
                                                     int batch = 1);

/// `batch` prices a K-lane single-context batched run (ir::execute_batch):
/// every comparison — the argmax terminal's tournament included —
/// contributes K identical phase streams to its round group, so group
/// rounds stay K-invariant; per-op compute/communication and wire bytes
/// scale by K, and the terminal opening (logits or argmax indices) stays
/// ONE merged exchange.  per_op entries remain single-lane figures.
[[nodiscard]] ProgramCost profile_program(const LatencyModel& model,
                                          const ir::SecureProgram& program,
                                          int ring_bits = 64, int wire_bits = 32,
                                          int batch = 1);

}  // namespace pasnet::perf
