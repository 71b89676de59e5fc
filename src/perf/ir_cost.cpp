#include "perf/ir_cost.hpp"

#include <map>
#include <set>
#include <vector>

#include "crypto/compare.hpp"
#include "ir/plan.hpp"
#include "offline/ot_triple_source.hpp"

namespace pasnet::perf {

int drelu_rounds(int ring_bits) {
  // millionaire_gt: 2 sequential OT messages (receiver shifts, sender
  // masks), then one and_bits exchange per AND-tree combine level — the
  // level count comes from the same shape helper the protocol and the
  // static plan derivation use.
  return 2 + static_cast<int>(
                 crypto::millionaire_and_level_multipliers(ring_bits - 1).size());
}

OpCost ir_op_cost(const LatencyModel& m, const ir::Op& op, int ring_bits) {
  using ir::OpKind;
  OpCost c;
  switch (op.kind) {
    case OpKind::input:
    case OpKind::flatten:
      return OpCost{};
    case OpKind::batchnorm:
      return OpCost{};  // folded away by the pass pipeline
    case OpKind::conv:
    case OpKind::depthwise_conv: {
      c = m.conv(op.kernel, static_cast<long long>(op.out_h) * op.out_w, op.in_ch, op.out_ch,
                 op.input_elems(), op.kind == OpKind::depthwise_conv);
      c.rounds = 1;  // E and F coalesce into one exchange
      return c;
    }
    case OpKind::linear: {
      c = m.linear(op.in_features, op.out_features);
      c.rounds = 1;
      return c;
    }
    case OpKind::x2act: {
      c = m.x2act(op.input_elems());
      c.rounds = 1;  // one square-pair E opening; coefficient scaling is local
      return c;
    }
    case OpKind::avgpool:
    case OpKind::global_avgpool:
      return m.avgpool(op.input_elems());
    case OpKind::add:
      return m.add(op.output_elems());
    case OpKind::relu:
      c = m.relu(op.input_elems());
      break;
    case OpKind::maxpool:
      c = m.maxpool(op.input_elems());
      break;
    case OpKind::argmax:
      // Communication approximated with the relu flow over the class
      // entries (indices ride in the same exchanges).
      c = m.relu(op.in_features);
      break;
  }
  // Per comparison level: one DReLU, the B2A opening and the gated-select
  // opening every payload shares.
  c.rounds = static_cast<int>(op.compare_levels().values.size()) * (drelu_rounds(ring_bits) + 2);
  return c;
}

namespace {

/// Exact wire bytes of one DReLU over n values: the two OT messages
/// (2-bit shifts packed four to a byte; kOtFanIn one-byte masked entries
/// per leaf) and the AND tree's per-level packed (d, e) bit opens, both
/// directions.
std::uint64_t drelu_wire_bytes(std::uint64_t n, int ring_bits) {
  const auto digits = static_cast<std::uint64_t>(crypto::millionaire_digits(ring_bits - 1));
  const std::uint64_t leaves = n * digits;
  std::uint64_t bytes = (leaves + 3) / 4                  // receiver -> sender: shifts
                        + leaves * crypto::kOtFanIn;      // sender -> receiver
  for (const int mult : crypto::millionaire_and_level_multipliers(ring_bits - 1)) {
    // One AND over mult·n bits: the 2·mult·n masked (d, e) bits pack to a
    // byte boundary per stage, each direction.
    bytes += 2 * ((2 * static_cast<std::uint64_t>(mult) * n + 7) / 8);
  }
  return bytes;
}

/// One Beaver-multiply opening pair (E and F, n elements each, both
/// directions) at the modeled wire width.
std::uint64_t mul_open_wire_bytes(std::uint64_t n, std::uint64_t wire) {
  return 2 * 2 * n * wire;
}

}  // namespace

std::uint64_t ir_op_wire_bytes(const ir::Op& op, int ring_bits, int wire_bits) {
  using ir::OpKind;
  const auto wire = static_cast<std::uint64_t>((wire_bits + 7) / 8);
  switch (op.kind) {
    case OpKind::conv:
    case OpKind::depthwise_conv: {
      // E opens weight-shaped (nb), F input-shaped (na); both directions.
      const auto k2 = static_cast<std::uint64_t>(op.kernel) * op.kernel;
      const auto na = static_cast<std::uint64_t>(op.input_elems());
      const std::uint64_t nb = op.kind == OpKind::depthwise_conv
                                   ? static_cast<std::uint64_t>(op.in_ch) * k2
                                   : static_cast<std::uint64_t>(op.out_ch) * op.in_ch * k2;
      return 2 * wire * (na + nb);
    }
    case OpKind::linear:
      // W·xᵀ per query sample: E is weight-shaped (out·in), F input-shaped.
      return 2 * wire *
             (static_cast<std::uint64_t>(op.out_features) * op.in_features +
              static_cast<std::uint64_t>(op.in_features));
    case OpKind::x2act:
      // One square-pair E opening.
      return 2 * wire * static_cast<std::uint64_t>(op.input_elems());
    case OpKind::relu:
    case OpKind::maxpool:
    case OpKind::argmax: {
      // Per comparison level: DReLU on the compared values, then the B2A
      // multiply and one gated-select multiply per payload.
      const ir::CompareLevels shape = op.compare_levels();
      std::uint64_t bytes = 0;
      for (const std::uint64_t n : shape.values) {
        bytes += drelu_wire_bytes(n, ring_bits) +
                 (1 + static_cast<std::uint64_t>(shape.payloads)) * mul_open_wire_bytes(n, wire);
      }
      return bytes;
    }
    case OpKind::input:
    case OpKind::flatten:
    case OpKind::batchnorm:
    case OpKind::avgpool:
    case OpKind::global_avgpool:
    case OpKind::add:
      return 0;  // local ops move no protocol bytes
  }
  return 0;
}

namespace {

/// Phase tokens of a staged comparison op, mirroring the executor's
/// lockstep walk: ot = the two OT leaf messages, bit = one AND-tree level
/// exchange, open = one ring-open exchange (B2A or mux).
enum class PhaseTok : std::uint8_t { ot, bit, open };

std::vector<PhaseTok> compare_tokens(const ir::Op& op, int ring_bits) {
  // Per comparison level: the OT messages, one exchange per AND-tree
  // level, the B2A opening, then the gated-select opening all payloads
  // share.
  const std::size_t and_levels = crypto::millionaire_and_level_multipliers(ring_bits - 1).size();
  std::vector<PhaseTok> toks;
  for (std::size_t level = op.compare_levels().values.size(); level > 0; --level) {
    toks.push_back(PhaseTok::ot);
    toks.insert(toks.end(), and_levels, PhaseTok::bit);
    toks.push_back(PhaseTok::open);  // B2A
    toks.push_back(PhaseTok::open);  // mux
  }
  return toks;
}

/// Replays the executor's lockstep phase walk over one round group: each
/// iteration costs 2 rounds if any instance's head token is an OT, plus 1
/// per bit-open / ring-open flush any instance waits on; every instance
/// advances one token.  Identical comparisons therefore cost the same
/// rounds whether the group holds one instance or four thousand.
int simulate_group_rounds(const std::vector<std::vector<PhaseTok>>& streams,
                          bool has_single_round_member) {
  std::vector<std::size_t> pos(streams.size(), 0);
  int rounds = 0;
  for (;;) {
    bool ot = false, bit = false, open = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] >= streams[i].size()) continue;
      switch (streams[i][pos[i]]) {
        case PhaseTok::ot:
          ot = true;
          break;
        case PhaseTok::bit:
          bit = true;
          break;
        case PhaseTok::open:
          open = true;
          break;
      }
    }
    if (!ot && !bit && !open) break;
    rounds += (ot ? 2 : 0) + (bit ? 1 : 0) + (open ? 1 : 0);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] < streams[i].size()) ++pos[i];
    }
  }
  // A group whose comparisons never open (degenerate 1x1 pools) still pays
  // one exchange for its pending single-round openings.
  if (rounds == 0 && has_single_round_member) rounds = 1;
  return rounds;
}

}  // namespace

ProgramCost profile_program(const LatencyModel& m, const ir::SecureProgram& p,
                            int ring_bits, int wire_bits, int batch) {
  ProgramCost pc;
  pc.per_op.reserve(p.ops.size());
  const auto lanes = static_cast<std::uint64_t>(batch < 1 ? 1 : batch);

  // Group composition: token streams of the comparison members plus
  // whether single-round members ride along.  A batched run stages every
  // lane's instance into the same group, so each comparison contributes
  // `lanes` identical streams — the walk's rounds stay K-invariant.
  std::map<int, std::vector<std::vector<PhaseTok>>> group_streams;
  std::map<int, bool> group_has_single;
  for (const ir::Op& op : p.ops) {
    if (op.round_group < 0) continue;
    if (op.stages_compare()) {
      const std::vector<PhaseTok> toks = compare_tokens(op, ring_bits);
      auto& streams = group_streams[op.round_group];
      for (std::uint64_t q = 0; q < lanes; ++q) streams.push_back(toks);
    } else if (op.stages_opens()) {
      group_streams[op.round_group];  // ensure the group exists
      group_has_single[op.round_group] = true;
    }
  }
  std::map<int, int> group_rounds;
  for (const auto& [g, streams] : group_streams) {
    // Single-round members only: one merged open.
    group_rounds[g] = streams.empty() ? 1 : simulate_group_rounds(streams, group_has_single[g]);
  }

  std::set<int> groups_counted;
  for (const ir::Op& op : p.ops) {
    OpCost c = ir_op_cost(m, op, ring_bits);
    if ((op.stages_opens() || op.stages_compare()) && op.round_group >= 0) {
      // The group's rounds are shared: its first member carries them, the
      // rest contribute zero.
      if (groups_counted.count(op.round_group) > 0) {
        c.rounds = 0;
      } else {
        groups_counted.insert(op.round_group);
        c.rounds = group_rounds[op.round_group];
      }
    }
    // per_op stays the single-lane figure (rounds already group-shared);
    // the total scales every additive field by the lane count.
    pc.per_op.push_back(c);
    OpCost scaled = c;
    scaled.cmp_s *= static_cast<double>(lanes);
    scaled.comm_s *= static_cast<double>(lanes);
    scaled.comm_bytes *= static_cast<double>(lanes);
    pc.total += scaled;
    pc.wire_bytes += lanes * ir_op_wire_bytes(op, ring_bits, wire_bits);
  }
  pc.round_groups = static_cast<int>(groups_counted.size());
  // Terminal joint opening: all lanes' logits or argmax indices reveal in
  // ONE merged exchange under the coalesced schedule.
  pc.total.rounds += 1;
  const auto wire = static_cast<std::uint64_t>((wire_bits + 7) / 8);
  const auto out_elems = static_cast<std::uint64_t>(
      p.output >= 0 ? p.ops[static_cast<std::size_t>(p.output)].output_elems() : 0);
  pc.total.comm_bytes +=
      2.0 * static_cast<double>(wire) * static_cast<double>(out_elems * lanes);
  pc.wire_bytes += 2 * wire * out_elems * lanes;
  return pc;
}

OfflinePhaseCost profile_offline_phase(const ir::SecureProgram& program,
                                       const crypto::RingConfig& ring, int batch) {
  const offline::PreprocessingPlan plan = ir::derive_plan(program, ring);
  const auto lanes = static_cast<std::size_t>(batch < 0 ? 0 : batch);
  const offline::OtExtCost ot = offline::ot_ext_generation_cost(plan, lanes);
  OfflinePhaseCost c;
  c.ot_ext_wire_bytes = ot.total_bytes();
  c.ot_ext_rounds = ot.rounds;
  c.ot_ext_messages = ot.messages;
  c.base_ots = ot.base_ots;
  c.ext_cots = ot.ext_cots;
  c.store_bytes_shipped = plan.material_bytes_per_query() * lanes;
  c.material_elems = plan.material_elems_per_query() * lanes;
  c.bit_triples = plan.bit_triples_per_query() * lanes;
  return c;
}

}  // namespace pasnet::perf
