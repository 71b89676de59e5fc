#include "perf/ir_cost.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "crypto/compare.hpp"
#include "ir/plan.hpp"
#include "offline/ot_triple_source.hpp"

namespace pasnet::perf {

int drelu_rounds(int ring_bits) {
  // millionaire_gt: 2 sequential OT messages (receiver shifts, sender
  // masks), then one and_bits exchange per AND-tree combine level — the
  // level count comes from the same shape helpers the protocol and the
  // static plan derivation use.
  const int nbits = crypto::drelu_millionaire_bits(ring_bits);
  return 2 + static_cast<int>(crypto::millionaire_and_level_multipliers(nbits).size());
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
  // Per comparison level: one DReLU, then the mux tail's one opening that
  // every payload shares.
  c.rounds = static_cast<int>(op.compare_levels().values.size()) * (drelu_rounds(ring_bits) + 1);
  return c;
}

namespace {

/// Exact wire bytes of one DReLU over n values: the two OT messages
/// (2-bit shifts packed four to a byte; kOtFanIn one-byte masked entries
/// per leaf) and the AND tree's per-level packed (d, e) bit opens, both
/// directions.
std::uint64_t drelu_wire_bytes(std::uint64_t n, int ring_bits) {
  const int nbits = crypto::drelu_millionaire_bits(ring_bits);
  const auto digits = static_cast<std::uint64_t>(crypto::millionaire_digits(nbits));
  const std::uint64_t leaves = n * digits;
  std::uint64_t bytes = (leaves + 3) / 4                  // receiver -> sender: shifts
                        + leaves * crypto::kOtFanIn;      // sender -> receiver
  for (const int mult : crypto::millionaire_and_level_multipliers(nbits)) {
    // One AND over mult·n bits: the 2·mult·n masked (d, e) bits pack to a
    // byte boundary per stage, each direction.
    bytes += 2 * ((2 * static_cast<std::uint64_t>(mult) * n + 7) / 8);
  }
  return bytes;
}

/// Exact wire bytes of the mux tail over n compared values and P payloads,
/// both directions: c = b ⊕ r packed to a byte boundary, and one ring
/// element per payload element at the modeled wire width.
std::uint64_t mux_tail_wire_bytes(std::uint64_t n, std::uint64_t payloads, std::uint64_t wire) {
  return 2 * ((n + 7) / 8) + 2 * wire * n * payloads;
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
      // Per comparison level: DReLU on the compared values, then the mux
      // tail over every payload.
      const ir::CompareLevels shape = op.compare_levels();
      std::uint64_t bytes = 0;
      for (const std::uint64_t n : shape.values) {
        bytes += drelu_wire_bytes(n, ring_bits) +
                 mux_tail_wire_bytes(n, static_cast<std::uint64_t>(shape.payloads), wire);
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

ProgramCost profile_program(const LatencyModel& m, const ir::SecureProgram& p,
                            int ring_bits, int wire_bits, int batch) {
  ProgramCost pc;
  pc.per_op.reserve(p.ops.size());
  const auto lanes = static_cast<std::uint64_t>(batch < 1 ? 1 : batch);

  // A round group costs as many rounds as its costliest member.  Every
  // comparison walks the same per-level phase block (the two OT messages,
  // one exchange per AND level, the mux tail's opening), so the
  // executor's lockstep walk keeps a group's comparisons phase-aligned
  // and ends with the deepest one; single-round members ride in a shared
  // opening, or pay the one merged open when no comparison opens.  K lanes
  // stage K copies of the same instances, so the maximum is K-invariant.
  std::map<int, int> group_rounds;
  for (const ir::Op& op : p.ops) {
    if (op.round_group < 0 || !(op.stages_opens() || op.stages_compare())) continue;
    int& rounds = group_rounds[op.round_group];
    rounds = std::max(rounds, ir_op_cost(m, op, ring_bits).rounds);
  }
  pc.round_groups = static_cast<int>(group_rounds.size());

  for (const ir::Op& op : p.ops) {
    OpCost c = ir_op_cost(m, op, ring_bits);
    if ((op.stages_opens() || op.stages_compare()) && op.round_group >= 0) {
      // The group's rounds are shared: its first member carries them, the
      // rest contribute zero.
      c.rounds = std::exchange(group_rounds[op.round_group], 0);
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
  // Terminal joint opening: all lanes' logits or argmax indices reveal in
  // ONE merged exchange.
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
