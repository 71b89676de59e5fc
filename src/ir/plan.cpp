#include "ir/plan.hpp"

#include <stdexcept>

#include "crypto/compare.hpp"

namespace pasnet::ir {

namespace {

using offline::PreprocessingPlan;
using offline::TripleKind;
using offline::TripleRequest;

void push_square(PreprocessingPlan& plan, int layer, std::uint64_t n) {
  TripleRequest r;
  r.kind = TripleKind::square;
  r.layer = layer;
  r.n = n;
  plan.requests.push_back(r);
}

void push_bit(PreprocessingPlan& plan, int layer, std::uint64_t n) {
  TripleRequest r;
  r.kind = TripleKind::bit;
  r.layer = layer;
  r.n = n;
  plan.requests.push_back(r);
}

void push_bilinear(PreprocessingPlan& plan, int layer, const crypto::BilinearSpec& spec) {
  TripleRequest r;
  r.kind = TripleKind::bilinear;
  r.layer = layer;
  r.bilinear = spec;
  plan.requests.push_back(r);
}

/// One DReLU over n elements: the random OTs of its (1,4)-OT leaves (one
/// per 2-bit digit of the comparison window's low bits, party 1 sending),
/// then one bit-triple request per combine level of
/// crypto::millionaire_gt's AND tree, sized by the shared shape helpers.
void push_drelu(PreprocessingPlan& plan, int layer, std::uint64_t n,
                const crypto::RingConfig& rc) {
  const int nbits = crypto::drelu_millionaire_bits(rc.bits);
  TripleRequest rot;
  rot.kind = TripleKind::rot;
  rot.layer = layer;
  rot.n = n * static_cast<std::uint64_t>(crypto::millionaire_digits(nbits));
  rot.sender = 1;
  plan.requests.push_back(rot);
  for (const int mult : crypto::millionaire_and_level_multipliers(nbits)) {
    push_bit(plan, layer, static_cast<std::uint64_t>(mult) * n);
  }
}

void append_op_requests(PreprocessingPlan& plan, const Op& op,
                        const crypto::RingConfig& rc) {
  switch (op.kind) {
    case OpKind::conv:
    case OpKind::depthwise_conv: {
      crypto::BilinearSpec spec;
      spec.kind = op.kind == OpKind::depthwise_conv ? crypto::BilinearKind::depthwise_conv2d
                                                    : crypto::BilinearKind::conv2d;
      spec.batch = 1;
      spec.in_ch = op.in_ch;
      spec.in_h = op.in_h;
      spec.in_w = op.in_w;
      spec.out_ch = op.out_ch;
      spec.kernel = op.kernel;
      spec.stride = op.stride;
      spec.pad = op.pad;
      push_bilinear(plan, op.layer, spec);
      break;
    }
    case OpKind::linear: {
      // One W·xᵀ matrix triple per sample; plans are per-query (batch 1).
      const auto out = static_cast<std::size_t>(op.out_features);
      const auto in = static_cast<std::size_t>(op.in_features);
      push_bilinear(plan, op.layer, crypto::BilinearSpec::matmul(out, in, 1));
      break;
    }
    case OpKind::x2act:
      push_square(plan, op.layer, static_cast<std::uint64_t>(op.input_elems()));
      break;
    case OpKind::relu:
    case OpKind::maxpool:
    case OpKind::argmax: {
      // Per comparison level: DReLU on the compared values, then the mux
      // tail's one bit-injection triple over every payload.
      const CompareLevels shape = op.compare_levels();
      for (const std::uint64_t n : shape.values) {
        push_drelu(plan, op.layer, n, rc);
        const auto payloads = static_cast<std::size_t>(shape.payloads);
        push_bilinear(plan, op.layer, crypto::BilinearSpec::bit_injection(n, payloads));
      }
      break;
    }
    case OpKind::batchnorm:
      throw std::logic_error("ir::derive_plan: unfolded batch-norm (run the pass pipeline)");
    case OpKind::input:
    case OpKind::avgpool:
    case OpKind::global_avgpool:
    case OpKind::flatten:
    case OpKind::add:
      break;  // local: no correlated randomness
  }
}

}  // namespace

PreprocessingPlan derive_plan(const SecureProgram& program, const crypto::RingConfig& rc) {
  PreprocessingPlan plan;
  plan.ring = rc;
  for (const Op& op : program.ops) append_op_requests(plan, op, rc);
  return plan;
}

}  // namespace pasnet::ir
