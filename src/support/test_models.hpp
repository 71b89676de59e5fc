#pragma once
// Shared tiny-model fixtures used by the test suites and benches: a tiny
// conv-bn-act-pool-fc model, a short training warm-up so batch-norm has
// meaningful running statistics, the per-op program oracle and a tensor
// diff helper.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "crypto/prng.hpp"
#include "ir/executor.hpp"
#include "ir/passes.hpp"
#include "nn/graph.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"

namespace pasnet::testing {

/// Builds a tiny conv-bn-act-pool-fc descriptor (2×8×8 input, 3 classes).
inline nn::ModelDescriptor tiny_cnn(nn::OpKind act_kind, nn::OpKind pool_kind) {
  nn::ModelDescriptor md;
  md.name = "TinyCNN";
  md.input_ch = 2;
  md.input_h = 8;
  md.input_w = 8;
  md.num_classes = 3;
  md.layers.push_back({});
  md.layers[0].kind = nn::OpKind::input;

  nn::LayerSpec conv;
  conv.kind = nn::OpKind::conv;
  conv.in0 = 0;
  conv.in_ch = 2;
  conv.out_ch = 4;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  md.layers.push_back(conv);

  nn::LayerSpec bn;
  bn.kind = nn::OpKind::batchnorm;
  bn.in0 = 1;
  md.layers.push_back(bn);

  nn::LayerSpec act;
  act.kind = act_kind;
  act.in0 = 2;
  act.searchable = true;
  md.layers.push_back(act);

  nn::LayerSpec pool;
  pool.kind = pool_kind;
  pool.in0 = 3;
  pool.kernel = 2;
  pool.stride = 2;
  pool.searchable = true;
  md.layers.push_back(pool);

  nn::LayerSpec flat;
  flat.kind = nn::OpKind::flatten;
  flat.in0 = 4;
  md.layers.push_back(flat);

  nn::LayerSpec fc;
  fc.kind = nn::OpKind::linear;
  fc.in0 = 5;
  fc.out_features = 3;
  md.layers.push_back(fc);

  md.output = 6;
  nn::propagate_shapes(md);
  return md;
}

/// Scaled ResNet-18 reference proxy (8×8 input, 1/16 width) with uniform
/// activation/pooling choices applied — the ReLU-heavy and all-polynomial
/// extremes the acceptance suites exercise.
inline nn::ModelDescriptor proxy_resnet(nn::ActKind act, nn::PoolKind pool) {
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.width_mult = 0.0625f;
  auto md = nn::make_resnet(18, opt);
  return nn::apply_choices(md, nn::uniform_choices(md, act, pool));
}

/// Scaled MobileNetV2 reference proxy (all-polynomial choices).
inline nn::ModelDescriptor proxy_mobilenet() {
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.width_mult = 0.125f;
  auto md = nn::make_mobilenet_v2(opt);
  return nn::apply_choices(
      md, nn::uniform_choices(md, nn::ActKind::x2act, nn::PoolKind::avgpool));
}

/// Every fixture model the acceptance criteria cover: the four TinyCNN
/// activation/pooling variants plus the scaled backbone proxies.  The
/// differential (scheduled-vs-per-op) and plan-oracle suites iterate this
/// list, so a new fixture added here is picked up by both.
inline std::vector<nn::ModelDescriptor> all_test_models() {
  return {
      tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool),
      tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool),
      tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool),
      tiny_cnn(nn::OpKind::x2act, nn::OpKind::maxpool),
      proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool),
      proxy_resnet(nn::ActKind::x2act, nn::PoolKind::avgpool),
      proxy_mobilenet(),
  };
}

/// A hand-built IR program with K independent ReLU instances over one
/// input, reduced by local adds — the cross-instance comparison-grouping
/// fixture shared by the round guard and bench_fig1: the scheduler puts
/// all K in one round group, so the executor pays the comparison stack
/// once however large K is.
inline ir::SecureProgram parallel_relu_program(int k) {
  ir::SecureProgram p;
  p.name = "ParallelRelu" + std::to_string(k);
  p.input_ch = 2;
  p.input_h = p.input_w = 4;
  const auto fill_geometry = [](ir::Op& op) {
    op.in_ch = op.out_ch = 2;
    op.in_h = op.in_w = op.out_h = op.out_w = 4;
  };
  ir::Op input;
  input.kind = ir::OpKind::input;
  fill_geometry(input);
  p.ops.push_back(input);
  for (int i = 0; i < k; ++i) {
    ir::Op r;
    r.kind = ir::OpKind::relu;
    r.in0 = 0;
    fill_geometry(r);
    p.ops.push_back(r);
  }
  int acc = 1;  // reduce the K branches with local adds
  for (int i = 2; i <= k; ++i) {
    ir::Op a;
    a.kind = ir::OpKind::add;
    a.in0 = acc;
    a.in1 = i;
    fill_geometry(a);
    acc = static_cast<int>(p.ops.size());
    p.ops.push_back(a);
  }
  p.output = acc;
  ir::schedule_rounds(p);
  return p;
}

/// The per-op oracle of a scheduled program: the same ops in the same
/// order with every stageable op in a round group of its own, so the
/// executor flushes after each op.  Only what one op stages together
/// still shares an exchange — a multiply's E and F openings, and an op's
/// instances across the lanes of a batch.  The draws are the scheduled
/// program's, so it reveals the same bits; perf::profile_program prices
/// it like any other program.
inline ir::SecureProgram one_group_per_op(ir::SecureProgram p) {
  int group = 0;
  for (ir::Op& op : p.ops) {
    if (op.stages_opens() || op.stages_compare()) op.round_group = group++;
  }
  return p;
}

/// Measured traffic of one execution of `p` on a fresh context, zero input.
inline crypto::TrafficStats measured_program_traffic(const ir::SecureProgram& p) {
  crypto::TwoPartyContext ctx;
  crypto::Prng wprng(1);
  const ir::CompiledParams params = ir::share_parameters(p, wprng, ctx.ring());
  (void)ir::execute(p, params, ctx, nn::Tensor({1, p.input_ch, p.input_h, p.input_w}));
  return ctx.stats();
}

/// Measured rounds of one execution of `p` on a fresh context, zero input.
inline std::uint64_t measured_program_rounds(const ir::SecureProgram& p) {
  return measured_program_traffic(p).rounds;
}

/// A few steps of training so BN has meaningful running statistics.
inline void warm_up(nn::Graph& g, int input_ch, int hw, std::uint64_t seed) {
  crypto::Prng prng(seed);
  nn::Sgd opt(g.params(), 0.01f);
  nn::SoftmaxCrossEntropy loss;
  for (int step = 0; step < 10; ++step) {
    const auto x = nn::Tensor::randn({4, input_ch, hw, hw}, prng, 1.0f);
    std::vector<int> labels{0, 1, 2, 0};
    g.zero_grad();
    const auto logits = g.forward(x, true);
    (void)loss.forward(logits, labels);
    g.backward(loss.backward());
    opt.step();
  }
}

inline float max_abs_diff(const nn::Tensor& a, const nn::Tensor& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace pasnet::testing
