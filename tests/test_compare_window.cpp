// The comparison window on the reference models: every DReLU compares in a
// 32-bit window and is exact only when |x| < 2^31 ring units
// (crypto/compare.hpp).  Each all_test_models() entry is built the way the
// end-to-end benchmark builds its fixture, its logits and classify
// programs run on fixed-seed queries at two input scales, and the op hook
// reconstructs every comparison op's input from its producer's output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ir/passes.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::all_test_models;
using pasnet::testing::warm_up;

namespace {

constexpr int kQueries = 20;
/// ReLU and max-pool inputs must clear the window by 8 bits.
constexpr double kReluPoolLimit = 0x1p23;
/// Argmax inputs (logits) must clear it by 6 bits where the label can
/// still be right.
constexpr double kArgmaxLimit = 0x1p25;

/// Largest magnitude one comparison op compares, in ring units: |x| for a
/// ReLU; 2·max|x| for a max-pool or argmax tournament, which bounds every
/// pair difference it compares.
double compared_magnitude(const ir::Op& op, const pc::RingVec& in, const pc::RingConfig& rc) {
  double m = 0.0;
  for (const std::uint64_t v : in) {
    m = std::max(m, std::fabs(static_cast<double>(pc::to_signed(v, rc))));
  }
  return op.kind == ir::OpKind::relu ? m : 2.0 * m;
}

struct QueryRun {
  nn::Tensor logits;
  double relu_pool = 0.0;  ///< largest ReLU / max-pool compared magnitude
  double argmax = 0.0;     ///< largest argmax compared magnitude
};

/// One query through `p`, measuring every comparison op's input.
QueryRun run(const ir::SecureProgram& p, const ir::CompiledParams& params, pc::TwoPartyContext& ctx,
             const nn::Tensor& x) {
  std::vector<pc::Shared> out(p.ops.size());
  ir::ExecOptions opts;
  opts.op_hook = [&out](std::size_t i, const proto::SecureTensor& t) { out[i] = t.shares; };
  QueryRun r;
  r.logits = ir::execute(p, params, ctx, x, opts).logits;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const ir::Op& op = p.ops[i];
    if (!op.stages_compare()) continue;
    const pc::RingVec in = pc::reconstruct(out[static_cast<std::size_t>(op.in0)], ctx.ring());
    double& site = op.kind == ir::OpKind::argmax ? r.argmax : r.relu_pool;
    site = std::max(site, compared_magnitude(op, in, ctx.ring()));
  }
  return r;
}

int argmax_of(const nn::Tensor& t) {
  int best = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] > t[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

bool all_finite(const nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

/// "2^b" of a compared magnitude, or "-" where the program has no such site.
std::string bits(double magnitude) {
  if (magnitude <= 0.0) return "-";
  char buf[16];
  std::snprintf(buf, sizeof buf, "2^%.1f", std::log2(magnitude));
  return buf;
}

}  // namespace

TEST(CompareWindow, EveryComparisonInputFitsTheWindow) {
  const auto models = all_test_models();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const nn::ModelDescriptor& md = models[m];
    pc::Prng wprng(300);
    std::vector<int> node_of_layer;
    auto graph = nn::build_graph(md, wprng, &node_of_layer);
    warm_up(*graph, md.input_ch, md.input_h, 301);
    ir::SecureProgram logits = ir::lower(md, *graph, node_of_layer);
    ir::run_standard_passes(logits);
    ir::SecureProgram classify = logits;
    ir::append_argmax(classify);

    pc::TwoPartyContext ctx;
    pc::Prng pprng(7);
    const ir::CompiledParams logits_params = ir::share_parameters(logits, pprng, ctx.ring());
    const ir::CompiledParams classify_params = ir::share_parameters(classify, pprng, ctx.ring());
    for (const float sigma : {0.5f, 1.0f}) {
      pc::Prng dprng(sigma == 0.5f ? 302 : 303);
      double relu_pool = 0.0, argmax = 0.0;
      int overflowed = 0, disagreed = 0;
      for (int q = 0; q < kQueries; ++q) {
        const auto x = nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, dprng, sigma);
        const nn::Tensor plain = graph->forward(x, false);
        const QueryRun lg = run(logits, logits_params, ctx, x);
        const QueryRun cl = run(classify, classify_params, ctx, x);
        relu_pool = std::max({relu_pool, lg.relu_pool, cl.relu_pool});
        EXPECT_LT(lg.relu_pool, kReluPoolLimit) << md.name << " sigma " << sigma << " query " << q;
        EXPECT_LT(cl.relu_pool, kReluPoolLimit) << md.name << " sigma " << sigma << " query " << q;
        // A query whose plaintext pass overflows, or whose secure logits
        // already miss the plaintext argmax, has a wrong label before any
        // argmax comparison runs; its argmax input is not held to the bound.
        if (!all_finite(plain)) {
          ++overflowed;
          continue;
        }
        if (argmax_of(lg.logits) != argmax_of(plain)) {
          ++disagreed;
          continue;
        }
        argmax = std::max(argmax, cl.argmax);
        EXPECT_LT(cl.argmax, kArgmaxLimit) << md.name << " sigma " << sigma << " query " << q;
      }
      std::printf(
          "model %zu (%s) sigma %.1f: relu/maxpool max %s, argmax max %s; of %d queries, "
          "%d overflow in plaintext, %d miss the plaintext argmax\n",
          m, md.name.c_str(), static_cast<double>(sigma), bits(relu_pool).c_str(),
          bits(argmax).c_str(), kQueries, overflowed, disagreed);
    }
  }
}
