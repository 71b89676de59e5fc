#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.hpp"
#include "proto/secure_ops.hpp"

namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

namespace {

/// Max absolute elementwise difference between two tensors.
float max_abs_diff(const nn::Tensor& a, const nn::Tensor& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

nn::Tensor random_tensor(std::vector<int> shape, std::uint64_t seed, float scale = 1.0f) {
  pc::Prng prng(seed);
  return nn::Tensor::randn(std::move(shape), prng, scale);
}

}  // namespace

TEST(SecureTensor, ShareReconstructRoundTrip) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(1);
  const auto x = random_tensor({2, 3, 4, 4}, 2);
  const auto st = proto::share_tensor(x, prng, ctx.ring());
  const auto back = proto::reconstruct_tensor(st, ctx.ring());
  EXPECT_LT(max_abs_diff(x, back), 1e-3f);
  EXPECT_EQ(st.shape, x.shape());
}

TEST(SecureConv, MatchesPlaintextConv) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(3), wprng(4);
  nn::Conv2d conv(2, 4, 3, 1, 1, wprng);
  const auto x = random_tensor({1, 2, 6, 6}, 5, 0.5f);
  const auto want = conv.forward(x, false);

  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(conv.weight().to_doubles(), prng, ctx.ring());
  const auto out = proto::secure_conv2d(ctx, sx, sw, nullptr, 4, 3, 1, 1);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 0.05f);
}

TEST(SecureConv, StridedWithBias) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(6), wprng(7);
  nn::Conv2d conv(3, 2, 3, 2, 1, wprng, /*bias=*/true);
  conv.bias()[0] = 0.5f;
  conv.bias()[1] = -0.25f;
  const auto x = random_tensor({2, 3, 8, 8}, 8, 0.5f);
  const auto want = conv.forward(x, false);

  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(conv.weight().to_doubles(), prng, ctx.ring());
  const auto sb = pc::share_reals(conv.bias().to_doubles(), prng, ctx.ring());
  const auto out = proto::secure_conv2d(ctx, sx, sw, &sb, 2, 3, 2, 1);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 0.05f);
}

TEST(SecureDepthwiseConv, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(9), wprng(10);
  nn::DepthwiseConv2d dw(3, 3, 1, 1, wprng);
  const auto x = random_tensor({1, 3, 5, 5}, 11, 0.5f);
  const auto want = dw.forward(x, false);

  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(dw.weight().to_doubles(), prng, ctx.ring());
  const auto out = proto::secure_depthwise_conv2d(ctx, sx, sw, 3, 1, 1);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 0.05f);
}

TEST(SecureLinear, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(12), wprng(13);
  nn::Linear fc(10, 4, wprng);
  const auto x = random_tensor({3, 10}, 14, 0.5f);
  const auto want = fc.forward(x, false);

  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(fc.weight().to_doubles(), prng, ctx.ring());
  const auto sb = pc::share_reals(fc.bias().to_doubles(), prng, ctx.ring());
  const auto out = proto::secure_linear(ctx, sx, sw, &sb, 4);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 0.05f);
}

TEST(SecureX2act, MatchesPlaintextPolynomial) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(15);
  nn::X2Act act(0.4f, 0.9f, 0.1f);
  const auto x = random_tensor({2, 2, 3, 3}, 16, 0.8f);
  const auto want = act.forward(x, false);

  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const double a = act.effective_quadratic_coeff(2 * 3 * 3);
  const auto out = proto::secure_x2act(ctx, sx, a, act.w2(), act.b());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 0.05f);
}

TEST(SecureX2act, StpaiIdentityPassthrough) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(17);
  const auto x = random_tensor({1, 4}, 18);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_x2act(ctx, sx, 0.0, 1.0, 0.0);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), x), 2e-3f);
}

TEST(SecureRelu, MatchesPlaintextBothExecModes) {
  for (const auto mode : {pc::ExecMode::lockstep, pc::ExecMode::threaded}) {
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, mode);
    pc::Prng prng(19);
    nn::Relu relu;
    const auto x = random_tensor({1, 2, 4, 4}, 20, 2.0f);
    const auto want = relu.forward(x, false);
    const auto sx = proto::share_tensor(x, prng, ctx.ring());
    const auto out = proto::secure_relu(ctx, sx);
    EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 2e-3f);
  }
}

TEST(SecureMaxpool, MatchesPlaintextOnPositiveInputs) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(21);
  nn::MaxPool2d pool(2, 2);
  auto x = random_tensor({1, 2, 4, 4}, 22);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);  // post-ReLU regime
  const auto want = pool.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_maxpool(ctx, sx, 2, 2);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureMaxpool, ThreeByThreeWindowTree) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(23);
  nn::MaxPool2d pool(3, 2, 1);
  auto x = random_tensor({1, 1, 7, 7}, 24);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);
  const auto want = pool.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_maxpool(ctx, sx, 3, 2, 1);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureMaxpool, NonzeroPadMatchesPlaintextBothContexts) {
  // Padding positions carry zero shares; on the non-negative post-ReLU
  // regime that is exactly plaintext max pooling with zero padding.  The
  // batched tournament must agree under both execution modes.
  for (const auto mode : {pc::ExecMode::lockstep, pc::ExecMode::threaded}) {
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, mode);
    pc::Prng prng(50);
    nn::MaxPool2d pool(2, 2, 1);
    auto x = random_tensor({2, 3, 5, 5}, 51);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);
    const auto want = pool.forward(x, false);
    const auto sx = proto::share_tensor(x, prng, ctx.ring());
    const auto out = proto::secure_maxpool(ctx, sx, 2, 2, 1);
    EXPECT_EQ(out.shape, want.shape());
    EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
  }
}

TEST(SecureMaxpool, PadWithStrideOneOverlappingWindows) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(52);
  nn::MaxPool2d pool(3, 1, 1);
  auto x = random_tensor({1, 2, 6, 6}, 53);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);
  const auto want = pool.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_maxpool(ctx, sx, 3, 1, 1);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureArgmax, TieBreaksToLowestIndexBothContexts) {
  // Duplicate maxima: the tournament's [a >= b] selector keeps the earlier
  // (lower-index) entry on equality at every level, so the revealed label
  // is the lowest index holding the maximum.
  for (const auto mode : {pc::ExecMode::lockstep, pc::ExecMode::threaded}) {
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, mode);
    pc::Prng prng(54);
    nn::Tensor logits({3, 6});
    const float rows[3][6] = {
        {0.25f, 2.5f, -1.0f, 2.5f, 0.0f, 2.5f},   // max at 1, 3 and 5 -> 1
        {-3.0f, -3.0f, -3.0f, -3.0f, -3.0f, -3.0f},  // all equal -> 0
        {1.0f, 1.0f, 4.0f, 4.0f, -2.0f, 0.5f},    // max at 2 and 3 -> 2
    };
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 6; ++c) logits[static_cast<std::size_t>(r * 6 + c)] = rows[r][c];
    }
    const auto sx = proto::share_tensor(logits, prng, ctx.ring());
    const auto got = proto::secure_argmax(ctx, sx);
    EXPECT_EQ(got, (std::vector<int>{1, 0, 2}));
  }
}

TEST(SecureArgmax, TieAcrossOddTailEntry) {
  // An odd entry count carries the last column through levels unpaired; a
  // tie between the carried entry and an earlier winner must still resolve
  // to the earlier index.
  pc::TwoPartyContext ctx;
  pc::Prng prng(55);
  nn::Tensor logits({1, 5});
  const float vals[5] = {0.0f, 3.0f, -1.0f, 0.5f, 3.0f};  // max at 1 and 4 -> 1
  for (int c = 0; c < 5; ++c) logits[static_cast<std::size_t>(c)] = vals[c];
  const auto sx = proto::share_tensor(logits, prng, ctx.ring());
  EXPECT_EQ(proto::secure_argmax(ctx, sx), (std::vector<int>{1}));
}

TEST(SecureAvgpool, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(25);
  nn::AvgPool2d pool(2, 2);
  const auto x = random_tensor({2, 3, 4, 4}, 26);
  const auto want = pool.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_avgpool(ctx, sx, 2, 2);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureAvgpool, IsCommunicationFree) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(27);
  const auto sx = proto::share_tensor(random_tensor({1, 2, 4, 4}, 28), prng, ctx.ring());
  ctx.reset_stats();
  (void)proto::secure_avgpool(ctx, sx, 2, 2);
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);  // paper Eq. 15: local only
}

TEST(SecureGlobalAvgpool, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(29);
  nn::GlobalAvgPool gap;
  const auto x = random_tensor({2, 4, 5, 5}, 30);
  const auto want = gap.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_global_avgpool(ctx, sx);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureAdd, MatchesPlaintextAndIsFree) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(31);
  const auto a = random_tensor({1, 2, 3, 3}, 32);
  const auto b = random_tensor({1, 2, 3, 3}, 33);
  const auto sa = proto::share_tensor(a, prng, ctx.ring());
  const auto sb = proto::share_tensor(b, prng, ctx.ring());
  ctx.reset_stats();
  const auto out = proto::secure_add(ctx, sa, sb);
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), nn::add(a, b)), 2e-3f);
}

TEST(SecureFlatten, ReshapesShares) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(34);
  const auto sx = proto::share_tensor(random_tensor({2, 3, 2, 2}, 35), prng, ctx.ring());
  const auto out = proto::secure_flatten(sx);
  EXPECT_EQ(out.shape, (std::vector<int>{2, 12}));
  EXPECT_EQ(out.size(), sx.size());
}

TEST(SecureConv, ReluCommunicationDwarfsConvCommunication) {
  // The motivating observation of the paper, measured on the *real*
  // protocol stack rather than the analytic model.
  pc::TwoPartyContext ctx;
  pc::Prng prng(36);
  const auto x = random_tensor({1, 8, 8, 8}, 37, 0.5f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());

  pc::Prng wprng(38);
  nn::Conv2d conv(8, 8, 3, 1, 1, wprng);
  const auto sw = pc::share_reals(conv.weight().to_doubles(), prng, ctx.ring());
  ctx.reset_stats();
  (void)proto::secure_conv2d(ctx, sx, sw, nullptr, 8, 3, 1, 1);
  const auto conv_bytes = ctx.stats().total_bytes();

  ctx.reset_stats();
  (void)proto::secure_relu(ctx, sx);
  const auto relu_bytes = ctx.stats().total_bytes();
  EXPECT_GT(relu_bytes, 3 * conv_bytes);
}

// Property sweep: secure ReLU equals plaintext ReLU across magnitudes and
// both execution modes (the end-to-end correctness invariant of the
// comparison stack composed with the bit-injection mux tail).
struct ReluCase {
  double scale;
  pc::ExecMode mode;
};

class SecureReluProperty : public ::testing::TestWithParam<ReluCase> {};

TEST_P(SecureReluProperty, MatchesPlaintext) {
  const auto param = GetParam();
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, param.mode);
  pc::Prng prng(40);
  auto x = random_tensor({1, 64}, 41, static_cast<float>(param.scale));
  nn::Relu relu;
  const auto want = relu.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::reconstruct_tensor(proto::secure_relu(ctx, sx), ctx.ring());
  EXPECT_LT(max_abs_diff(out, want), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndModes, SecureReluProperty,
    ::testing::Values(ReluCase{0.1, pc::ExecMode::threaded},
                      ReluCase{1.0, pc::ExecMode::threaded},
                      ReluCase{10.0, pc::ExecMode::threaded},
                      ReluCase{1.0, pc::ExecMode::lockstep},
                      ReluCase{100.0, pc::ExecMode::lockstep}));
