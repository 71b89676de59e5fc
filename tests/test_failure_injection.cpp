// Failure-injection and misuse tests: the library must fail loudly and
// specifically on malformed inputs rather than corrupting protocol state.

#include <gtest/gtest.h>

#include "baselines/relu_reduction.hpp"
#include "core/latency_loss.hpp"
#include "perf/lut.hpp"
#include "data/synthetic.hpp"
#include "proto/secure_ops.hpp"

namespace bl = pasnet::baselines;
namespace core = pasnet::core;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

TEST(FailureInjection, SecureConvRejectsWrongWeightShape) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(1);
  const auto x = nn::Tensor::randn({1, 2, 4, 4}, prng, 1.0f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto bad_w = pc::share_reals(std::vector<double>(10, 0.1), prng, ctx.ring());
  EXPECT_THROW((void)proto::secure_conv2d(ctx, sx, bad_w, nullptr, 4, 3, 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)proto::secure_depthwise_conv2d(ctx, sx, bad_w, 3, 1, 1),
               std::invalid_argument);
}

TEST(FailureInjection, SecureLinearRejectsWrongWeightShape) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(2);
  const auto x = nn::Tensor::randn({2, 8}, prng, 1.0f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto bad_w = pc::share_reals(std::vector<double>(7, 0.1), prng, ctx.ring());
  EXPECT_THROW((void)proto::secure_linear(ctx, sx, bad_w, nullptr, 3),
               std::invalid_argument);
}

TEST(FailureInjection, SecureAddRejectsShapeMismatch) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(3);
  const auto a = proto::share_tensor(nn::Tensor({1, 2, 3, 3}), prng, ctx.ring());
  const auto b = proto::share_tensor(nn::Tensor({1, 2, 4, 4}), prng, ctx.ring());
  EXPECT_THROW((void)proto::secure_add(ctx, a, b), std::invalid_argument);
}

TEST(FailureInjection, MillionaireRejectsBadWidths) {
  pc::TwoPartyContext ctx;
  const std::vector<std::uint64_t> v{1};
  EXPECT_THROW((void)pc::millionaire_gt(ctx, v, v, 0), std::invalid_argument);
  EXPECT_THROW((void)pc::millionaire_gt(ctx, v, v, 64), std::invalid_argument);
  EXPECT_THROW((void)pc::millionaire_gt(ctx, v, {1, 2}, 8), std::invalid_argument);
}

TEST(FailureInjection, ChannelOrderingBugIsCaught) {
  // A protocol that reads before its peer wrote must throw, not hang or
  // return garbage.
  auto [c0, c1] = pc::Channel::make_pair();
  EXPECT_THROW((void)c1->recv_ring(4, 4), std::logic_error);
  c0->send_ring(pc::RingVec{1, 2}, 4);
  EXPECT_THROW((void)c1->recv_ring(3, 4), pc::FrameLengthError);  // size lie
}

TEST(FailureInjection, LatencyLossRejectsForeignSupernet) {
  // A LatencyLoss built for one backbone cannot drive a supernet with a
  // different gated-site count.
  nn::BackboneOptions small;
  small.input_size = 8;
  small.width_mult = 0.125f;
  const auto md18 = nn::make_resnet(18, small);
  const auto md34 = nn::make_resnet(34, small);
  perf::LatencyLut lut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                          perf::NetworkConfig::lan_1gbps()));
  core::LatencyLoss ll(md34, lut, 1.0);
  pc::Prng prng(4);
  core::SuperNet net18(md18, prng);
  EXPECT_THROW((void)ll.expected_latency(net18), std::invalid_argument);
}

TEST(FailureInjection, LutCsvRejectsShortRows) {
  perf::LatencyLut lut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                          perf::NetworkConfig::lan_1gbps()));
  EXPECT_THROW(lut.load_csv("op,a,b,c,d,cmp_s,comm_s,comm_bytes,rounds\n0,1,2\n"),
               std::invalid_argument);
}

TEST(FailureInjection, ReducerHandlesDegenerateBudgets) {
  nn::BackboneOptions opt;
  opt.input_size = 32;
  const auto md = nn::make_resnet(18, opt);
  // Negative budget behaves like zero (nothing kept).
  const auto choices = bl::reduce_relus(bl::ReluReducer::delphi, md, -5);
  EXPECT_EQ(nn::relu_count(nn::apply_choices(md, choices)), 0);
  // Astronomically large budget keeps everything.
  const auto all = bl::reduce_relus(bl::ReluReducer::snl, md, 1LL << 60);
  EXPECT_EQ(nn::relu_count(nn::apply_choices(md, all)), nn::relu_count(md));
}

TEST(FailureInjection, TruncatedRecvAfterPartialProtocolThrows) {
  // Simulate a peer that dies mid-protocol: the second message of the OT
  // exchange never arrives; the reader must throw.
  pc::TwoPartyContext ctx;
  ctx.chan(0).send_bytes({1, 2, 3});
  (void)ctx.chan(1).recv_bytes();
  EXPECT_THROW((void)ctx.chan(0).recv_bytes(), std::logic_error);
}

TEST(FailureInjection, GraphDoubleInputRejected) {
  nn::Graph g;
  (void)g.add_input();
  EXPECT_THROW((void)g.add_input(), std::logic_error);
}

TEST(FailureInjection, DatasetEmptySampleThrows) {
  pasnet::data::Dataset empty;
  pc::Prng prng(5);
  EXPECT_THROW((void)empty.sample_batch(prng, 4), std::logic_error);
}
