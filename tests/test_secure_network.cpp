#include <gtest/gtest.h>

#include <cmath>

#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::max_abs_diff;
using pasnet::testing::tiny_cnn;
using pasnet::testing::warm_up;

namespace {

/// One-query run through the workload API; fills `stats` when given.
nn::Tensor infer_one(proto::SecureNetwork& snet, const nn::Tensor& x,
                     proto::InferenceStats* stats = nullptr) {
  proto::Workload workload(snet);
  proto::WorkloadResult res = workload.run({x});
  if (stats != nullptr) *stats = workload.stats();
  return std::move(res.logits[0]);
}

}  // namespace

TEST(SecureNetwork, MatchesPlaintextWithReluAndMaxpool) {
  const auto md = tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  pc::Prng wprng(1);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 2, 8, 2);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);

  pc::Prng dprng(3);
  const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
  const auto plain = g->forward(x, false);
  const auto secure = infer_one(snet, x);
  EXPECT_EQ(secure.shape(), plain.shape());
  EXPECT_LT(max_abs_diff(secure, plain), 0.1f);
  EXPECT_EQ(nn::argmax_rows(secure), nn::argmax_rows(plain));
}

TEST(SecureNetwork, MatchesPlaintextWithPolynomialOperators) {
  const auto md = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::Prng wprng(4);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 2, 8, 5);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);

  pc::Prng dprng(6);
  const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
  const auto plain = g->forward(x, false);
  const auto secure = infer_one(snet, x);
  EXPECT_LT(max_abs_diff(secure, plain), 0.1f);
  EXPECT_EQ(nn::argmax_rows(secure), nn::argmax_rows(plain));
}

TEST(SecureNetwork, PolynomialVariantUsesFarLessCommunication) {
  // The paper's core claim, measured end-to-end on the real protocol stack.
  pc::Prng wprng(7);
  const auto md_relu = tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  const auto md_poly = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);

  std::vector<int> nol_relu, nol_poly;
  auto g_relu = nn::build_graph(md_relu, wprng, &nol_relu);
  auto g_poly = nn::build_graph(md_poly, wprng, &nol_poly);
  warm_up(*g_relu, 2, 8, 8);
  warm_up(*g_poly, 2, 8, 9);

  pc::TwoPartyContext ctx1, ctx2;
  proto::SecureNetwork snet_relu(md_relu, *g_relu, nol_relu, ctx1);
  proto::SecureNetwork snet_poly(md_poly, *g_poly, nol_poly, ctx2);

  pc::Prng dprng(10);
  const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
  proto::InferenceStats relu_stats, poly_stats;
  (void)infer_one(snet_relu, x, &relu_stats);
  (void)infer_one(snet_poly, x, &poly_stats);
  EXPECT_GT(relu_stats.comm_bytes, 5 * poly_stats.comm_bytes);
  EXPECT_GT(relu_stats.rounds, poly_stats.rounds);
}

TEST(SecureNetwork, BatchNormFoldingIsExactAtInference) {
  // With BN folded into conv, the secure path has no BN cost but the same
  // function: compare to plaintext eval-mode forward.
  const auto md = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::Prng wprng(11);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 2, 8, 12);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
  pc::Prng dprng(13);
  for (int trial = 0; trial < 3; ++trial) {
    const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 0.8f);
    EXPECT_LT(max_abs_diff(infer_one(snet, x), g->forward(x, false)), 0.1f);
  }
}

TEST(SecureNetwork, StatsArepopulated) {
  const auto md = tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  pc::Prng wprng(14);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 2, 8, 15);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
  pc::Prng dprng(16);
  proto::Workload workload(snet);
  (void)workload.run({nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f)});
  const proto::InferenceStats& stats = workload.stats();
  EXPECT_GT(stats.comm_bytes, 0u);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_EQ(stats.weight_open_bytes, snet.weight_open_bytes());
  EXPECT_GT(stats.online_bytes(), 0u);
  // Every planned draw was claimed: conv triples and the relu/maxpool
  // comparisons' bit triples among them.
  EXPECT_EQ(workload.chunk_stats()[0].counters[pasnet::obs::Counter::triple_claims],
            workload.plan().requests.size());
  EXPECT_GT(workload.plan().bit_triples_per_query(), 0u);
}

TEST(SecureNetwork, ResidualNetworkEndToEnd) {
  // A scaled-down ResNet-18 trained briefly, then inferred under 2PC: the
  // executor must handle residual adds, GAP and downsample convs.
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.width_mult = 0.0625f;  // 4..32 channels
  auto md = nn::make_resnet(18, opt);
  md = nn::apply_choices(md, nn::uniform_choices(md, nn::ActKind::x2act,
                                                 nn::PoolKind::avgpool));
  pc::Prng wprng(17);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 3, 8, 18);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
  pc::Prng dprng(19);
  const auto x = nn::Tensor::randn({1, 3, 8, 8}, dprng, 0.5f);
  const auto plain = g->forward(x, false);
  const auto secure = infer_one(snet, x);
  EXPECT_EQ(nn::argmax_rows(secure), nn::argmax_rows(plain));
  EXPECT_LT(max_abs_diff(secure, plain), 0.25f);
}

TEST(SecureNetwork, MeasuredBytesTrackAnalyticModelForPolyNet) {
  // Cross-check with the analytic model: measured X2act bytes = 2 openings x 4 bytes
  // per element (square protocol E openings both directions).
  pc::TwoPartyContext ctx;
  pc::Prng prng(20);
  const auto x = nn::Tensor::randn({1, 1, 8, 8}, prng, 1.0f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  ctx.reset_stats();
  (void)proto::secure_x2act(ctx, sx, 0.1, 1.0, 0.0);
  // One square_elem: open E = 64 elems x 4B x 2 directions = 512 bytes.
  EXPECT_EQ(ctx.stats().total_bytes(), 64u * 4 * 2);
}
