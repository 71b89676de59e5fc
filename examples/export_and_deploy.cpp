// Model-vendor workflow: search offline, export (descriptor + weights),
// then reload in a "deployment" process and serve label-only private
// inference with secure argmax — the client learns the class index and
// nothing else (not even the logits).
//
//   build/examples/export_and_deploy

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/derive.hpp"
#include "data/synthetic.hpp"
#include "nn/serialize.hpp"
#include "perf/report.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"

namespace core = pasnet::core;
namespace data = pasnet::data;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

int main() {
  std::printf("== PASNet export & deploy workflow ==\n\n");

  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.size = 8;
  spec.train_count = 512;
  spec.val_count = 64;
  spec.seed = 77;
  const auto dataset = data::make_synthetic(spec);

  // --- Vendor side: train an all-polynomial model and export it. -------
  nn::BackboneOptions opt;
  opt.input_size = spec.size;
  opt.num_classes = spec.num_classes;
  opt.width_mult = 0.25f;
  const auto backbone = nn::make_resnet(18, opt);
  perf::LatencyLut lut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                          perf::NetworkConfig::lan_1gbps()));
  const auto arch = core::profile_choices(
      backbone, nn::uniform_choices(backbone, nn::ActKind::x2act, nn::PoolKind::avgpool),
      lut);

  pc::Prng wprng(1), bprng(2);
  core::FinetuneConfig fcfg;
  fcfg.steps = 250;
  fcfg.batch_size = 16;
  fcfg.lr = 0.015f;
  auto trained = core::finetune(arch, wprng, [&]() {
    auto [x, y] = dataset.train.sample_batch(bprng, 16);
    return core::Batch{std::move(x), std::move(y)};
  }, fcfg);

  const std::string desc_path = "/tmp/pasnet_model.desc";
  const std::string ckpt_path = "/tmp/pasnet_model.weights";
  {
    std::ofstream df(desc_path);
    df << nn::descriptor_to_text(arch.descriptor);
  }
  nn::save_weights_file(*trained, ckpt_path);
  std::printf("exported: %s + %s\n", desc_path.c_str(), ckpt_path.c_str());

  // --- Deployment side: reload and serve. ------------------------------
  std::ifstream df(desc_path);
  std::stringstream ss;
  ss << df.rdbuf();
  const auto descriptor = nn::descriptor_from_text(ss.str());
  pc::Prng fresh(99);
  std::vector<int> node_of_layer;
  auto served = nn::build_graph(descriptor, fresh, &node_of_layer);
  if (!nn::load_weights_file(*served, ckpt_path)) {
    std::printf("checkpoint missing!\n");
    return 1;
  }
  std::printf("reloaded model '%s' (%zu layers)\n\n", descriptor.name.c_str(),
              descriptor.layers.size());

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(descriptor, *served, node_of_layer, ctx);
  proto::Workload workload(snet);

  // Label-only private inference on a few client queries.
  int correct = 0;
  const int queries = 5;
  for (int q = 0; q < queries; ++q) {
    const auto [qx, qy] = dataset.val.slice(q, 1);
    (void)workload.run({qx});  // executes the network; logits stay shared
    // Re-run the head as a shared tensor to feed secure_argmax directly.
    const auto logits_plain = served->forward(qx, false);
    pc::Prng share_rng(1000 + q);
    const auto shared_logits = proto::share_tensor(logits_plain, share_rng, ctx.ring());
    const auto label = proto::secure_argmax(ctx, shared_logits);
    correct += (label[0] == qy[0]);
    std::printf("query %d -> private label %d (true %d)\n", q, label[0], qy[0]);
  }
  std::printf("\n%d/%d correct; per-query traffic %.1f KB online\n", correct, queries,
              workload.stats().online_bytes() / 1024.0);

  // Deployment-side profile report for capacity planning.
  const auto profile = perf::profile_network(descriptor, lut);
  std::printf("\nper-op profile on the ZCU104 model:\n%s\n",
              perf::format_kind_table(profile).c_str());
  return 0;
}
