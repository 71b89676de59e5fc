// Quickstart: train a small CNN on synthetic data, then run the same model
// under 2PC private inference and compare against the plaintext result.
//
//   build/examples/quickstart
//
// Walks through the core PASNet API: dataset -> descriptor -> plaintext
// training -> secure compilation -> private inference -> latency model.

#include <cstdio>

#include "core/derive.hpp"
#include "data/synthetic.hpp"
#include "perf/network_profile.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"

namespace core = pasnet::core;
namespace data = pasnet::data;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

int main() {
  std::printf("== PASNet quickstart ==\n\n");

  // 1. Synthetic dataset (stands in for CIFAR-10, which this repo does not ship).
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.size = 8;
  spec.train_count = 384;
  spec.val_count = 96;
  spec.seed = 7;
  const auto dataset = data::make_synthetic(spec);
  std::printf("dataset: %d train / %d val images (%dx%dx%d, %d classes)\n",
              dataset.train.count(), dataset.val.count(), spec.channels, spec.size,
              spec.size, spec.num_classes);

  // 2. A small all-polynomial backbone (the PASNet-A recipe in miniature).
  nn::BackboneOptions opt;
  opt.input_size = spec.size;
  opt.num_classes = spec.num_classes;
  opt.width_mult = 0.25f;
  auto backbone = nn::make_resnet(18, opt);
  const auto choices = nn::uniform_choices(backbone, nn::ActKind::x2act,
                                           nn::PoolKind::avgpool);
  perf::LatencyLut lut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                          perf::NetworkConfig::lan_1gbps()));
  const auto arch = core::profile_choices(backbone, choices, lut);
  std::printf("model: %s, %d polynomial activation sites, %lld ReLUs\n",
              arch.descriptor.name.c_str(), arch.poly_sites, arch.relu_count);

  // 3. Train the plaintext model (STPAI keeps the polynomials stable).
  pc::Prng wprng(1), bprng(2);
  core::FinetuneConfig fcfg;
  fcfg.steps = 120;
  fcfg.batch_size = 16;
  std::vector<int> node_of_layer;
  auto graph = core::finetune(arch, wprng, [&]() {
    auto [x, y] = dataset.train.sample_batch(bprng, fcfg.batch_size);
    return core::Batch{std::move(x), std::move(y)};
  }, fcfg, &node_of_layer);
  const auto [vx, vy] = dataset.val.slice(0, dataset.val.count());
  std::printf("plaintext val accuracy: %.1f%%\n",
              100.0f * core::evaluate_accuracy(*graph, vx, vy));

  // 4. Compile for 2PC and run private inference on one query.
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(arch.descriptor, *graph, node_of_layer, ctx);
  const auto [qx, qy] = dataset.val.slice(0, 1);
  const auto plain_logits = graph->forward(qx, false);
  proto::Workload workload(snet);
  const auto secure_logits = std::move(workload.run({qx}).logits[0]);
  std::printf("\nprivate inference on one query:\n");
  std::printf("  plaintext argmax: %d   secure argmax: %d   (label: %d)\n",
              nn::argmax_rows(plain_logits)[0], nn::argmax_rows(secure_logits)[0], qy[0]);
  std::printf("  measured traffic: %.1f KB in %llu rounds (%llu messages)\n",
              workload.stats().comm_bytes / 1024.0,
              static_cast<unsigned long long>(workload.stats().rounds),
              static_cast<unsigned long long>(workload.stats().messages));

  // 5. What would this cost on the paper's ZCU104 + 1 GB/s LAN testbed?
  const auto profile = perf::profile_network(arch.descriptor, lut);
  std::printf("  modeled 2PC latency: %.2f ms (%.2f ms pipelined), %.2f MB\n",
              profile.latency_ms(), profile.pipelined_s * 1e3, profile.comm_mb());
  std::printf("\nDone. See examples/nas_search.cpp for the search loop itself.\n");
  return 0;
}
