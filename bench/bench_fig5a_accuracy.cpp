// Fig. 5(a): searched-model accuracy across backbones and latency
// penalties λ, on the synthetic CIFAR-10 stand-in.
//
// Paper shape to reproduce: accuracy decreases as λ grows (more polynomial
// operators); ResNets lose the least from full polynomial replacement
// (paper: 0.26-0.34%), VGG-16 the most (3.2%), MobileNetV2 in between.
// Absolute numbers here are synthetic-data proxies (see src/data/synthetic.hpp).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace bu = pasnet::benchutil;
namespace nn = pasnet::nn;

namespace {

void print_table() {
  const auto dataset = bu::make_dataset();
  const double lambdas[] = {0.5, 5.0};

  std::printf("== Fig. 5(a): searched model accuracy vs lambda (synthetic CIFAR proxy) ==\n\n");
  std::printf("%-12s %10s %10s %10s %10s | %9s\n", "backbone", "all-ReLU%", "l1%", "l2%",
              "all-poly%", "drop(pp)");
  for (const auto backbone : bu::kAllBackbones) {
    const auto proxy = bu::scaled_backbone(backbone);
    const auto all_relu = nn::uniform_choices(proxy, nn::ActKind::relu, nn::PoolKind::maxpool);
    const auto all_poly = nn::uniform_choices(proxy, nn::ActKind::x2act, nn::PoolKind::avgpool);

    const float acc_relu = bu::finetuned_accuracy(backbone, all_relu, dataset);
    float acc_lambda[2];
    for (int i = 0; i < 2; ++i) {
      const auto choices = bu::search_choices(backbone, lambdas[i], dataset);
      acc_lambda[i] = bu::finetuned_accuracy(backbone, choices, dataset);
    }
    const float acc_poly = bu::finetuned_accuracy(backbone, all_poly, dataset);
    std::printf("%-12s %10.1f %10.1f %10.1f %10.1f | %9.1f\n", nn::backbone_name(backbone),
                100.f * acc_relu, 100.f * acc_lambda[0], 100.f * acc_lambda[1],
                100.f * acc_poly, 100.f * (acc_relu - acc_poly));
  }
  std::printf("\nPaper reference (real CIFAR-10): all-poly drop is 0.26-0.34pp for\n"
              "ResNets, 1.27pp for MobileNetV2, 3.2pp for VGG-16.\n\n");
}

void bm_finetune_step_resnet18_proxy(benchmark::State& state) {
  const auto dataset = bu::make_dataset();
  const auto proxy = bu::scaled_backbone(pasnet::nn::Backbone::resnet18);
  auto lut = bu::make_lut();
  const auto arch = pasnet::core::profile_choices(
      proxy, nn::uniform_choices(proxy, nn::ActKind::x2act, nn::PoolKind::avgpool), lut);
  pasnet::crypto::Prng wprng(1), bprng(2);
  auto graph = pasnet::nn::build_graph(arch.descriptor, wprng);
  pasnet::core::apply_stpai(*graph);
  pasnet::nn::Sgd opt(graph->params(), 0.02f, 0.9f);
  pasnet::nn::SoftmaxCrossEntropy ce;
  for (auto _ : state) {
    auto [x, y] = dataset.train.sample_batch(bprng, 8);
    graph->zero_grad();
    (void)ce.forward(graph->forward(x, true), y);
    graph->backward(ce.backward());
    opt.step();
  }
}
BENCHMARK(bm_finetune_step_resnet18_proxy)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
