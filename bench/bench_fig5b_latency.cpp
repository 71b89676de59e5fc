// Fig. 5(b): private-inference latency of the searched models on CIFAR-10
// shapes (ZCU104, 1 GB/s LAN).
//
// Paper shape to reproduce: all-polynomial replacement speeds up VGG-16 by
// ~20x (382 ms baseline), MobileNetV2 ~15x (1543 ms), ResNet-18 ~26x
// (324 ms), ResNet-34 ~19x (435 ms), ResNet-50 ~25x (922 ms); tighter λ
// yields lower latency.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace bu = pasnet::benchutil;
namespace nn = pasnet::nn;
namespace perf = pasnet::perf;

namespace {

struct PaperRef {
  double baseline_ms;
  double speedup;
};

PaperRef paper_ref(nn::Backbone b) {
  switch (b) {
    case nn::Backbone::vgg16: return {382, 20};
    case nn::Backbone::mobilenet_v2: return {1543, 15};
    case nn::Backbone::resnet18: return {324, 26};
    case nn::Backbone::resnet34: return {435, 19};
    case nn::Backbone::resnet50: return {922, 25};
  }
  return {0, 0};
}

void print_table() {
  const auto dataset = bu::make_dataset();
  std::printf("== Fig. 5(b): searched model PI latency on CIFAR shapes ==\n");
  std::printf("   (network: 1 GB/s, device: ZCU104; lambda1 < lambda2)\n\n");
  std::printf("%-12s %10s %9s %9s %10s %8s | %9s %9s\n", "backbone", "allReLU ms",
              "l1 ms", "l2 ms", "allpoly ms", "speedup", "paper ms", "paper spd");
  for (const auto backbone : bu::kAllBackbones) {
    const auto full = bu::cifar_backbone(backbone);
    const auto all_relu = nn::uniform_choices(full, nn::ActKind::relu, nn::PoolKind::maxpool);
    const auto all_poly = nn::uniform_choices(full, nn::ActKind::x2act, nn::PoolKind::avgpool);
    const double base_ms = bu::cifar_latency_ms(backbone, all_relu);
    const double poly_ms = bu::cifar_latency_ms(backbone, all_poly);
    const auto c1 = bu::search_choices(backbone, 0.5, dataset, /*steps=*/6);
    const auto c2 = bu::search_choices(backbone, 5.0, dataset, /*steps=*/6);
    const double l1_ms = bu::cifar_latency_ms(backbone, c1);
    const double l2_ms = bu::cifar_latency_ms(backbone, c2);
    const auto ref = paper_ref(backbone);
    std::printf("%-12s %10.1f %9.1f %9.1f %10.1f %7.1fx | %9.0f %8.0fx\n",
                nn::backbone_name(backbone), base_ms, l1_ms, l2_ms, poly_ms,
                base_ms / poly_ms, ref.baseline_ms, ref.speedup);
  }
  std::printf("\nShape checks: all-poly is the fastest column; larger lambda gives\n"
              "lower latency; speedups land in the paper's 15-26x band (see\n"
              "src/perf/hardware.hpp for calibration notes).\n\n");
}

void bm_profile_cifar_backbones(benchmark::State& state) {
  auto lut = bu::make_lut();
  const auto md = bu::cifar_backbone(
      bu::kAllBackbones[static_cast<std::size_t>(state.range(0))]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perf::profile_network(md, lut).total.total_s());
  }
}
BENCHMARK(bm_profile_cifar_backbones)->DenseRange(0, 4);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
