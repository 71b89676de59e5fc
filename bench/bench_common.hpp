#pragma once
// Shared helpers for the figure-regeneration benches: the scaled-proxy
// search + finetune pipeline (a substitution: accuracy comes from
// width/input-scaled backbones trained on synthetic data, while
// latency is always computed on the full-size CIFAR/ImageNet descriptors),
// plus the `--json=PATH` machine-readable output mode every bench shares
// (take_json_flag / run_benchmarks_with_json_flag / JsonReport) so the
// perf trajectory can be tracked across commits.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/darts.hpp"
#include "core/derive.hpp"
#include "data/synthetic.hpp"
#include "obs/tracer.hpp"

namespace pasnet::benchutil {

namespace core = pasnet::core;
namespace data = pasnet::data;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;

inline perf::LatencyLut make_lut() {
  return perf::LatencyLut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                             perf::NetworkConfig::lan_1gbps()));
}

inline data::SyntheticData make_dataset(std::uint64_t seed = 23, int classes = 4,
                                        float noise = 0.35f) {
  data::SyntheticSpec spec;
  spec.num_classes = classes;
  spec.size = 8;
  spec.train_count = 512;
  spec.val_count = 128;
  spec.noise = noise;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

/// Scaled trainable proxy of a backbone (same topology, tiny channels).
inline nn::ModelDescriptor scaled_backbone(nn::Backbone b, int classes = 4) {
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.num_classes = classes;
  opt.width_mult = 0.25f;
  return nn::make_backbone(b, opt);
}

/// Full-size CIFAR descriptor of the same backbone (for latency numbers).
inline nn::ModelDescriptor cifar_backbone(nn::Backbone b) {
  nn::BackboneOptions opt;
  opt.input_size = 32;
  opt.num_classes = 10;
  return nn::make_backbone(b, opt);
}

/// Runs the λ-penalized differentiable search on the scaled proxy, with the
/// latency loss evaluated on the *full-size* descriptor (site-for-site
/// mapping), and returns the derived operator choices.
inline nn::ArchChoices search_choices(nn::Backbone backbone, double lambda,
                                      const data::SyntheticData& dataset, int steps = 8,
                                      std::uint64_t seed = 5) {
  const auto proxy = scaled_backbone(backbone, dataset.spec.num_classes);
  const auto full = cifar_backbone(backbone);
  pc::Prng wprng(seed);
  core::SuperNet net(proxy, wprng);
  core::apply_stpai(net.graph());
  auto lut = make_lut();
  core::LatencyLoss latency(full, lut, lambda);  // full-shape latencies

  core::DartsConfig cfg;
  cfg.lambda = lambda;
  cfg.second_order = false;  // first-order keeps the sweep fast
  cfg.alpha_lr = 0.01f;
  core::DartsTrainer trainer(net, latency, cfg);
  pc::Prng trn_rng(seed + 1), val_rng(seed + 2);
  (void)trainer.search(
      [&]() {
        auto [x, y] = dataset.train.sample_batch(trn_rng, 8);
        return core::Batch{std::move(x), std::move(y)};
      },
      [&]() {
        auto [x, y] = dataset.val.sample_batch(val_rng, 8);
        return core::Batch{std::move(x), std::move(y)};
      },
      steps);
  return net.derive_choices();
}

/// Finetunes the scaled proxy realizing `choices` and returns val accuracy.
/// Best-of-two optimizer recipes per cell: SGD (momentum 0.9, lr 0.02) is
/// what the polynomial/STPAI networks like; Adam (lr 0.004) rescues thin
/// all-ReLU proxies whose Kaiming init draws dead paths at 1/4 width.
/// Taking the max models the per-model tuning every published evaluation
/// performs, applied identically to every architecture.
inline float finetuned_accuracy(nn::Backbone backbone, const nn::ArchChoices& choices,
                                const data::SyntheticData& dataset, int steps = 100,
                                std::uint64_t seed = 9) {
  const auto proxy = scaled_backbone(backbone, dataset.spec.num_classes);
  auto lut = make_lut();
  const auto arch = core::profile_choices(proxy, choices, lut);
  const auto [vx, vy] = dataset.val.slice(0, dataset.val.count());
  float best = 0.0f;
  for (const bool use_adam : {false, true}) {
    const std::uint64_t s = seed + (use_adam ? 100 : 0);
    pc::Prng wprng(s), bprng(s + 1);
    core::FinetuneConfig cfg;
    cfg.steps = steps;
    cfg.batch_size = 12;
    cfg.use_adam = use_adam;
    cfg.lr = use_adam ? 0.004f : 0.02f;
    auto graph = core::finetune(arch, wprng, [&]() {
      auto [x, y] = dataset.train.sample_batch(bprng, cfg.batch_size);
      return core::Batch{std::move(x), std::move(y)};
    }, cfg);
    best = std::max(best, core::evaluate_accuracy(*graph, vx, vy));
  }
  return best;
}

/// CIFAR-shape 2PC latency (ms) of a choice assignment.
inline double cifar_latency_ms(nn::Backbone backbone, const nn::ArchChoices& choices) {
  auto lut = make_lut();
  const auto md = nn::apply_choices(cifar_backbone(backbone), choices);
  return perf::profile_network(md, lut).latency_ms();
}

/// Folds a run's obs::Tracer totals into the bench's counter row, so the
/// --json report carries the protocol shape next to the wall time: rounds
/// and accounted wire bytes per iteration, the accumulated socket-wait
/// microseconds, and the chunk-latency percentiles from the log-bucketed
/// histogram.  Attach the tracer (e.g. Workload::set_tracer) before the
/// timed loop and call this after it.
inline void report_tracer_counters(benchmark::State& state, const obs::Tracer& tracer) {
  const obs::CounterSnapshot cs = tracer.snapshot();
  const double per_iter =
      state.iterations() > 0 ? static_cast<double>(state.iterations()) : 1.0;
  state.counters["rounds_per_iter"] =
      static_cast<double>(cs[obs::Counter::rounds]) / per_iter;
  state.counters["wire_B_per_iter"] = static_cast<double>(cs.total_bytes()) / per_iter;
  state.counters["recv_wait_us_per_iter"] =
      static_cast<double>(cs[obs::Counter::recv_wait_us]) / per_iter;
  state.counters["send_wait_us_per_iter"] =
      static_cast<double>(cs[obs::Counter::send_wait_us]) / per_iter;
  const obs::Histogram h = tracer.histogram(obs::Sample::chunk_us);
  if (h.count() > 0) {
    state.counters["chunk_us_p50"] = static_cast<double>(h.percentile(0.5));
    state.counters["chunk_us_p99"] = static_cast<double>(h.percentile(0.99));
  }
}

inline const nn::Backbone kAllBackbones[] = {
    nn::Backbone::vgg16, nn::Backbone::mobilenet_v2, nn::Backbone::resnet18,
    nn::Backbone::resnet34, nn::Backbone::resnet50,
};

// -- machine-readable output (--json=PATH) ----------------------------------

/// Removes every `--json=PATH` argument from argv (compacting in place and
/// decrementing argc) and returns the last PATH seen ("" if absent), so the
/// remaining argv can go straight to benchmark::Initialize.
inline std::string take_json_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strncmp(argv[r], "--json=", 7) == 0) {
      path = argv[r] + 7;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

/// Drop-in BENCHMARK_MAIN() body with `--json=PATH` support: the flag is
/// translated into google-benchmark's own
/// `--benchmark_out=PATH --benchmark_out_format=json` pair, so the emitted
/// file is the standard google-benchmark JSON schema.
inline int run_benchmarks_with_json_flag(int argc, char** argv) {
  const std::string path = take_json_flag(argc, argv);
  std::vector<std::string> storage(argv, argv + argc);
  if (!path.empty()) {
    storage.push_back("--benchmark_out=" + path);
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Append-only JSON document builder for the benches' hand-rolled tables
/// (the figures that are printed, not timed): one top-level object of named
/// row arrays, each row a flat object of string/number fields.  Emits
/// nothing the tables don't already print — it is the same data, parseable.
class JsonReport {
 public:
  void begin_section(const char* name) {
    body_ += sections_++ > 0 ? ",\n  \"" : "  \"";
    body_ += name;
    body_ += "\": [";
    rows_ = 0;
  }
  void end_section() { body_ += rows_ > 0 ? "\n  ]" : "]"; }

  void begin_row() {
    body_ += rows_++ > 0 ? ",\n    {" : "\n    {";
    fields_ = 0;
  }
  void end_row() { body_ += "}"; }

  void field(const char* key, const char* v) { field_raw(key, quote(v)); }
  void field(const char* key, const std::string& v) { field_raw(key, quote(v)); }
  template <typename T, typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  void field(const char* key, T v) {
    char buf[40];
    if constexpr (std::is_integral_v<T>) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
    }
    field_raw(key, buf);
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("JsonReport: cannot open " + path);
    out << "{\n" << body_ << "\n}\n";
    if (!out) throw std::runtime_error("JsonReport: write to " + path + " failed");
  }

 private:
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return q;
  }
  void field_raw(const char* key, const std::string& value) {
    body_ += fields_++ > 0 ? ", \"" : "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
  }

  std::string body_;
  int sections_ = 0;
  int rows_ = 0;
  int fields_ = 0;
};

}  // namespace pasnet::benchutil
