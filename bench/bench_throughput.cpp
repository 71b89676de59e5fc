// Throughput of batched secure inference: queries/sec of a
// proto::Workload as the worker-pair count grows and as the
// single-context lane width K grows, with and without modeled wire
// latency.
//
// With round_delay = 0 the protocol is pure compute and scaling tracks the
// core count.  With a modeled per-round wire latency (LAN 50us / WAN 2ms,
// matching perf::NetworkConfig), each query spends most of its wall time
// waiting on the network.  Worker pairs overlap those waits across
// contexts; single-context K-lane batching goes further and DELETES them —
// the chunk pays the comparison rounds of one query, so rounds/query drops
// by K.
//
//   build/bench/bench_throughput [--json=PATH]
//
// --json=PATH writes the run as google-benchmark JSON (the standard
// --benchmark_out schema) so the throughput trajectory is machine-readable.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

namespace {

constexpr int kBatch = 8;

/// The shared tiny all-polynomial CNN, trained once for every repetition.
struct Fixture {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
  std::vector<nn::Tensor> queries;

  Fixture() : md(pasnet::testing::tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool)) {
    pc::Prng wprng(71);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*graph, 2, 8, 72);

    pc::Prng qprng(73);
    for (int q = 0; q < kBatch; ++q) {
      queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, qprng, 1.0f));
    }
  }

  static Fixture& instance() {
    static Fixture f;
    return f;
  }
};

/// range(0) = worker pairs, range(1) = modeled half-RTT per round in usec.
void bm_infer_batch(benchmark::State& state) {
  auto& f = Fixture::instance();
  const int workers = static_cast<int>(state.range(0));
  const auto delay = std::chrono::microseconds(state.range(1));
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, delay);
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);

  proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, workers});
  pasnet::obs::Tracer tracer(true);
  wl.set_tracer(&tracer);
  std::uint64_t per_query_bytes = 0;
  for (auto _ : state) {
    const auto out = wl.run(f.queries);
    benchmark::DoNotOptimize(out.logits.front()[0]);
    per_query_bytes = wl.chunk_stats().front().counters.total_bytes();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kBatch),
                         benchmark::Counter::kIsRate);
  // Per-query traffic must not depend on the worker count.
  state.counters["comm_B_per_query"] = static_cast<double>(per_query_bytes);
  pasnet::benchutil::report_tracer_counters(state, tracer);
}

BENCHMARK(bm_infer_batch)
    ->ArgNames({"workers", "rtt_us"})
    // Pure compute: scales with physical cores.
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    // LAN (50us half-RTT per round, perf::NetworkConfig::lan_1gbps).
    ->Args({1, 50})
    ->Args({2, 50})
    ->Args({4, 50})
    // WAN (2ms half-RTT per round, perf::NetworkConfig::wan_100mbps):
    // latency-dominated, so worker pairs overlap waits even on one core.
    ->Args({1, 2000})
    ->Args({2, 2000})
    ->Args({4, 2000})
    ->Args({8, 2000})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// range(0) = K (lanes per single-context chunk), range(1) = modeled
/// half-RTT per round in usec.  One chunk of K queries per iteration: the
/// lanes advance every round group in lockstep, so the chunk pays the
/// rounds of ONE query and the modeled wire latency amortizes K ways.
void bm_single_context_batch(benchmark::State& state) {
  auto& f = Fixture::instance();
  const int k = static_cast<int>(state.range(0));
  const auto delay = std::chrono::microseconds(state.range(1));
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, delay);
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  std::vector<nn::Tensor> queries;
  queries.reserve(static_cast<std::size_t>(k));
  pc::Prng qprng(75);
  for (int q = 0; q < k; ++q) {
    queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, qprng, 1.0f));
  }

  proto::Workload wl(snet, {proto::WorkloadKind::logits, k, /*worker_pairs=*/1});
  pasnet::obs::Tracer tracer(true);
  wl.set_tracer(&tracer);
  std::uint64_t chunk_rounds = 0, chunk_bytes = 0;
  for (auto _ : state) {
    const auto out = wl.run(queries);
    benchmark::DoNotOptimize(out.logits.front()[0]);
    chunk_rounds = wl.chunk_stats().front().counters[pasnet::obs::Counter::rounds];
    chunk_bytes = wl.chunk_stats().front().counters.total_bytes();
  }
  state.SetItemsProcessed(state.iterations() * k);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * k), benchmark::Counter::kIsRate);
  // The chunk's rounds are shared by its K lanes: this column drops ~K-fold.
  state.counters["rounds_per_query"] =
      static_cast<double>(chunk_rounds) / static_cast<double>(k);
  state.counters["comm_B_per_query"] =
      static_cast<double>(chunk_bytes) / static_cast<double>(k);
  pasnet::benchutil::report_tracer_counters(state, tracer);
}

BENCHMARK(bm_single_context_batch)
    ->ArgNames({"K", "rtt_us"})
    // Pure compute: K amortizes per-round bookkeeping only.
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({64, 0})
    // LAN: the chunk pays one query's rounds, so wire waits drop ~K-fold.
    ->Args({1, 50})
    ->Args({4, 50})
    ->Args({16, 50})
    ->Args({64, 50})
    // WAN: latency-dominated — single-context batching is the whole game.
    ->Args({16, 2000})
    ->Args({64, 2000})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return pasnet::benchutil::run_benchmarks_with_json_flag(argc, argv);
}
