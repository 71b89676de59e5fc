// Offline/online split of secure inference (paper §II-B).
//
// - bm_offline_generate: throughput of the OfflineGenerator filling a
//   TripleStore (triple ring-elements per second) as the worker-thread
//   count grows.
// - bm_serve_batch/store:0 vs store:1: the fused dealer-inline baseline
//   against the online-only phase served from a pregenerated store, at zero
//   latency (compute-bound: the online phase drops all triple-generation
//   work) and at simulated LAN/WAN wire latency.  The store path reports
//   online_KB_per_query — the query-dependent traffic left after weight
//   openings amortize.
// - bm_offline_online_smoke: a 2-query end-to-end pass (generate → serve →
//   verify bit-identical logits against the fused path), run in CI.
//
//   build/bench/bench_offline_online

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace nn = pasnet::nn;
namespace off = pasnet::offline;
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

/// range(0) = generator threads.
void bm_offline_generate(benchmark::State& state) {
  auto& f = Fixture::instance();
  const int threads = static_cast<int>(state.range(0));
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  proto::Workload wl(snet);  // compiles the plan outside the timed region

  off::GenerationReport rep;
  for (auto _ : state) {
    const off::TripleStore store = wl.preprocess(kBatch, threads, &rep);
    benchmark::DoNotOptimize(store.num_queries());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rep.ring_material_elems));
  state.counters["triple_elems_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rep.ring_material_elems),
      benchmark::Counter::kIsRate);
  state.counters["store_MB"] = static_cast<double>(rep.store_bytes) / (1024.0 * 1024.0);
}

/// range(0) = store-backed (1) or fused dealer path (0), range(1) = worker
/// pairs, range(2) = modeled half-RTT per round in usec.
void bm_serve_batch(benchmark::State& state) {
  auto& f = Fixture::instance();
  const bool store_backed = state.range(0) != 0;
  const int workers = static_cast<int>(state.range(1));
  const auto delay = std::chrono::microseconds(state.range(2));
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, delay);
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);

  proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, workers});
  pasnet::obs::Tracer tracer(true);
  wl.set_tracer(&tracer);
  std::uint64_t per_query_bytes = 0, online_bytes = 0;
  for (auto _ : state) {
    off::TripleStore store;
    if (store_backed) {
      state.PauseTiming();  // the offline phase happens ahead of serving
      store = wl.preprocess(kBatch, 4);
      wl.use_store(&store);
      state.ResumeTiming();
    }
    const auto out = wl.run(f.queries);
    benchmark::DoNotOptimize(out.logits.front()[0]);
    if (store_backed) {
      state.PauseTiming();
      wl.use_store(nullptr);
      state.ResumeTiming();
    }
    per_query_bytes = wl.stats().comm_bytes / kBatch;
    online_bytes = wl.stats().online_bytes() / kBatch;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch), benchmark::Counter::kIsRate);
  state.counters["comm_KB_per_query"] = static_cast<double>(per_query_bytes) / 1024.0;
  state.counters["online_KB_per_query"] = static_cast<double>(online_bytes) / 1024.0;
  pasnet::benchutil::report_tracer_counters(state, tracer);
}

/// End-to-end smoke pass for CI: tiny model, 2 queries, generate → save →
/// load → serve, and the logits must be bit-identical to the fused path.
void bm_offline_online_smoke(benchmark::State& state) {
  auto& f = Fixture::instance();
  const std::vector<nn::Tensor> queries(f.queries.begin(), f.queries.begin() + 2);
  for (auto _ : state) {
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
    const auto fused = proto::Workload(snet).run(queries).logits;

    proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/2});
    off::GenerationReport rep;
    const off::TripleStore produced = wl.preprocess(queries.size(), 2, &rep);
    std::stringstream wire;  // exercise the producer->server file format
    produced.save(wire);
    off::TripleStore store = off::TripleStore::load(wire);
    wl.use_store(&store);
    const auto online = wl.run(queries).logits;

    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (std::size_t i = 0; i < fused[q].size(); ++i) {
        if (fused[q][i] != online[q][i]) {
          std::fprintf(stderr,
                       "FATAL: store-backed logits diverge from the dealer path "
                       "(query %zu, element %zu)\n",
                       q, i);
          std::exit(1);
        }
      }
    }
    state.counters["offline_MB"] = static_cast<double>(rep.store_bytes) / (1024.0 * 1024.0);
    state.counters["online_KB_per_query"] =
        static_cast<double>(wl.stats().online_bytes() / queries.size()) / 1024.0;
  }
}

}  // namespace

BENCHMARK(bm_offline_generate)->ArgNames({"threads"})->Arg(1)->Arg(2)->Arg(4);

BENCHMARK(bm_serve_batch)
    ->ArgNames({"store", "workers", "rtt_us"})
    // Compute-bound: the online phase drops all triple-generation work.
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({0, 4, 0})
    ->Args({1, 4, 0})
    // LAN (50us half-RTT per round flip).
    ->Args({0, 4, 50})
    ->Args({1, 4, 50})
    // WAN (2ms half-RTT per round flip): latency-dominated; the offline
    // split still shaves the serial generation compute off each query.
    ->Args({0, 4, 2000})
    ->Args({1, 4, 2000})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(bm_offline_online_smoke)->Iterations(1);

BENCHMARK_MAIN();
