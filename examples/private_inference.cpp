// End-to-end private inference in the paper's MLaaS deployment (Fig. 3):
// the model vendor holds the trained PASNet model, the client holds the
// query; both are secret-shared between two servers that run the 2PC
// protocol stack.
//
//   build/examples/private_inference [--batch N] [--lanes K] [--workers W]
//                                    [--rtt-us U] [--preprocess]
//                                    [--offline-file PATH]
//
// Reports measured protocol traffic next to the analytic ZCU104 latency
// model, including the full-scale ImageNet projection of Table I.
//
// With --batch N the example serves N queued queries through a
// proto::Workload: --lanes K runs them K at a time inside ONE context
// (every comparison round is shared across the K lanes), --workers W
// shards the chunks over W concurrent party-pair workers, and --rtt-us U
// models U microseconds of wire latency per protocol round (default 50 =
// the paper's 1 GB/s LAN).  The report prints single-context batching
// next to the sequential baseline.
//
// With --preprocess the batch is served generate-then-online: the offline
// phase pregenerates every triple into a TripleStore (optionally saved
// to/loaded from --offline-file), and the online phase never touches the
// dealer — the deployment split of paper §II-B.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "baselines/reference_systems.hpp"
#include "core/derive.hpp"
#include "data/synthetic.hpp"
#include "example_flags.hpp"
#include "obs/tracer.hpp"
#include "perf/network_profile.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"

namespace bl = pasnet::baselines;
namespace core = pasnet::core;
namespace data = pasnet::data;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

int main(int argc, char** argv) {
  pasnet::examples::FlagSet flags(
      "private_inference — end-to-end 2PC inference in the paper's MLaaS deployment");
  flags.define_int("batch", 0, "serve N queued queries through a batched workload");
  flags.define_int("lanes", 4, "queries per single-context chunk (K); lanes share rounds");
  flags.define_int("workers", 4, "concurrent party-pair workers for --batch");
  flags.define_int("rtt-us", 50, "simulated wire latency per protocol round (us)");
  flags.define_switch("preprocess", "pregenerate triples offline; serve online from the store");
  flags.define_string("offline-file", "",
                      "triple-store path: load if present, else generate and save");
  flags.define_string("trace", "",
                      "write the whole run's protocol timeline (Chrome trace event JSON, "
                      "loads in Perfetto) to this path");
  flags.parse(argc, argv);
  const int batch = std::max(0LL, flags.get_int("batch"));
  const int lanes = std::max(1LL, flags.get_int("lanes"));
  const int workers = std::max(1LL, flags.get_int("workers"));
  const int rtt_us = std::max(0LL, flags.get_int("rtt-us"));
  const std::string offline_file = flags.get_string("offline-file");
  // A triple-store file only makes sense in preprocess mode; imply it.
  const bool preprocess = flags.get_switch("preprocess") || !offline_file.empty();
  if (preprocess && batch <= 0) {
    std::fprintf(stderr, "error: --preprocess/--offline-file require --batch N\n");
    return 2;
  }
  std::printf("== PASNet-A style private inference (ResNet-18 backbone, all-poly) ==\n\n");

  // Functional run: a scaled ResNet-18 so the whole 2PC protocol executes
  // in seconds on a CPU; the latency/comm *model* below uses full shapes.
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.size = 8;
  spec.train_count = 256;
  spec.val_count = 64;
  spec.seed = 42;
  const auto dataset = data::make_synthetic(spec);

  nn::BackboneOptions small;
  small.input_size = spec.size;
  small.num_classes = spec.num_classes;
  small.width_mult = 0.125f;
  const auto backbone = nn::make_resnet(18, small);
  perf::LatencyLut lut(perf::LatencyModel(perf::HardwareConfig::zcu104(),
                                          perf::NetworkConfig::lan_1gbps()));
  const auto arch = core::profile_choices(
      backbone, nn::uniform_choices(backbone, nn::ActKind::x2act, nn::PoolKind::avgpool),
      lut);

  pc::Prng wprng(1), bprng(2);
  core::FinetuneConfig fcfg;
  fcfg.steps = 80;
  std::vector<int> node_of_layer;
  auto graph = core::finetune(arch, wprng, [&]() {
    auto [x, y] = dataset.train.sample_batch(bprng, 16);
    return core::Batch{std::move(x), std::move(y)};
  }, fcfg, &node_of_layer);

  // One tracer spans the whole process: every workload below merges its
  // chunk timelines into it, so the exported file shows the functional run,
  // the batched sweeps and the offline phase on one clock.
  const std::string trace_path = flags.get_string("trace");
  const bool tracing = !trace_path.empty();
  obs::Tracer tracer(tracing);
  // Standalone runs have no transport handshake to mint the run id, so
  // mint one here — the exported file stays mergeable (pasnet_trace_merge
  // refuses the zero id).
  if (tracing) tracer.set_trace_id(obs::TraceId::mint());

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(arch.descriptor, *graph, node_of_layer, ctx);
  const auto [qx, qy] = dataset.val.slice(0, 1);
  proto::Workload workload(snet);
  if (tracing) workload.set_tracer(&tracer);
  const auto logits = std::move(workload.run({qx}).logits[0]);
  std::printf("functional 2PC run (scaled model, in-process simulation):\n");
  std::printf("  prediction: class %d (true label %d)\n", nn::argmax_rows(logits)[0], qy[0]);
  std::printf("  traffic:    %.1f KB total, %.1f KB query-dependent (the rest re-opens "
              "weight-shaped masks every query), %llu rounds\n",
              workload.stats().comm_bytes / 1024.0, workload.stats().online_bytes() / 1024.0,
              static_cast<unsigned long long>(workload.stats().rounds));
  std::printf("  offline:    %zu triple draws per query: %llu ring elems, %llu bit triples\n\n",
              workload.plan().requests.size(),
              static_cast<unsigned long long>(workload.plan().material_elems_per_query()),
              static_cast<unsigned long long>(workload.plan().bit_triples_per_query()));

  if (batch > 0) {
    // Batched serving mode: a queue of client queries served in K-lane
    // single-context chunks (lanes share every comparison round) and
    // sharded across concurrent party-pair workers, each round paying the
    // modeled wire latency.  A separate context carries the delay so the
    // functional run above stays fast.
    pc::TwoPartyContext batch_ctx(pc::RingConfig{}, 42, std::chrono::microseconds(rtt_us));
    proto::SecureNetwork batch_snet(arch.descriptor, *graph, node_of_layer, batch_ctx);
    std::vector<nn::Tensor> queries;
    queries.reserve(static_cast<std::size_t>(batch));
    for (int q = 0; q < batch; ++q) {
      queries.push_back(dataset.val.slice(q % dataset.val.count(), 1).first);
    }
    std::printf("batched serving (%d queries, %d us wire latency per round flip):\n", batch,
                rtt_us);
    const auto run = [&](int k, int worker_pairs) {
      proto::Workload wl(batch_snet, {proto::WorkloadKind::logits, k, worker_pairs});
      if (tracing) wl.set_tracer(&tracer);
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = wl.run(queries);
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      double rounds = 0;
      for (const auto& cs : wl.chunk_stats()) {
        rounds += static_cast<double>(cs.counters[obs::Counter::rounds]);
      }
      std::printf(
          "  K=%-3d x %d worker pair%s: %6.1f queries/sec "
          "(%.0f ms total, %.1f rounds/query, %.1f KB/query)\n",
          k, worker_pairs, worker_pairs == 1 ? " " : "s", batch / secs, secs * 1e3,
          rounds / batch, wl.stats().comm_bytes / 1024.0 / batch);
      (void)out;
      return batch / secs;
    };
    const int used_workers = std::min(workers, batch);
    const int used_lanes = std::min(lanes, batch);
    const double seq_qps = run(1, 1);
    const double par_qps = run(1, used_workers);
    const double lane_qps = run(used_lanes, 1);
    std::printf("  %d independent workers: %.2fx over sequential\n", used_workers,
                par_qps / seq_qps);
    std::printf("  single-context batching at K=%d: %.2fx over sequential "
                "(rounds shared across lanes)\n\n",
                used_lanes, lane_qps / seq_qps);

    if (preprocess) {
      // Generate-then-serve: the offline phase runs once (or is loaded from
      // disk), then the online phase serves the same batch without ever
      // calling the dealer.
      off::TripleStore store;
      bool have_store = false;
      bool loaded = false;
      if (!offline_file.empty() && std::ifstream(offline_file, std::ios::binary)) {
        try {
          store = off::TripleStore::load(offline_file);
          loaded = true;
        } catch (const std::runtime_error& e) {
          std::printf("offline phase: cannot load %s (%s); regenerating\n",
                      offline_file.c_str(), e.what());
        }
      }
      proto::Workload online_wl(batch_snet,
                                {proto::WorkloadKind::logits, used_lanes, used_workers});
      if (tracing) online_wl.set_tracer(&tracer);
      if (loaded) {
        if (store.plan_fingerprint() != online_wl.plan().fingerprint()) {
          std::printf("offline phase: %s was generated for a different model; regenerating\n",
                      offline_file.c_str());
        } else if (store.num_queries() < static_cast<std::size_t>(batch)) {
          std::printf("offline phase: %s holds only %zu bundles (< %d queries); regenerating\n",
                      offline_file.c_str(), store.num_queries(), batch);
        } else {
          have_store = true;
          std::printf("offline phase: loaded %zu query bundles from %s (%.1f MB)\n",
                      store.num_queries(), offline_file.c_str(),
                      store.material_bytes() / (1024.0 * 1024.0));
        }
      }
      if (!have_store) {
        off::GenerationReport rep;
        store = online_wl.preprocess(static_cast<std::size_t>(batch),
                                     std::max(1, used_workers), &rep);
        std::printf(
            "offline phase: %zu queries on %d threads in %.0f ms "
            "(%.1f M triple-elems/s, %.1f MB of material)\n",
            rep.queries, rep.threads, rep.seconds * 1e3, rep.elems_per_sec() / 1e6,
            rep.store_bytes / (1024.0 * 1024.0));
        if (!offline_file.empty()) {
          store.save(offline_file);
          std::printf("offline phase: saved store to %s\n", offline_file.c_str());
        }
      }

      online_wl.use_store(&store);
      const auto t0 = std::chrono::steady_clock::now();
      const auto online = online_wl.run(queries).logits;
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const auto& cs = online_wl.chunk_stats()[0];
      const auto first = proto::InferenceStats::of(cs.counters, cs.queries,
                                                   batch_snet.weight_open_bytes());
      std::printf("online phase (K=%d lanes, %d workers, dealer never touched):\n",
                  used_lanes, used_workers);
      std::printf("  %6.1f queries/sec (%.0f ms total)\n", batch / secs, secs * 1e3);
      std::printf("  first chunk (%zu lanes): %.1f KB on the wire, of which %.1f KB is "
                  "query-dependent\n",
                  cs.queries, first.comm_bytes / 1024.0, first.online_bytes() / 1024.0);
      std::printf("  sample prediction: class %d\n\n", nn::argmax_rows(online[0])[0]);
    }
  }

  // Full-scale projection: the same recipe at ImageNet shapes on the
  // paper's testbed (two ZCU104 boards, 1 GB/s LAN) — Table I, PASNet-A.
  nn::BackboneOptions full;
  full.input_size = 224;
  full.num_classes = 1000;
  full.imagenet_stem = true;
  auto imagenet = nn::make_resnet(18, full);
  imagenet = nn::apply_choices(
      imagenet, nn::uniform_choices(imagenet, nn::ActKind::x2act, nn::PoolKind::avgpool));
  const auto profile = perf::profile_network(imagenet, lut);
  const double kw = perf::HardwareConfig::zcu104().power_kw;
  std::printf("ImageNet projection (ZCU104 model, batch 1):\n");
  std::printf("  latency:    %.1f ms (paper PASNet-A: %.1f ms)\n", profile.latency_ms(),
              bl::paper_pasnet_a().imagenet_latency_s * 1e3);
  std::printf("  comm:       %.3f GB (paper: %.3f GB)\n", profile.comm_gb(),
              bl::paper_pasnet_a().imagenet_comm_gb);
  std::printf("  efficiency: %.0f 1/(s*kW) (paper: %.0f)\n", profile.efficiency(kw),
              bl::paper_pasnet_a().imagenet_efficiency);
  const auto gpu = bl::cryptgpu_resnet50();
  std::printf("  vs %s: %.0fx faster, %.0fx less traffic\n", gpu.name,
              gpu.latency_s / profile.total.total_s(), gpu.comm_gb / profile.comm_gb());

  if (tracing) {
    tracer.write_chrome_trace_file(trace_path);
    std::printf("\nwrote %zu trace spans to %s (open in https://ui.perfetto.dev)\n",
                tracer.event_count(), trace_path.c_str());
  }
  return 0;
}
