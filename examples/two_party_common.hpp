#pragma once
// Shared plumbing of the two-process deployment examples: party_server
// (party 1, listens, serves the model) and party_client (party 0, dials,
// owns the inputs) — plus the pasnet_dealer daemon they can draw offline
// material from.
//
// Both party binaries build the same deterministically trained model from
// --seed, compile it with the same pass pipeline, and cross-check the
// resulting plan fingerprint in-session (PartySession::verify_plan), so a
// drifted binary fails loudly instead of silently diverging.  The client
// generates the query inputs and ships only party 1's input-share halves;
// --verify recomputes each query with the in-process engine and demands
// bit-identical outputs and equal TrafficStats — the acceptance bar of
// the transport subsystem.  Under --triples=ot-ext the triple halves come
// from each party's own private entropy, so --verify relaxes the VALUE
// check to the fixed-point truncation tolerance (the transcript-shape
// checks — bytes, rounds, messages — stay exact).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "example_flags.hpp"
#include "net/party_session.hpp"
#include "obs/expose.hpp"
#include "obs/tracer.hpp"
#include "offline/ot_triple_source.hpp"
#include "obs/witness.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace pasnet::examples {

/// The --model values: the TinyCNN variants and the scaled backbone
/// proxies of the test fixtures.
constexpr const char* kModelNames =
    "tiny_relu, tiny_relu_avg, tiny_x2, tiny_x2_max, proxy_resnet_relu, proxy_resnet_x2, "
    "proxy_mobilenet";

/// The reference model zoo of the examples (the test fixtures).
inline nn::ModelDescriptor model_by_name(const std::string& name) {
  if (name == "tiny_relu") return testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  if (name == "tiny_relu_avg") return testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool);
  if (name == "tiny_x2") return testing::tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  if (name == "tiny_x2_max") return testing::tiny_cnn(nn::OpKind::x2act, nn::OpKind::maxpool);
  if (name == "proxy_resnet_relu") {
    return testing::proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool);
  }
  if (name == "proxy_resnet_x2") {
    return testing::proxy_resnet(nn::ActKind::x2act, nn::PoolKind::avgpool);
  }
  if (name == "proxy_mobilenet") return testing::proxy_mobilenet();
  std::fprintf(stderr, "unknown --model '%s' (%s)\n", name.c_str(), kModelNames);
  std::exit(2);
}

/// Deterministic query input: both --verify and the remote run derive the
/// same tensor from (seed, q) on the client.
inline nn::Tensor query_input(const nn::ModelDescriptor& md, long long seed, std::size_t q) {
  crypto::Prng prng(static_cast<std::uint64_t>(seed) + 1000 + q);
  return nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, prng, 0.5f);
}

/// The deterministically trained example network, identical in both party
/// processes (and in --verify's in-process reference).
struct CompiledExample {
  nn::ModelDescriptor md;
  std::unique_ptr<crypto::TwoPartyContext> ctx;  // in-process (compile + verify)
  std::unique_ptr<proto::SecureNetwork> snet;

  CompiledExample(const std::string& model, long long seed) : md(model_by_name(model)) {
    crypto::Prng wprng(static_cast<std::uint64_t>(seed));
    std::vector<int> node_of_layer;
    auto g = nn::build_graph(md, wprng, &node_of_layer);
    testing::warm_up(*g, md.input_ch, md.input_h, static_cast<std::uint64_t>(seed) + 1);
    ctx = std::make_unique<crypto::TwoPartyContext>();
    snet = std::make_unique<proto::SecureNetwork>(md, *g, node_of_layer, *ctx);
  }
};

/// The whole party process: compile, connect, serve/run --queries queries.
/// Returns the process exit code (nonzero when --verify finds any drift).
inline int run_party(int party, int argc, char** argv) {
  FlagSet flags(party == 0
                    ? "party_client — party 0 of a two-process secure inference deployment: "
                      "owns the query inputs, dials party_server, learns the logits/labels"
                    : "party_server — party 1 of a two-process secure inference deployment: "
                      "serves the model side of every query over TCP");
  flags.define_string("model", "tiny_relu",
                      std::string("reference model (") + kModelNames +
                          "); under --triples=ot-ext a proxy's offline frames still exceed "
                          "the transport's max_frame_bytes (ROADMAP item 7)");
  flags.define_int("seed", 300, "deterministic training seed (must match on both parties)");
  flags.define_int("queries", 2, "queries to run (must match on both parties)");
  flags.define_int("batch", 1,
                   "lanes per chunk: run the queries K at a time inside ONE remote context, "
                   "sharing every comparison round (must match on both parties)");
  flags.define_int("port", 7747, "party-channel TCP port");
  flags.define_string("host", "127.0.0.1", "party_server host (client only)");
  flags.define_string("bind", "127.0.0.1",
                      "listen address (server only; 0.0.0.0 accepts cross-machine peers)");
  flags.define_string("triples", "dealer",
                      "who produces the correlated randomness: 'dealer' trusts a third party "
                      "(--source picks fused/store/dealer-daemon delivery), 'ot-ext' makes the "
                      "two parties generate their own triples in-session over IKNP OT "
                      "extension — no dealer daemon, each party's triple halves drawn from "
                      "its own private entropy");
  flags.define_string("source", "fused",
                      "dealer-trust delivery path (fused, store, dealer); ignored under "
                      "--triples=ot-ext");
  flags.define_string("store", "", "TripleStore file (--source=store, or --preprocess output)");
  flags.define_string("dealer-host", "127.0.0.1", "pasnet_dealer host (--source=dealer)");
  flags.define_int("dealer-port", 7748, "pasnet_dealer port (--source=dealer)");
  flags.define_switch("label-only", "run the argmax-terminated classify program");
  flags.define_switch("verify",
                      "recompute every query in-process and require bit-identical outputs "
                      "and equal TrafficStats (exit 1 on drift); under --triples=ot-ext the "
                      "output check uses the truncation tolerance instead of bit-identity");
  flags.define_int("preprocess", 0,
                   "instead of serving: pregenerate N query bundles into --store and exit");
  flags.define_int("timeout-ms", 30000, "socket connect/io timeout");
  flags.define_string("trace", "",
                      "write this party's protocol timeline (Chrome trace event JSON, loads "
                      "in Perfetto) to this path; every chunk's measured traffic is also "
                      "cross-checked against the analytic cost model (exit 1 on mismatch)");
  flags.define_int("metrics-port", 0,
                   "serve live /metrics (Prometheus text) and /healthz (JSON) on this port "
                   "while the party runs (0 = off); with --verify the scraped totals must "
                   "equal the tracer's, the summed chunk measurements and the analytic "
                   "model's");
  flags.define_string("metrics-bind", "127.0.0.1",
                      "metrics listen address (loopback by default: the endpoints expose "
                      "unauthenticated operational metadata)");
  flags.define_int("metrics-linger-ms", 0,
                   "keep the metrics endpoints up this long after the last query finishes "
                   "(lets an external scraper collect the final totals)");
  flags.parse(argc, argv);

  const long long seed = flags.get_int("seed");
  CompiledExample ex(flags.get_string("model"), seed);
  const bool label_only = flags.get_switch("label-only");
  const int batch = flags.get_int("batch") > 0 ? static_cast<int>(flags.get_int("batch")) : 1;
  // The workload is the single source of program + plan + preprocess for
  // this (model, kind, K) triple — the same object an in-process deployment
  // would serve from.
  proto::WorkloadOptions wopts;
  wopts.kind = label_only ? proto::WorkloadKind::classify : proto::WorkloadKind::logits;
  wopts.batch = batch;
  proto::Workload workload(*ex.snet, wopts);
  const ir::SecureProgram& program = workload.program();
  const offline::PreprocessingPlan& plan = workload.plan();

  if (flags.get_int("preprocess") > 0) {
    const std::string path = flags.get_string("store");
    if (path.empty()) {
      std::fprintf(stderr, "--preprocess needs --store=<output path>\n");
      return 2;
    }
    const auto n = static_cast<std::size_t>(flags.get_int("preprocess"));
    const offline::TripleStore store = workload.preprocess(n);
    store.save(path);
    std::printf("wrote %zu %s bundles (%llu bytes) to %s [fingerprint %016llx]\n", n,
                label_only ? "classify" : "logits",
                static_cast<unsigned long long>(store.material_bytes()), path.c_str(),
                static_cast<unsigned long long>(store.plan_fingerprint()));
    return 0;
  }

  net::TransportOptions topts;
  topts.connect_timeout = std::chrono::milliseconds(flags.get_int("timeout-ms"));
  topts.io_timeout = std::chrono::milliseconds(flags.get_int("timeout-ms"));

  // Connect the party channel: party 1 listens, party 0 dials.
  std::unique_ptr<net::TransportChannel> chan;
  std::unique_ptr<net::Listener> listener;
  if (party == 1) {
    listener = std::make_unique<net::Listener>(static_cast<std::uint16_t>(flags.get_int("port")),
                                               flags.get_string("bind"));
    std::printf("party 1 listening on %s:%u\n", flags.get_string("bind").c_str(),
                listener->port());
    std::fflush(stdout);
    chan = net::serve_party_channel(*listener, 1, topts);
  } else {
    chan = net::dial_party_channel(flags.get_string("host"),
                                   static_cast<std::uint16_t>(flags.get_int("port")), 0, topts);
  }
  net::PartySession session(party, *chan, crypto::RingConfig{});
  // Observability: one tracer for the whole session, live whenever --trace
  // or --metrics-port asks for it; each chunk merges its per-chunk records
  // in, and under --trace each chunk's measured traffic is checked against
  // the analytic cost model before anything is written out.
  const std::string trace_path = flags.get_string("trace");
  const bool tracing = !trace_path.empty();
  const long long metrics_port_flag = flags.get_int("metrics-port");
  const bool metrics = metrics_port_flag != 0;
  obs::Tracer tracer(tracing || metrics);
  if (tracer.enabled()) session.set_tracer(&tracer);
  // The party-channel handshake minted (party 0) or adopted (party 1) the
  // run's trace id and estimated this process's trace-clock offset against
  // the reference clock.  Stamp both into the tracer, and present them
  // when dialing the dealer so the daemon's trace correlates and aligns
  // without any shared configuration.
  tracer.set_trace_id(chan->session_trace_id());
  tracer.set_clock_offset_us(chan->session_clock_offset_us());
  topts.trace_id = chan->session_trace_id();
  topts.local_clock_offset_us = chan->session_clock_offset_us();
  session.verify_plan(plan);

  // Correlated-randomness source.
  net::RemoteSessionOptions ropts;
  offline::TripleStore store;
  std::unique_ptr<net::DealerClient> dealer;
  const std::string triples = flags.get_string("triples");
  const bool ot_ext = triples == "ot-ext";
  if (!ot_ext && triples != "dealer") {
    std::fprintf(stderr, "unknown --triples '%s' (dealer, ot-ext)\n", triples.c_str());
    return 2;
  }
  const std::string source = flags.get_string("source");
  if (ot_ext) {
    ropts.source = net::TripleSourceKind::ot_ext;
    ropts.plan = &plan;
    std::printf("triples: in-session IKNP OT extension (no dealer trust, "
                "role-private randomness)\n");
  } else if (source == "store") {
    ropts.source = net::TripleSourceKind::store;
    store = offline::TripleStore::load(flags.get_string("store"));
    if (store.plan_fingerprint() != plan.fingerprint()) {
      std::fprintf(stderr, "store fingerprint does not match the compiled plan\n");
      return 2;
    }
    ropts.store = &store;
  } else if (source == "dealer") {
    ropts.source = net::TripleSourceKind::dealer;
    dealer = std::make_unique<net::DealerClient>(
        flags.get_string("dealer-host"), static_cast<std::uint16_t>(flags.get_int("dealer-port")),
        party, plan.fingerprint(), topts);
    std::printf("dealer serves %llu pregenerated queries\n",
                static_cast<unsigned long long>(dealer->info().num_queries));
    ropts.dealer = dealer.get();
  } else if (source != "fused") {
    std::fprintf(stderr, "unknown --source '%s' (fused, store, dealer)\n", source.c_str());
    return 2;
  }

  const auto queries = static_cast<std::size_t>(flags.get_int("queries"));
  const auto lanes_per_chunk = static_cast<std::size_t>(batch);

  // Live exposition endpoints: /metrics + /healthz served from one
  // hardened thread while the queries run.  The health atomics below are
  // written by the serving loop and polled per scrape.
  std::atomic<std::uint64_t> chunks_done{0};
  std::atomic<std::uint64_t> claims_done{0};
  std::atomic<int> last_witness{-1};
  const std::uint64_t claim_capacity =
      ropts.source == net::TripleSourceKind::store    ? store.num_queries()
      : ropts.source == net::TripleSourceKind::dealer ? dealer->info().num_queries
                                                      : 0;
  std::unique_ptr<obs::ExpositionServer> metrics_server;
  if (metrics) {
    obs::ExpositionServer::Options mopts;
    mopts.bind_addr = flags.get_string("metrics-bind");
    mopts.port = static_cast<std::uint16_t>(metrics_port_flag);
    mopts.job = "party";
    mopts.instance = party == 0 ? "party0" : "party1";
    metrics_server = std::make_unique<obs::ExpositionServer>(
        tracer, mopts, [&chunks_done, &claims_done, &last_witness, claim_capacity] {
          obs::HealthFields hf;
          hf.sessions_served = chunks_done.load(std::memory_order_relaxed);
          hf.witness = last_witness.load(std::memory_order_relaxed);
          hf.store_total = claim_capacity;
          hf.store_claimed = claims_done.load(std::memory_order_relaxed);
          return hf;
        });
    metrics_server->start();
    std::printf("party %d: serving /metrics and /healthz on %s:%u\n", party,
                mopts.bind_addr.c_str(), metrics_server->port());
    std::fflush(stdout);
  }

  // Run-level accumulators: whole-run totals of the per-chunk measurements
  // and the analytic model (ot-ext offline windows included — the session
  // tracer absorbs those too), compared after the last chunk against the
  // tracer counters AND a real scrape of our own /metrics endpoint.
  std::uint64_t meter_rounds = 0, meter_bytes = 0;
  std::uint64_t analytic_rounds = 0, analytic_bytes = 0;

  // --verify reference: an in-process workload with the SAME batch width
  // walks the same chunk layout and canonical lane seeds, so its outputs
  // and per-chunk stats are exactly what the remote session must produce.
  proto::WorkloadResult ref;
  std::vector<proto::ChunkStats> ref_chunks;
  if (flags.get_switch("verify")) {
    std::vector<nn::Tensor> all_inputs;
    all_inputs.reserve(queries);
    for (std::size_t q = 0; q < queries; ++q) all_inputs.push_back(query_input(ex.md, seed, q));
    ref = workload.run(all_inputs);
    ref_chunks = workload.chunk_stats();
  }

  int drift = 0;
  std::size_t chunk = 0;
  for (std::size_t q0 = 0; q0 < queries; q0 += lanes_per_chunk, ++chunk) {
    const std::size_t lanes = std::min(lanes_per_chunk, queries - q0);
    std::vector<nn::Tensor> inputs;
    inputs.reserve(lanes);
    for (std::size_t j = 0; j < lanes; ++j) inputs.push_back(query_input(ex.md, seed, q0 + j));
    crypto::TrafficStats stats;
    crypto::TrafficStats offline_stats;
    if (ot_ext) ropts.offline_stats_out = &offline_stats;
    const ir::BatchExecResult res =
        session.run_batch(program, ex.snet->params(), q0, party == 0 ? &inputs : nullptr,
                          lanes, ropts, &stats);
    if (ot_ext) {
      // Offline witness: the OT-extension generation runs in its own
      // metered window, and its measured traffic must EXACTLY equal the
      // analytic offline cost model — the offline analog of the online
      // check.
      const offline::OtExtCost ocost = offline::ot_ext_generation_cost(plan, lanes);
      std::printf("chunk %zu offline (ot-ext): %llu bytes, %llu rounds, %llu base OTs, "
                  "%llu ext COTs\n",
                  chunk, static_cast<unsigned long long>(offline_stats.total_bytes()),
                  static_cast<unsigned long long>(offline_stats.rounds),
                  static_cast<unsigned long long>(ocost.base_ots),
                  static_cast<unsigned long long>(ocost.ext_cots));
      if (offline_stats.total_bytes() != ocost.total_bytes() ||
          offline_stats.rounds != ocost.rounds || offline_stats.messages != ocost.messages) {
        std::fprintf(stderr,
                     "chunk %zu: offline witness drift (measured %llu B / %llu rds vs "
                     "analytic %llu B / %llu rds)\n",
                     chunk, static_cast<unsigned long long>(offline_stats.total_bytes()),
                     static_cast<unsigned long long>(offline_stats.rounds),
                     static_cast<unsigned long long>(ocost.total_bytes()),
                     static_cast<unsigned long long>(ocost.rounds));
        drift = 1;
      }
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t q = q0 + j;
      if (label_only) {
        std::printf("query %zu: label %d\n", q,
                    res.labels[j].empty() ? -1 : res.labels[j][0]);
      } else {
        std::printf("query %zu: logits [", q);
        for (std::size_t i = 0; i < res.logits[j].size(); ++i) {
          std::printf("%s%.6f", i > 0 ? ", " : "", static_cast<double>(res.logits[j][i]));
        }
        std::printf("]\n");
      }
    }
    std::printf("chunk %zu (%zu lane%s): %llu bytes, %llu rounds, %llu messages\n", chunk,
                lanes, lanes == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.total_bytes()),
                static_cast<unsigned long long>(stats.rounds),
                static_cast<unsigned long long>(stats.messages));
    std::fflush(stdout);

    if (tracing || metrics) {
      const perf::LatencyModel lat(perf::HardwareConfig::zcu104(),
                                   perf::NetworkConfig::lan_1gbps());
      const perf::ProgramCost cost =
          perf::profile_program(lat, program, crypto::RingConfig{}.bits,
                                crypto::RingConfig{}.wire_bits, static_cast<int>(lanes));
      meter_rounds += stats.rounds;
      meter_bytes += stats.total_bytes();
      analytic_rounds += static_cast<std::uint64_t>(cost.total.rounds);
      analytic_bytes += cost.wire_bytes;
      if (ot_ext) {
        const offline::OtExtCost ocost = offline::ot_ext_generation_cost(plan, lanes);
        meter_rounds += offline_stats.rounds;
        meter_bytes += offline_stats.total_bytes();
        analytic_rounds += ocost.rounds;
        analytic_bytes += ocost.total_bytes();
      }
      if (tracing) {
        // Per-chunk witness: the measured traffic and the static cost model
        // must agree on this chunk's rounds and wire bytes exactly.
        const obs::WitnessReport report = obs::check_witness(
            stats, static_cast<std::uint64_t>(cost.total.rounds), cost.wire_bytes);
        std::printf("chunk %zu: %s\n", chunk, report.describe().c_str());
        last_witness.store(report.ok() ? 1 : 0, std::memory_order_relaxed);
        if (!report.ok()) drift = 1;
      }
    }
    chunks_done.fetch_add(1, std::memory_order_relaxed);
    if (claim_capacity > 0) claims_done.fetch_add(lanes, std::memory_order_relaxed);

    if (flags.get_switch("verify")) {
      // The in-process workload must agree bit for bit — same logits/labels
      // lane by lane, same chunk bytes, same chunk rounds.  Every dealer-
      // trust serving mode reproduces the canonical per-position
      // transcripts, so one reference covers fused, store and networked-
      // dealer sourcing.  ot-ext triples are role-private entropy, so its
      // value check allows the SecureML truncation's share-split noise
      // (the chunk TrafficStats comparison below stays exact: message
      // sizes depend on plan geometry, not triple values).
      const float tol = ot_ext ? 0.05f : 0.0f;
      bool ok = true;
      for (std::size_t j = 0; ok && j < lanes; ++j) {
        if (label_only) {
          ok = res.labels[j] == ref.labels[q0 + j];
        } else {
          ok = res.logits[j].size() == ref.logits[q0 + j].size();
          for (std::size_t i = 0; ok && i < res.logits[j].size(); ++i) {
            ok = std::fabs(res.logits[j][i] - ref.logits[q0 + j][i]) <= tol;
          }
        }
        if (!ok) {
          std::fprintf(stderr, "query %zu: two-process result drifts from the in-process "
                       "workload\n", q0 + j);
        }
      }
      const crypto::TrafficStats rc = crypto::TrafficStats::of(ref_chunks[chunk].counters);
      if (stats.total_bytes() != rc.total_bytes() || stats.rounds != rc.rounds ||
          stats.messages != rc.messages) {
        std::fprintf(stderr,
                     "chunk %zu: TrafficStats drift (tcp %llu B / %llu rds vs in-process "
                     "%llu B / %llu rds)\n",
                     chunk, static_cast<unsigned long long>(stats.total_bytes()),
                     static_cast<unsigned long long>(stats.rounds),
                     static_cast<unsigned long long>(rc.total_bytes()),
                     static_cast<unsigned long long>(rc.rounds));
        ok = false;
      }
      if (!ok) {
        drift = 1;
      } else if (ot_ext) {
        std::printf("chunk %zu: verified within truncation tolerance, TrafficStats "
                    "bit-equal to the in-process workload\n", chunk);
      } else {
        std::printf("chunk %zu: verified bit-identical to the in-process workload\n", chunk);
      }
    }
  }
  if (drift == 0 && flags.get_switch("verify")) {
    if (ot_ext) {
      std::printf("all %zu queries verified: outputs within truncation tolerance "
                  "(role-private triples), chunk TrafficStats equal\n", queries);
    } else {
      std::printf("all %zu queries verified: outputs bit-identical, chunk TrafficStats "
                  "equal\n", queries);
    }
  }
  // Hang up on the dealer daemon BEFORE the trace/metrics epilogue: the
  // daemon only writes its own trace and opens its linger window once its
  // last session closes, so holding this connection through our linger
  // would serialize the fleet's shutdown.
  dealer.reset();
  if (tracing) {
    tracer.write_chrome_trace_file(trace_path, /*pid=*/party,
                                   party == 0 ? "party0" : "party1");
    std::printf("wrote %zu trace spans to %s\n", tracer.event_count(), trace_path.c_str());
  }
  if (metrics) {
    if (flags.get_switch("verify")) {
      // Run-level witness: scrape our own /metrics endpoint over a real
      // HTTP GET and require the exported round/byte totals to equal the
      // tracer counters, the summed per-chunk measurements and the analytic
      // model — whole-run totals, ot-ext offline windows included.
      const obs::CounterSnapshot totals = tracer.snapshot();
      const std::uint64_t trace_rounds = totals[obs::Counter::rounds];
      const std::uint64_t trace_bytes = totals.total_bytes();
      std::uint64_t scraped_rounds = 0, scraped_bytes = 0;
      bool scraped = false;
      const std::string bind = flags.get_string("metrics-bind");
      const std::string scrape_host = bind == "0.0.0.0" ? "127.0.0.1" : bind;
      try {
        const std::string body = obs::http_get(scrape_host, metrics_server->port(), "/metrics",
                                               std::chrono::milliseconds(2000));
        const auto r = obs::prom_value(body, "pasnet_rounds_total");
        const auto b01 = obs::prom_value(body, "pasnet_bytes_p0_to_p1_total");
        const auto b10 = obs::prom_value(body, "pasnet_bytes_p1_to_p0_total");
        if (r.has_value() && b01.has_value() && b10.has_value()) {
          scraped_rounds = static_cast<std::uint64_t>(*r);
          scraped_bytes = static_cast<std::uint64_t>(*b01) + static_cast<std::uint64_t>(*b10);
          scraped = true;
        } else {
          std::fprintf(stderr, "metrics self-scrape: round/byte families missing\n");
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "metrics self-scrape failed: %s\n", e.what());
      }
      const bool run_ok = scraped && scraped_rounds == trace_rounds &&
                          scraped_bytes == trace_bytes && trace_rounds == meter_rounds &&
                          trace_bytes == meter_bytes && meter_rounds == analytic_rounds &&
                          meter_bytes == analytic_bytes;
      std::printf("run witness: scrape %llu rds / %llu B, tracer %llu / %llu, summed chunks "
                  "%llu / %llu, analytic %llu / %llu -> %s\n",
                  static_cast<unsigned long long>(scraped_rounds),
                  static_cast<unsigned long long>(scraped_bytes),
                  static_cast<unsigned long long>(trace_rounds),
                  static_cast<unsigned long long>(trace_bytes),
                  static_cast<unsigned long long>(meter_rounds),
                  static_cast<unsigned long long>(meter_bytes),
                  static_cast<unsigned long long>(analytic_rounds),
                  static_cast<unsigned long long>(analytic_bytes),
                  run_ok ? "all equal" : "MISMATCH");
      last_witness.store(run_ok ? 1 : 0, std::memory_order_relaxed);
      if (!run_ok) drift = 1;
    }
    std::fflush(stdout);
    const long long linger = flags.get_int("metrics-linger-ms");
    if (linger > 0) std::this_thread::sleep_for(std::chrono::milliseconds(linger));
    metrics_server->stop();
  }
  return drift;
}

}  // namespace pasnet::examples
