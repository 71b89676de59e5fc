// The witness invariant, end to end: one chunk's rounds and wire bytes as
// counted by the channel's counter block and as predicted by
// perf::profile_program must be EXACTLY equal — per chunk, in process and
// over a real localhost TCP session on BOTH endpoints — and the tracer,
// which folds each chunk's block once, must hold exactly those totals.
// This is the test the --trace + --verify path of the party binaries
// leans on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include "net/party_session.hpp"
#include "obs/tracer.hpp"
#include "obs/witness.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace net = pasnet::net;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

perf::LatencyModel model() {
  return perf::LatencyModel(perf::HardwareConfig::zcu104(), perf::NetworkConfig::lan_1gbps());
}

net::TransportOptions test_opts() {
  net::TransportOptions o;
  o.connect_timeout = std::chrono::milliseconds(5000);
  o.io_timeout = std::chrono::milliseconds(20000);
  return o;
}

struct WitnessFixture {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
  std::unique_ptr<pc::TwoPartyContext> compile_ctx;
  std::unique_ptr<proto::SecureNetwork> snet;
  std::vector<nn::Tensor> queries;

  explicit WitnessFixture(int num_queries)
      : md(pasnet::testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool)) {
    pc::Prng wprng(131);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*graph, 2, 8, 132);
    compile_ctx = std::make_unique<pc::TwoPartyContext>();
    snet = std::make_unique<proto::SecureNetwork>(md, *graph, node_of_layer, *compile_ctx);
    pc::Prng qprng(133);
    for (int q = 0; q < num_queries; ++q) {
      queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, qprng, 0.5f));
    }
  }

  [[nodiscard]] perf::ProgramCost analytic(int batch) const {
    return perf::profile_program(model(), snet->program(), compile_ctx->ring().bits,
                                 compile_ctx->ring().wire_bits, batch);
  }
};

/// Wait-time counters are the only timing-dependent entries.
obs::CounterSnapshot normalized(obs::CounterSnapshot s) {
  s.values[static_cast<int>(obs::Counter::recv_wait_us)] = 0;
  s.values[static_cast<int>(obs::Counter::send_wait_us)] = 0;
  return s;
}

}  // namespace

TEST(TraceWitness, InProcessChunksMatchMeterAndAnalyticExactly) {
  // 3 queries at K=2: a full chunk and a 1-lane remainder chunk, each with
  // its own counter block and its own analytic prediction.
  WitnessFixture f(3);
  proto::WorkloadOptions wopts;
  wopts.batch = 2;
  proto::Workload wl(*f.snet, wopts);
  obs::Tracer tracer;
  wl.set_tracer(&tracer);
  (void)wl.run(f.queries);

  ASSERT_EQ(wl.chunk_stats().size(), 2u);
  obs::CounterSnapshot summed;
  for (const proto::ChunkStats& cs : wl.chunk_stats()) {
    // measured == analytic, per chunk.
    const perf::ProgramCost cost = f.analytic(static_cast<int>(cs.queries));
    const obs::WitnessReport report =
        obs::check_witness(pc::TrafficStats::of(cs.counters),
                           static_cast<std::uint64_t>(cost.total.rounds), cost.wire_bytes);
    EXPECT_TRUE(report.ok()) << report.describe() << " (chunk at " << cs.first_query << ")";
    summed += cs.counters;
  }
  // The workload tracer holds exactly the folded chunk blocks.
  const obs::CounterSnapshot total = tracer.snapshot();
  for (int i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(total.values[i], summed.values[i])
        << obs::counter_name(static_cast<obs::Counter>(i));
  }
}

TEST(TraceWitness, PartyChannelSharesOneMintedTraceIdAcrossEndpoints) {
  // The wiring the party binaries lean on: the dial side mints the run's
  // correlation id during the transport handshake, the serve side adopts
  // it, and both surface it (plus the estimated clock offset) for the
  // session tracer and any onward dealer connection.
  net::Listener listener(0);
  const std::uint16_t port = listener.port();
  auto served = std::async(std::launch::async,
                           [&] { return net::serve_party_channel(listener, 1, test_opts()); });
  auto c0 = net::dial_party_channel("127.0.0.1", port, 0, test_opts());
  auto c1 = served.get();

  const obs::TraceId id = c0->session_trace_id();
  EXPECT_FALSE(id.is_zero());
  EXPECT_EQ(c1->session_trace_id(), id);
  // Party 0 dialed with no upstream offset, so it is the run's reference
  // clock; party 1's estimate is loopback noise, not seconds.
  EXPECT_EQ(c0->session_clock_offset_us(), 0);
  EXPECT_LT(std::llabs(c1->session_clock_offset_us()), 100000);

  // A tracer seeded the way the binaries do it stamps the id into every
  // span it closes from then on.
  obs::Tracer tracer;
  tracer.set_trace_id(id);
  tracer.complete_span("test", "correlated", obs::Tracer::now_us());
  for (const obs::TraceEvent& ev : tracer.events()) EXPECT_EQ(ev.trace_id, id);
}

TEST(TraceWitness, RemoteLoopbackBatchSatisfiesThreeWitnessOnBothEndpoints) {
  WitnessFixture f(2);
  const std::size_t lanes = f.queries.size();
  for (const bool store_served : {false, true}) {
    SCOPED_TRACE(store_served ? "store-served" : "fused");
    // In-process reference chunk of the same 2 queries, traced.
    proto::WorkloadOptions wopts;
    wopts.batch = 2;
    proto::Workload wl(*f.snet, wopts);
    // Each party owns its copy of the store, like two real processes.
    pasnet::offline::TripleStore stores[3];
    if (store_served) {
      for (auto& s : stores) s = wl.preprocess(lanes);
      wl.use_store(&stores[2]);
    }
    obs::Tracer ref_tracer;
    wl.set_tracer(&ref_tracer);
    const auto ref_out = wl.run(f.queries);
    ASSERT_EQ(wl.chunk_stats().size(), 1u);
    const obs::CounterSnapshot ref_counters = wl.chunk_stats()[0].counters;

    // Both parties over localhost TCP, one 2-lane chunk each, traced.
    net::Listener listener(0);
    const std::uint16_t port = listener.port();
    struct Side {
      ir::BatchExecResult res;
      pc::TrafficStats stats;
      obs::CounterSnapshot session;  ///< the session tracer after the chunk
    };
    const auto run_side = [&](int party) {
      Side side;
      std::unique_ptr<net::TransportChannel> chan =
          party == 1 ? net::serve_party_channel(listener, 1, test_opts())
                     : net::dial_party_channel("127.0.0.1", port, 0, test_opts());
      net::PartySession session(party, *chan, pc::RingConfig{});
      obs::Tracer tracer;
      session.set_tracer(&tracer);
      net::RemoteSessionOptions ropts;
      if (store_served) {
        ropts.source = net::TripleSourceKind::store;
        ropts.store = &stores[party];
      }
      side.res = session.run_batch(f.snet->program(), f.snet->params(), 0,
                                   party == 0 ? &f.queries : nullptr, lanes, ropts, &side.stats);
      side.session = tracer.snapshot();
      return side;
    };
    auto side1 = std::async(std::launch::async, run_side, 1);
    const Side p0 = run_side(0);
    const Side p1 = side1.get();

    // Store claims count once per lane, on every path.
    const std::uint64_t claims = store_served ? lanes : 0;
    EXPECT_EQ(ref_counters[obs::Counter::store_claims], claims);
    EXPECT_EQ(ref_tracer.snapshot()[obs::Counter::store_claims], claims);
    const perf::ProgramCost cost = f.analytic(static_cast<int>(lanes));
    for (const Side* side : {&p0, &p1}) {
      EXPECT_EQ(side->session[obs::Counter::store_claims], claims);
      const obs::WitnessReport report = obs::check_witness(
          side->stats, static_cast<std::uint64_t>(cost.total.rounds), cost.wire_bytes);
      EXPECT_TRUE(report.ok()) << report.describe();
      // The session tracer folded exactly the measured window.
      EXPECT_EQ(side->session[obs::Counter::rounds], side->stats.rounds);
      EXPECT_EQ(side->session.total_bytes(), side->stats.total_bytes());
      // Counter-total determinism across deployment modes: the remote
      // endpoint's counts equal the in-process chunk's, wait times aside.
      const obs::CounterSnapshot remote = normalized(side->session);
      const obs::CounterSnapshot local = normalized(ref_counters);
      for (int i = 0; i < obs::kCounterCount; ++i) {
        EXPECT_EQ(remote.values[i], local.values[i])
            << obs::counter_name(static_cast<obs::Counter>(i));
      }
    }
    // Same bits as the in-process run, for good measure.
    for (std::size_t q = 0; q < lanes; ++q) {
      ASSERT_EQ(p0.res.logits[q].size(), ref_out.logits[q].size());
      for (std::size_t i = 0; i < ref_out.logits[q].size(); ++i) {
        ASSERT_EQ(p0.res.logits[q][i], ref_out.logits[q][i]) << "query " << q;
        ASSERT_EQ(p1.res.logits[q][i], ref_out.logits[q][i]) << "query " << q;
      }
    }
  }
}
