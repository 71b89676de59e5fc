// Party-local compute on every reference model.  Two PartySessions run on
// two threads over the blocking in-memory channel pair, each driving one
// remote context that computes only the share its party owns.  Each
// endpoint's CompiledParams carry random words in the PEER's halves, so a
// read of any share the endpoint does not own would move the revealed
// bits.  Both endpoints must reveal exactly the in-process Workload's bits
// at the same stream positions — logits and labels, K in {1, 4}, fused-
// and store-served — and each endpoint's metered window must equal
// perf::profile_program's prediction and the in-process chunk's meter.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "net/party_session.hpp"
#include "obs/witness.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace net = pasnet::net;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

/// `params` with every weight and bias half of the peer of `party`
/// overwritten by random words.
ir::CompiledParams poison_peer_halves(ir::CompiledParams params, int party, std::uint64_t seed) {
  pc::Prng prng(seed);
  for (std::vector<pc::Shared>* tensors : {&params.weight, &params.bias}) {
    for (pc::Shared& s : *tensors) {
      for (std::uint64_t& w : s.share(1 - party)) w = prng.next_u64();
    }
  }
  return params;
}

struct Side {
  ir::BatchExecResult results;
  pc::TrafficStats stats;
};

/// One chunk of `lanes` queries at stream position 0, served remotely by
/// two PartySessions on two threads.  A side that fails closes its
/// endpoint, so the other fails fast instead of waiting out its timeout.
std::pair<Side, Side> run_pair(const ir::SecureProgram& program, const ir::CompiledParams params[2],
                               const std::vector<nn::Tensor>& inputs, off::TripleStore* stores) {
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded);
  pc::Channel* chans[2] = {c0.get(), c1.get()};
  const auto side = [&](int party) {
    try {
      net::PartySession session(party, *chans[party], pc::RingConfig{});
      net::RemoteSessionOptions opts;
      if (stores != nullptr) {
        opts.source = net::TripleSourceKind::store;
        opts.store = &stores[party];
      }
      const std::vector<nn::Tensor>* own_inputs = party == 0 ? &inputs : nullptr;
      Side out;
      out.results = session.run_batch(program, params[party], 0, own_inputs, inputs.size(), opts,
                                      &out.stats);
      return out;
    } catch (...) {
      chans[party]->close();
      throw;
    }
  };
  auto side1 = std::async(std::launch::async, side, 1);
  Side side0 = side(0);
  return {std::move(side0), side1.get()};
}

class PartyLocal : public ::testing::TestWithParam<std::size_t> {};

}  // namespace

TEST_P(PartyLocal, EachEndpointRevealsTheInProcessBitsFromItsOwnShares) {
  const std::size_t m = GetParam();
  const nn::ModelDescriptor md = pasnet::testing::all_test_models()[m];
  pc::Prng wprng(700 + m);
  std::vector<int> node_of_layer;
  auto graph = nn::build_graph(md, wprng, &node_of_layer);
  pasnet::testing::warm_up(*graph, md.input_ch, md.input_h, 800 + m);
  pc::TwoPartyContext compile_ctx;
  proto::SecureNetwork snet(md, *graph, node_of_layer, compile_ctx);
  const ir::CompiledParams params[2] = {poison_peer_halves(snet.params(), 0, 900 + m),
                                        poison_peer_halves(snet.params(), 1, 950 + m)};
  const perf::LatencyModel latency(perf::HardwareConfig::zcu104(),
                                   perf::NetworkConfig::lan_1gbps());
  const pc::RingConfig rc{};

  using Kind = proto::WorkloadKind;
  for (const Kind kind : {Kind::logits, Kind::classify}) {
    for (const int lanes : {1, 4}) {
      for (const bool store_served : {false, true}) {
        SCOPED_TRACE(md.name + (kind == Kind::logits ? " logits" : " classify") + " K=" +
                     std::to_string(lanes) + (store_served ? " store" : " fused"));
        pc::Prng qprng(1000 + m + static_cast<std::uint64_t>(lanes));
        std::vector<nn::Tensor> inputs;
        for (int q = 0; q < lanes; ++q) {
          inputs.push_back(
              nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, qprng, 0.5f));
        }

        proto::WorkloadOptions wopts;
        wopts.kind = kind;
        wopts.batch = lanes;
        proto::Workload reference(snet, wopts);
        off::TripleStore reference_store;
        off::TripleStore stores[2];
        if (store_served) {
          reference_store = reference.preprocess(inputs.size());
          reference.use_store(&reference_store);
          for (off::TripleStore& s : stores) s = reference.preprocess(inputs.size());
        }
        const proto::WorkloadResult want = reference.run(inputs);
        ASSERT_EQ(reference.chunk_stats().size(), 1u);
        const pc::TrafficStats want_stats =
            pc::TrafficStats::of(reference.chunk_stats()[0].counters);
        const perf::ProgramCost cost =
            perf::profile_program(latency, reference.program(), rc.bits, rc.wire_bits, lanes);

        const auto [p0, p1] =
            run_pair(reference.program(), params, inputs, store_served ? stores : nullptr);
        for (const Side* side : {&p0, &p1}) {
          if (kind == Kind::logits) {
            ASSERT_EQ(side->results.logits.size(), want.logits.size());
            for (std::size_t q = 0; q < want.logits.size(); ++q) {
              ASSERT_EQ(side->results.logits[q].size(), want.logits[q].size());
              for (std::size_t i = 0; i < want.logits[q].size(); ++i) {
                ASSERT_EQ(side->results.logits[q][i], want.logits[q][i])
                    << "lane " << q << " element " << i;
              }
            }
          } else {
            EXPECT_EQ(side->results.labels, want.labels);
          }
          const obs::WitnessReport report = obs::check_witness(
              side->stats, static_cast<std::uint64_t>(cost.total.rounds), cost.wire_bytes);
          EXPECT_TRUE(report.ok()) << report.describe();
          EXPECT_EQ(side->stats.bytes_p0_to_p1, want_stats.bytes_p0_to_p1);
          EXPECT_EQ(side->stats.bytes_p1_to_p0, want_stats.bytes_p1_to_p0);
          EXPECT_EQ(side->stats.messages, want_stats.messages);
          EXPECT_EQ(side->stats.rounds, want_stats.rounds);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, PartyLocal,
                         ::testing::Range(std::size_t{0},
                                          pasnet::testing::all_test_models().size()));
