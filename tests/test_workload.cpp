// The Workload serving API and single-context K-query batched execution:
// batched-K outputs must be bit-identical to K independent single-query
// runs (lockstep, threaded, store-served and dealer-served alike), chunking
// and worker sharding must not change any bit, and the batch must actually
// collapse comparison rounds — a K-lane chunk spends the rounds of ONE
// query, not K.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "ir/plan.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::proxy_resnet;
using pasnet::testing::tiny_cnn;
using pasnet::testing::warm_up;

namespace {

struct Trained {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
};

Trained train(nn::ModelDescriptor md, std::uint64_t seed) {
  Trained t;
  t.md = std::move(md);
  pc::Prng wprng(seed);
  t.graph = nn::build_graph(t.md, wprng, &t.node_of_layer);
  warm_up(*t.graph, t.md.input_ch, t.md.input_h, seed + 1);
  return t;
}

std::vector<nn::Tensor> make_inputs(const nn::ModelDescriptor& md, std::size_t n,
                                    std::uint64_t seed) {
  pc::Prng prng(seed);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    inputs.push_back(
        nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, prng, 0.5f));
  }
  return inputs;
}

void expect_bit_identical(const nn::Tensor& a, const nn::Tensor& b, const char* what,
                          std::size_t q) {
  ASSERT_EQ(a.size(), b.size()) << what << " query " << q;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " query " << q << " logit " << i;
  }
}

/// Batched-K vs unit-batch differential on one compiled network: same
/// inputs through a batch-K workload and a batch-1 workload must yield the
/// same bits query for query.
void expect_batch_matches_unit(proto::SecureNetwork& snet, const nn::ModelDescriptor& md,
                               int batch, std::size_t queries, const char* what) {
  const auto inputs = make_inputs(md, queries, 77);
  proto::WorkloadOptions unit_opts;
  proto::Workload unit(snet, unit_opts);
  const proto::WorkloadResult ref = unit.run(inputs);

  proto::WorkloadOptions batch_opts;
  batch_opts.batch = batch;
  proto::Workload batched(snet, batch_opts);
  const proto::WorkloadResult got = batched.run(inputs);

  ASSERT_EQ(got.logits.size(), queries) << what;
  for (std::size_t q = 0; q < queries; ++q) {
    expect_bit_identical(got.logits[q], ref.logits[q], what, q);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// API surface
// ---------------------------------------------------------------------------

TEST(Workload, PlanFingerprintFamilies) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 21);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);

  proto::Workload logits(snet);
  proto::WorkloadOptions copts;
  copts.kind = proto::WorkloadKind::classify;
  proto::Workload classify(snet, copts);

  // One fingerprint family per workload kind: the logits plan prices the
  // logits program, the classify plan adds the argmax terminal's stream.
  EXPECT_EQ(logits.plan().fingerprint(),
            ir::derive_plan(snet.program(), snet.ring()).fingerprint());
  EXPECT_EQ(classify.plan().fingerprint(),
            ir::derive_plan(snet.classify_program(), snet.ring()).fingerprint());
  EXPECT_NE(logits.plan().fingerprint(), classify.plan().fingerprint());
  EXPECT_EQ(&logits.program(), &snet.program());
  EXPECT_EQ(&classify.program(), &snet.classify_program());

  EXPECT_THROW(proto::Workload(snet, proto::WorkloadOptions{proto::WorkloadKind::logits, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(proto::Workload(snet, proto::WorkloadOptions{proto::WorkloadKind::logits, 1, 0}),
               std::invalid_argument);
}

TEST(Workload, UseStoreRejectsWrongFingerprintFamily) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool), 22);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);

  proto::Workload logits(snet);
  proto::WorkloadOptions copts;
  copts.kind = proto::WorkloadKind::classify;
  proto::Workload classify(snet, copts);

  off::TripleStore logits_store = logits.preprocess(1);
  EXPECT_THROW(classify.use_store(&logits_store), std::invalid_argument);
  logits.use_store(&logits_store);
  EXPECT_EQ(logits.store(), &logits_store);
  logits.use_store(nullptr);
  EXPECT_EQ(logits.store(), nullptr);
}

// ---------------------------------------------------------------------------
// Batched bit-identity (the tentpole differential)
// ---------------------------------------------------------------------------

TEST(Workload, BatchedLogitsBitIdenticalToIndependentRuns) {
  for (const auto& md : {tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool),
                         tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool)}) {
    auto t = train(md, 23);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
    expect_batch_matches_unit(snet, t.md, /*batch=*/4, /*queries=*/4, md.name.c_str());
  }
}

TEST(Workload, ResidualModelBatchedMatchesIndependentRuns) {
  auto t = train(proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool), 24);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  expect_batch_matches_unit(snet, t.md, /*batch=*/3, /*queries=*/3, t.md.name.c_str());
}

TEST(Workload, HeterogeneousTrailingChunkMatchesUnitBatch) {
  // 5 queries at K=2: chunks of 2, 2 and 1 — the trailing partial chunk
  // must not change any query's bits.
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 25);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  expect_batch_matches_unit(snet, t.md, /*batch=*/2, /*queries=*/5, "heterogeneous");
}

TEST(Workload, WorkerShardingDoesNotChangeBits) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 26);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 6, 78);

  proto::WorkloadOptions serial_opts;
  serial_opts.batch = 2;
  proto::Workload serial(snet, serial_opts);
  const auto ref = serial.run(inputs);

  proto::WorkloadOptions sharded_opts;
  sharded_opts.batch = 2;
  sharded_opts.worker_pairs = 3;
  proto::Workload sharded(snet, sharded_opts);
  const auto got = sharded.run(inputs);

  ASSERT_EQ(serial.chunk_stats().size(), sharded.chunk_stats().size());
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    expect_bit_identical(got.logits[q], ref.logits[q], "sharded", q);
  }
  for (std::size_t c = 0; c < serial.chunk_stats().size(); ++c) {
    EXPECT_EQ(serial.chunk_stats()[c].counters[obs::Counter::rounds],
              sharded.chunk_stats()[c].counters[obs::Counter::rounds]);
    EXPECT_EQ(serial.chunk_stats()[c].counters.total_bytes(),
              sharded.chunk_stats()[c].counters.total_bytes());
  }
}

TEST(Workload, ThreadedContextBatchedMatchesLockstep) {
  // ExecMode is ignored, but e2ebench's WAN workload still constructs its
  // serving context with ExecMode::threaded: K-lane chunks served from such
  // a context must reveal the lockstep context's bits.
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 27);
  pc::TwoPartyContext lockstep_ctx;
  proto::SecureNetwork lockstep_net(t.md, *t.graph, t.node_of_layer, lockstep_ctx);
  pc::TwoPartyContext threaded_ctx(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  proto::SecureNetwork threaded_net(t.md, *t.graph, t.node_of_layer, threaded_ctx);

  const auto inputs = make_inputs(t.md, 4, 79);
  proto::WorkloadOptions opts;
  opts.batch = 4;
  proto::Workload lockstep_wl(lockstep_net, opts);
  proto::Workload threaded_wl(threaded_net, opts);
  const auto a = lockstep_wl.run(inputs);
  const auto b = threaded_wl.run(inputs);
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    expect_bit_identical(a.logits[q], b.logits[q], "threaded", q);
  }
}

TEST(Workload, StreamPositionsContinueAcrossRunCalls) {
  // Splitting a query list over several run() calls must return the same
  // bits as one call: the q-th query ever submitted uses the canonical
  // seeds of stream position q either way.
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool), 28);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 3, 80);

  proto::Workload one_call(snet);
  const auto ref = one_call.run(inputs);

  proto::Workload split(snet);
  const auto first = split.run({inputs[0]});
  EXPECT_EQ(split.queries_served(), 1u);
  const auto rest = split.run({inputs[1], inputs[2]});
  EXPECT_EQ(split.queries_served(), 3u);
  expect_bit_identical(first.logits[0], ref.logits[0], "split", 0);
  expect_bit_identical(rest.logits[0], ref.logits[1], "split", 1);
  expect_bit_identical(rest.logits[1], ref.logits[2], "split", 2);
}

// ---------------------------------------------------------------------------
// Store-backed batched serving
// ---------------------------------------------------------------------------

TEST(Workload, StoreServedBatchMatchesDealerServedBatch) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 29);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 4, 81);

  proto::WorkloadOptions opts;
  opts.batch = 2;
  proto::Workload dealer_wl(snet, opts);
  const auto dealer_out = dealer_wl.run(inputs);

  proto::Workload store_wl(snet, opts);
  off::TripleStore store = store_wl.preprocess(inputs.size());
  store_wl.use_store(&store);
  const auto store_out = store_wl.run(inputs);
  EXPECT_EQ(store.num_queries(), inputs.size());

  for (std::size_t q = 0; q < inputs.size(); ++q) {
    expect_bit_identical(store_out.logits[q], dealer_out.logits[q], "store", q);
  }
}

TEST(Workload, SerializedStoreRoundTripServesBatched) {
  auto t = train(tiny_cnn(nn::OpKind::x2act, nn::OpKind::maxpool), 30);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 3, 82);

  proto::WorkloadOptions opts;
  opts.batch = 3;
  proto::Workload dealer_wl(snet, opts);
  const auto dealer_out = dealer_wl.run(inputs);

  proto::Workload store_wl(snet, opts);
  std::stringstream buf;
  {
    off::TripleStore store = store_wl.preprocess(inputs.size());
    store.save(buf);
  }
  off::TripleStore loaded = off::TripleStore::load(buf);
  store_wl.use_store(&loaded);
  const auto store_out = store_wl.run(inputs);
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    expect_bit_identical(store_out.logits[q], dealer_out.logits[q], "loaded store", q);
  }
}

// ---------------------------------------------------------------------------
// Classify workloads
// ---------------------------------------------------------------------------

TEST(Workload, ClassifyBatchedMatchesUnitBatchHeterogeneousK) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 31);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 5, 83);

  proto::WorkloadOptions unit_opts;
  unit_opts.kind = proto::WorkloadKind::classify;
  proto::Workload unit(snet, unit_opts);
  const auto ref = unit.run(inputs);
  ASSERT_EQ(ref.labels.size(), inputs.size());

  proto::WorkloadOptions batch_opts;
  batch_opts.kind = proto::WorkloadKind::classify;
  batch_opts.batch = 2;  // chunks of 2, 2, 1
  proto::Workload batched(snet, batch_opts);
  const auto got = batched.run(inputs);
  ASSERT_EQ(got.labels.size(), inputs.size());
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    EXPECT_EQ(got.labels[q], ref.labels[q]) << "query " << q;
    ASSERT_EQ(got.labels[q].size(), 1u);
    EXPECT_GE(got.labels[q][0], 0);
    EXPECT_LT(got.labels[q][0], t.md.num_classes);
  }
  EXPECT_TRUE(got.logits.empty());
}

TEST(Workload, ClassifyStoreServedBatchMatchesDealer) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool), 32);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 4, 84);

  proto::WorkloadOptions opts;
  opts.kind = proto::WorkloadKind::classify;
  opts.batch = 2;
  proto::Workload dealer_wl(snet, opts);
  const auto dealer_out = dealer_wl.run(inputs);

  proto::Workload store_wl(snet, opts);
  off::TripleStore store = store_wl.preprocess(inputs.size());
  store_wl.use_store(&store);
  const auto store_out = store_wl.run(inputs);
  for (std::size_t q = 0; q < inputs.size(); ++q) {
    EXPECT_EQ(store_out.labels[q], dealer_out.labels[q]) << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// The point of it all: a K-lane chunk spends ONE query's rounds
// ---------------------------------------------------------------------------

TEST(Workload, BatchedChunkSpendsSingleQueryComparisonRounds) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 33);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 4, 85);

  for (const auto kind : {proto::WorkloadKind::logits, proto::WorkloadKind::classify}) {
    proto::WorkloadOptions unit_opts;
    unit_opts.kind = kind;
    proto::Workload unit(snet, unit_opts);
    (void)unit.run({inputs[0]});
    const std::uint64_t single_rounds = unit.stats().rounds;

    proto::WorkloadOptions opts;
    opts.kind = kind;
    opts.batch = 4;
    proto::Workload batched(snet, opts);
    (void)batched.run(inputs);
    ASSERT_EQ(batched.chunk_stats().size(), 1u);
    // All four lanes ride the same round groups — the argmax tournament's
    // too — so the 4-query chunk spends exactly the single-query round
    // count.
    EXPECT_EQ(batched.stats().rounds, single_rounds);
    EXPECT_GT(batched.stats().comm_bytes, unit.stats().comm_bytes);
  }
}

TEST(Workload, OnlineBytesDoNotDependOnBatchWidth) {
  // Every lane opens its own weight-shaped E = W - B, so the query-
  // dependent share of a K-lane chunk is K single queries'.
  auto t = train(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 35);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  const auto inputs = make_inputs(t.md, 4, 86);

  proto::Workload unit(snet);
  (void)unit.run(inputs);
  proto::WorkloadOptions opts;
  opts.batch = 4;
  proto::Workload batched(snet, opts);
  (void)batched.run(inputs);
  ASSERT_EQ(batched.chunk_stats().size(), 1u);
  ASSERT_GT(snet.weight_open_bytes(), 0u);
  EXPECT_EQ(batched.stats().comm_bytes, unit.stats().comm_bytes);
  EXPECT_EQ(batched.stats().weight_open_bytes, 4 * snet.weight_open_bytes());
  EXPECT_EQ(batched.stats().online_bytes(), unit.stats().online_bytes());
}
