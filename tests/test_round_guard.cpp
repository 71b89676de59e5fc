// Round-count regression guard (CI): runs reference models through the IR
// executor and fails unless the measured round count EXACTLY equals the
// analytic model's prediction (perf::profile_program).  The analytic
// rounds encode the protocol stack's actual round structure — OT phases,
// AND-tree depth, the one-exchange mux tail, merged E/F openings, the
// staged-comparison lockstep walk — so a mismatch in either direction
// means the executor spends different exchanges than the model prices;
// both drifts should fail loudly.  The per-op program
// (testing::one_group_per_op) is priced the same way, which pins what
// cross-op grouping buys; the benchmark's three transcripts are pinned
// exactly.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>

#include "ir/passes.hpp"
#include "ir/plan.hpp"
#include "offline/ot_triple_source.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

using pasnet::testing::measured_program_rounds;
using pasnet::testing::measured_program_traffic;
using pasnet::testing::one_group_per_op;
using pasnet::testing::parallel_relu_program;
using pasnet::testing::proxy_resnet;
using pasnet::testing::tiny_cnn;
using pasnet::testing::warm_up;

namespace {

perf::LatencyModel model() {
  return perf::LatencyModel(perf::HardwareConfig::zcu104(), perf::NetworkConfig::lan_1gbps());
}

/// Measured vs analytic rounds for one trained model: exact equality for a
/// single query AND for a K-lane batched chunk (profile_program's `batch`
/// parameter prices the chunk), of the logits or the argmax-terminated
/// classify program.
void expect_measured_equals_analytic(nn::ModelDescriptor md, std::uint64_t seed, int batch = 1,
                                     proto::WorkloadKind kind = proto::WorkloadKind::logits) {
  pc::Prng wprng(seed);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, md.input_ch, md.input_h, seed + 1);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
  pc::Prng dprng(seed + 2);
  proto::WorkloadOptions wopts;
  wopts.kind = kind;
  wopts.batch = batch;
  proto::Workload workload(snet, wopts);
  std::vector<nn::Tensor> queries;
  for (int q = 0; q < batch; ++q) {
    queries.push_back(nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, dprng, 0.5f));
  }
  (void)workload.run(queries);
  ASSERT_EQ(workload.chunk_stats().size(), 1u) << md.name;
  const std::uint64_t measured = workload.chunk_stats()[0].counters[obs::Counter::rounds];
  const std::uint64_t measured_bytes = workload.chunk_stats()[0].counters.total_bytes();

  const auto m = model();
  const perf::ProgramCost cost = perf::profile_program(m, workload.program(), ctx.ring().bits,
                                                       ctx.ring().wire_bits, batch);
  ASSERT_GT(measured, 0u) << md.name;
  EXPECT_EQ(measured, static_cast<std::uint64_t>(cost.total.rounds))
      << md.name << ": measured rounds diverge from the analytic prediction (batch "
      << batch << ")";
  // Byte regression guard: the analytic wire-byte model prices every
  // opening, packed OT shift, masked OT table and packed bit open exactly
  // — merging a K-lane chunk's flushes changes none of them.
  EXPECT_EQ(measured_bytes, cost.wire_bytes)
      << md.name << ": measured bytes diverge from the analytic prediction (batch "
      << batch << ")";
}

}  // namespace

TEST(RoundGuard, TinyCnnVariantsMatchAnalyticRoundsExactly) {
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 300);
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 310);
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool), 320);
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::x2act, nn::OpKind::maxpool), 330);
}

TEST(RoundGuard, ResidualReferenceModelsMatchAnalyticRoundsExactly) {
  // HEcmp-style reference backbones: the scaled ResNet-18 proxy in both
  // the all-ReLU and all-polynomial extremes.
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.width_mult = 0.0625f;
  const auto base = nn::make_resnet(18, opt);
  expect_measured_equals_analytic(
      nn::apply_choices(base,
                        nn::uniform_choices(base, nn::ActKind::relu, nn::PoolKind::maxpool)),
      340);
  expect_measured_equals_analytic(
      nn::apply_choices(base,
                        nn::uniform_choices(base, nn::ActKind::x2act, nn::PoolKind::avgpool)),
      350);
}

TEST(RoundGuard, BatchedChunksMatchAnalyticRoundsExactly) {
  // The batched executor's round/byte structure, pinned analytically: a
  // K-lane chunk spends the comparison rounds of ONE query (groups are
  // K-invariant), one merged terminal reveal, and exactly K-scaled bytes —
  // profile_program(batch=K) prices all of it.
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 400,
                                  /*batch=*/4);
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 410,
                                  /*batch=*/3);
  expect_measured_equals_analytic(tiny_cnn(nn::OpKind::relu, nn::OpKind::avgpool), 420,
                                  /*batch=*/2);
}

TEST(RoundGuard, EveryTestModelMatchesAnalyticAtEveryBatchWidth) {
  std::uint64_t seed = 700;
  for (auto& md : pasnet::testing::all_test_models()) {
    for (const int batch : {1, 4, 16}) {
      for (const auto kind : {proto::WorkloadKind::logits, proto::WorkloadKind::classify}) {
        expect_measured_equals_analytic(md, seed += 5, batch, kind);
      }
    }
  }
}

TEST(RoundGuard, ClassifyChunksMatchAnalyticRoundsExactly) {
  // Argmax-terminated programs: the tournament is a staged comparison in
  // a round group of its own, so a K-lane chunk shares its rounds and
  // merged OT flushes like every other comparison — priced exactly.
  std::uint64_t seed = 430;
  for (const auto act : {nn::OpKind::relu, nn::OpKind::x2act}) {
    for (const auto pool : {nn::OpKind::maxpool, nn::OpKind::avgpool}) {
      for (const int batch : {1, 4}) {
        expect_measured_equals_analytic(tiny_cnn(act, pool), seed += 10, batch,
                                        proto::WorkloadKind::classify);
      }
    }
  }
}

TEST(RoundGuard, BatchedResNetProxyMeetsRoundReductionTarget) {
  // The PR acceptance bar: a K=16 single-context batch on the scaled
  // ResNet-18 all-ReLU proxy spends at most 1/8 the total comparison
  // rounds of 16 independent runs, for logits and labels alike.  Group
  // rounds are K-invariant (the argmax tournament's included) and the
  // terminal regroups to one joint reveal, so the measured ratio lands
  // near 1/16; 1/8 leaves headroom without weakening the bar.
  nn::BackboneOptions opt;
  opt.input_size = 8;
  opt.width_mult = 0.0625f;
  const auto base = nn::make_resnet(18, opt);
  const auto md = nn::apply_choices(
      base, nn::uniform_choices(base, nn::ActKind::relu, nn::PoolKind::maxpool));

  pc::Prng wprng(500);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, md.input_ch, md.input_h, 501);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);

  constexpr int kLanes = 16;
  pc::Prng dprng(502);
  std::vector<nn::Tensor> queries;
  for (int q = 0; q < kLanes; ++q) {
    queries.push_back(nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, dprng, 0.5f));
  }

  for (const auto kind : {proto::WorkloadKind::logits, proto::WorkloadKind::classify}) {
    // 16 independent runs (batch=1 -> 16 unit chunks).
    proto::WorkloadOptions unit_opts;
    unit_opts.kind = kind;
    proto::Workload unit(snet, unit_opts);
    const auto unit_res = unit.run(queries);
    std::uint64_t independent_rounds = 0;
    for (const auto& cs : unit.chunk_stats()) {
      independent_rounds += cs.counters[obs::Counter::rounds];
    }

    // One 16-lane chunk.
    proto::WorkloadOptions wopts;
    wopts.kind = kind;
    wopts.batch = kLanes;
    proto::Workload batched(snet, wopts);
    const auto batched_res = batched.run(queries);
    ASSERT_EQ(batched.chunk_stats().size(), 1u);
    const std::uint64_t batched_rounds = batched.chunk_stats()[0].counters[obs::Counter::rounds];

    EXPECT_LE(batched_rounds * 8, independent_rounds)
        << "a K=16 chunk must spend at most 1/8 the rounds of 16 independent runs "
        << "(measured " << batched_rounds << " vs " << independent_rounds << ")";
    // The chunk is priced exactly, too.
    const perf::ProgramCost cost = perf::profile_program(
        model(), batched.program(), ctx.ring().bits, ctx.ring().wire_bits, kLanes);
    EXPECT_EQ(batched_rounds, static_cast<std::uint64_t>(cost.total.rounds));
    EXPECT_EQ(batched.chunk_stats()[0].counters.total_bytes(), cost.wire_bytes);

    // And the batch is not buying speed with different bits.
    ASSERT_EQ(unit_res.logits.size(), batched_res.logits.size());
    for (std::size_t q = 0; q < unit_res.logits.size(); ++q) {
      for (std::size_t i = 0; i < unit_res.logits[q].size(); ++i) {
        ASSERT_EQ(unit_res.logits[q][i], batched_res.logits[q][i]) << "query " << q;
      }
    }
    EXPECT_EQ(unit_res.labels, batched_res.labels);
  }
}

TEST(RoundGuard, ParallelReluRoundsIndependentOfInstanceCount) {
  // The cross-instance grouping acceptance bar: K independent ReLUs in one
  // round group cost the rounds of ONE comparison stack (shared OT digits
  // + shared AND levels + the shared mux-tail opening) plus the reveal — 8
  // — exactly as the analytic walk predicts, while the per-op program pays
  // the 7-round stack per instance: 7K + 1.
  const auto m = model();
  const int bits = pc::RingConfig{}.bits;
  const int wire_bits = pc::RingConfig{}.wire_bits;
  for (const int k : {1, 2, 4, 16}) {
    const ir::SecureProgram p = parallel_relu_program(k);
    for (const auto& op : p.ops) {
      if (op.stages_compare()) {
        EXPECT_EQ(op.round_group, 0) << p.name;
      }
    }
    const ir::SecureProgram per_op = one_group_per_op(p);
    const pc::TrafficStats scheduled = measured_program_traffic(p);
    const pc::TrafficStats separate = measured_program_traffic(per_op);
    const perf::ProgramCost cost = perf::profile_program(m, p, bits, wire_bits);
    const perf::ProgramCost per_op_cost = perf::profile_program(m, per_op, bits, wire_bits);
    EXPECT_EQ(scheduled.rounds, 8u) << p.name;
    EXPECT_EQ(separate.rounds, 7u * static_cast<std::uint64_t>(k) + 1) << p.name;
    EXPECT_EQ(scheduled.rounds, static_cast<std::uint64_t>(cost.total.rounds)) << p.name;
    EXPECT_EQ(separate.rounds, static_cast<std::uint64_t>(per_op_cost.total.rounds)) << p.name;
    // Merging the K ReLUs' OT batches saves messages, not bytes: each
    // batch packs its own shifts, so both programs move exactly the
    // analytic figure.
    EXPECT_EQ(scheduled.total_bytes(), cost.wire_bytes) << p.name;
    EXPECT_EQ(separate.total_bytes(), cost.wire_bytes) << p.name;
    EXPECT_EQ(per_op_cost.wire_bytes, cost.wire_bytes) << p.name;
  }
}

TEST(RoundGuard, MixedCompareGroupSharesHeterogeneousPhases) {
  // A maxpool grouped with two relus: the pool's first tournament level
  // advances in lockstep with the relus, so the relus ride entirely within
  // the pool's phase walk and the group costs what the pool costs alone.
  ir::SecureProgram p = parallel_relu_program(2);
  p.ops.resize(3);  // keep input + the two relus, drop the add
  ir::Op pool;
  pool.kind = ir::OpKind::maxpool;
  pool.in0 = 0;
  pool.kernel = pool.stride = 2;
  pool.in_ch = 2;
  pool.in_h = pool.in_w = 4;
  pool.out_ch = 2;
  pool.out_h = pool.out_w = 2;
  p.ops.push_back(pool);
  p.output = 3;
  ir::schedule_rounds(p);
  for (const auto& op : p.ops) {
    if (op.stages_compare()) {
      EXPECT_EQ(op.round_group, 0);
    }
  }
  const auto m = model();
  const std::uint64_t grouped = measured_program_rounds(p);
  const perf::ProgramCost cost = perf::profile_program(m, p, pc::RingConfig{}.bits);
  EXPECT_EQ(grouped, static_cast<std::uint64_t>(cost.total.rounds));

  ir::SecureProgram pool_only = p;
  pool_only.ops.erase(pool_only.ops.begin() + 1, pool_only.ops.begin() + 3);
  pool_only.ops[1].in0 = 0;
  pool_only.output = 1;
  ir::schedule_rounds(pool_only);
  EXPECT_EQ(grouped, measured_program_rounds(pool_only))
      << "relus must ride the pool's first-level phases for free";
}

namespace {

/// Measured traffic of one batch of `lanes` zero inputs through `p`, on a
/// fresh context; inputs do not move a transcript.
pc::TrafficStats batch_traffic(const ir::SecureProgram& p, const ir::CompiledParams& params,
                               int lanes) {
  pc::TwoPartyContext ctx;
  const nn::Tensor zero({1, p.input_ch, p.input_h, p.input_w});
  (void)ir::execute_batch(p, params, ctx,
                          std::vector<nn::Tensor>(static_cast<std::size_t>(lanes), zero));
  return ctx.stats();
}

}  // namespace

TEST(RoundGuard, PerOpProgramIsPricedExactlyOnEveryModel) {
  // The per-op program — every stageable op in a round group of its own —
  // pays exactly the rounds and bytes profile_program prices.  A
  // multiply's E and F openings share one exchange in both programs, so
  // cross-op grouping buys 3 rounds on each ResNet proxy (its parallel
  // downsample branches) and none on the chains, for the same bytes.
  // Pinned as {per-op, scheduled} rounds per all_test_models() entry,
  // logits then classify; neither depends on the lane count K.  (That the
  // two reveal the same bits is CompareStaged's per-op shares test.)
  struct Pin {
    std::uint64_t per_op, scheduled;
  };
  const Pin pins[][2] = {
      {{24, 24}, {38, 38}},      // TinyCNN ReLU + maxpool
      {{4, 4}, {18, 18}},        // TinyCNN x2act + avgpool
      {{10, 10}, {24, 24}},      // TinyCNN ReLU + avgpool
      {{18, 18}, {32, 32}},      // TinyCNN x2act + maxpool
      {{141, 138}, {169, 166}},  // ResNet-18 proxy, ReLU + maxpool
      {{39, 36}, {67, 64}},      // ResNet-18 proxy, x2act + avgpool
      {{89, 89}, {117, 117}},    // MobileNetV2 proxy
  };
  const auto models = pasnet::testing::all_test_models();
  ASSERT_EQ(models.size(), std::size(pins));
  const char* const kinds[] = {" logits K=", " classify K="};
  const auto m = model();
  const pc::RingConfig rc{};
  for (std::size_t i = 0; i < models.size(); ++i) {
    const nn::ModelDescriptor& md = models[i];
    pc::Prng wprng(800 + i);
    std::vector<int> node_of_layer;
    auto g = nn::build_graph(md, wprng, &node_of_layer);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
    for (const int kind : {0, 1}) {
      const ir::SecureProgram& p = kind == 0 ? snet.program() : snet.classify_program();
      const ir::SecureProgram per_op = one_group_per_op(p);
      for (const int lanes : {1, 4}) {
        const std::string at = "model " + std::to_string(i) + kinds[kind] + std::to_string(lanes);
        const pc::TrafficStats grouped = batch_traffic(p, snet.params(), lanes);
        const pc::TrafficStats separate = batch_traffic(per_op, snet.params(), lanes);
        const perf::ProgramCost cost =
            perf::profile_program(m, per_op, rc.bits, rc.wire_bits, lanes);
        EXPECT_EQ(separate.rounds, static_cast<std::uint64_t>(cost.total.rounds)) << at;
        EXPECT_EQ(separate.total_bytes(), cost.wire_bytes) << at;
        EXPECT_EQ(separate.rounds, pins[i][kind].per_op) << at;
        EXPECT_EQ(grouped.rounds, pins[i][kind].scheduled) << at;
        EXPECT_EQ(separate.total_bytes(), grouped.total_bytes()) << at;
        EXPECT_LE(grouped.messages, separate.messages) << at;
      }
    }
  }
}

TEST(RoundGuard, BenchmarkTranscriptsArePinned) {
  // The chunk transcripts of the end-to-end benchmark's three programs,
  // exact: the benchmark bounds their rounds and wire bytes per query at
  // zero, so a drift fails here first.  Weights and inputs do not move a
  // transcript.  A change that moves one on purpose updates its pin and
  // says why.
  struct Pin {
    const char* name;
    nn::ModelDescriptor md;
    int lanes;
    std::uint64_t rounds, bytes, messages;
  };
  const Pin pins[] = {
      {"relu-k1", proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool), 1, 138, 573264, 276},
      {"poly-k16", proxy_resnet(nn::ActKind::x2act, nn::PoolKind::avgpool), 16, 36, 6273792, 72},
      {"mobilenet-k1", pasnet::testing::proxy_mobilenet(), 1, 89, 541472, 178},
  };
  for (const Pin& pin : pins) {
    pc::Prng wprng(1);
    std::vector<int> node_of_layer;
    auto g = nn::build_graph(pin.md, wprng, &node_of_layer);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(pin.md, *g, node_of_layer, ctx);
    proto::Workload wl(snet, {proto::WorkloadKind::logits, pin.lanes, /*worker_pairs=*/1});
    const nn::Tensor zero({1, pin.md.input_ch, pin.md.input_h, pin.md.input_w});
    (void)wl.run(std::vector<nn::Tensor>(static_cast<std::size_t>(pin.lanes), zero));
    ASSERT_EQ(wl.chunk_stats().size(), 1u) << pin.name;
    const obs::CounterSnapshot& c = wl.chunk_stats()[0].counters;
    EXPECT_EQ(c[obs::Counter::rounds], pin.rounds) << pin.name;
    EXPECT_EQ(c.total_bytes(), pin.bytes) << pin.name;
    EXPECT_EQ(c[obs::Counter::messages], pin.messages) << pin.name;
  }
}

TEST(RoundGuard, AnalyticPerOpRoundsMatchProtocolStructure) {
  // Spot-check the per-op round formulas against hand counts.  Every
  // DReLU compares in the 32-bit window, on the 64-bit functional ring as
  // on a 32-bit one: DReLU = 2 OT messages + 4 AND-tree levels.
  EXPECT_EQ(perf::drelu_rounds(64), 6);
  EXPECT_EQ(perf::drelu_rounds(32), 6);
  EXPECT_EQ(pc::drelu_millionaire_bits(64), 31);
  EXPECT_EQ(pc::drelu_millionaire_bits(32), 31);
  EXPECT_EQ(pc::drelu_millionaire_bits(16), 15);
  // The shared millionaire shape helper behind them: the window's 31 low
  // bits split into 16 digits that combine 16->8->4->2->1.
  EXPECT_EQ(pc::millionaire_digits(31), 16);
  EXPECT_EQ(pc::millionaire_and_level_multipliers(31), (std::vector<int>{16, 8, 4, 2}));
  // The helpers stay generic: 63 bits split into 32 digits that combine
  // 32->16->8->4->2->1.
  EXPECT_EQ(pc::millionaire_digits(63), 32);
  EXPECT_EQ(pc::millionaire_and_level_multipliers(63),
            (std::vector<int>{32, 16, 8, 4, 2}));
  const auto m = model();
  ir::Op relu;
  relu.kind = ir::OpKind::relu;
  relu.in_ch = 4;
  relu.in_h = relu.in_w = 8;
  EXPECT_EQ(perf::ir_op_cost(m, relu, 64).rounds, 7);  // drelu + the mux tail
  ir::Op conv;
  conv.kind = ir::OpKind::conv;
  conv.in_ch = conv.out_ch = 4;
  conv.in_h = conv.in_w = conv.out_h = conv.out_w = 8;
  conv.kernel = 3;
  EXPECT_EQ(perf::ir_op_cost(m, conv, 64).rounds, 1);  // E and F coalesce
  ir::Op pool;
  pool.kind = ir::OpKind::maxpool;
  pool.kernel = 2;
  pool.in_ch = 4;
  pool.in_h = pool.in_w = 8;
  pool.out_ch = 4;
  pool.out_h = pool.out_w = 4;
  EXPECT_EQ(perf::ir_op_cost(m, pool, 64).rounds, 2 * 7);  // two tournament levels
  ir::Op argmax;
  argmax.kind = ir::OpKind::argmax;
  argmax.in_features = 10;
  // Four tournament levels; per level both payloads share the one
  // mux-tail opening: drelu + tail = 7.
  EXPECT_EQ(perf::ir_op_cost(m, argmax, 64).rounds, 4 * 7);
}

TEST(RoundGuard, OfflinePhaseProfileMatchesMeasuredOtExtGeneration) {
  // The offline-phase analog of the online guard: the measured traffic of
  // the two-party OT-extension generation run must EXACTLY equal
  // perf::profile_offline_phase's figures, for a single query and a
  // two-lane batch.
  auto md = tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  pc::Prng wprng(77);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, md.input_ch, md.input_h, 78);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
  const pasnet::offline::PreprocessingPlan plan =
      ir::derive_plan(snet.program(), ctx.ring());
  for (const int batch : {1, 2}) {
    const perf::OfflinePhaseCost c =
        perf::profile_offline_phase(snet.program(), ctx.ring(), batch);
    pc::TwoPartyContext gctx;
    std::vector<pasnet::offline::QueryBundle> bundles(static_cast<std::size_t>(batch));
    std::vector<std::uint64_t> seeds;
    for (int q = 0; q < batch; ++q) {
      seeds.push_back(proto::SecureNetwork::query_dealer_seed(static_cast<std::size_t>(q)));
    }
    pasnet::offline::generate_bundles_ot_ext(plan, gctx, seeds, bundles.data());
    EXPECT_EQ(gctx.stats().total_bytes(), c.ot_ext_wire_bytes) << "batch " << batch;
    EXPECT_EQ(gctx.stats().rounds, c.ot_ext_rounds) << "batch " << batch;
    EXPECT_EQ(gctx.stats().messages, c.ot_ext_messages) << "batch " << batch;
    EXPECT_EQ(c.store_bytes_shipped,
              plan.material_bytes_per_query() * static_cast<std::uint64_t>(batch));
    EXPECT_EQ(c.material_elems,
              plan.material_elems_per_query() * static_cast<std::uint64_t>(batch));
    EXPECT_GT(c.ext_cots, 0u);
    EXPECT_EQ(c.base_ots, 2u * 128u * static_cast<std::uint64_t>(1));  // both directions, once
  }
}

TEST(RoundGuard, TinyReluOfflineVolumeIsPinned) {
  // The offline phase's volume per tiny_relu query, exact: ot-ext traffic
  // and store material.  Each comparison level's tail is one bit-injection
  // triple, three one-bit-choice COTs per compared value in ot-ext.  A
  // change that moves them on purpose updates the pins and says why.
  auto md = tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  pc::Prng wprng(77);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);
  const perf::OfflinePhaseCost c = perf::profile_offline_phase(snet.program(), ctx.ring(), 1);
  EXPECT_EQ(c.ot_ext_wire_bytes, 3522600u);
  EXPECT_EQ(c.ext_cots, 59968u);
  EXPECT_EQ(c.store_bytes_shipped, 156592u);
  EXPECT_EQ(ir::derive_plan(snet.program(), ctx.ring()).material_bytes_per_query(), 156592u);
}
