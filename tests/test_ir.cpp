// Tests for the secure-inference IR: lowering, the pass pipeline
// (batch-norm folding, x2act coefficient fusion, round scheduling), the
// scheduled (coalesced) program's bit-identity with the per-op program
// (testing::one_group_per_op, the eager op-at-a-time order) when served
// like a query, the executor's error-path cleanup, the statically derived
// preprocessing plan against the dry-run recorder oracle, and label-only
// classify().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "ir/passes.hpp"
#include "ir/plan.hpp"
#include "offline/offline_generator.hpp"
#include "offline/preprocessing_plan.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::tiny_cnn;
using pasnet::testing::warm_up;

namespace {

/// A trained model plus everything a SecureNetwork construction needs.
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

using pasnet::testing::all_test_models;
using pasnet::testing::one_group_per_op;
using pasnet::testing::proxy_resnet;

void expect_bit_identical(const nn::Tensor& a, const nn::Tensor& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " logit " << i;
  }
}

/// Serves `program` (net's program or a regrouping of it) for query
/// position q through the chunk runner Workload::run uses, on the query's
/// canonical context, from `bundle` or (nullptr) the position's dealer.
proto::ChunkRun serve_query(const proto::SecureNetwork& net, const ir::SecureProgram& program,
                            std::size_t q, const nn::Tensor& x,
                            off::QueryBundle* bundle = nullptr) {
  pc::TwoPartyContext ctx(net.ring(), proto::SecureNetwork::query_context_seed(q));
  return proto::run_chunk(ctx, program, net.params(), {proto::ChunkLane{q, bundle}}, {x}, {},
                          nullptr);
}

/// Distinct round groups among a program's stageable ops.
std::size_t round_groups(const ir::SecureProgram& p) {
  std::set<int> groups;
  for (const ir::Op& op : p.ops) {
    if (op.stages_opens() || op.stages_compare()) groups.insert(op.round_group);
  }
  return groups.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

TEST(IrPasses, FoldBatchnormRemovesBnOpsAndRewires) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 11);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  int bns = 0;
  for (const auto& op : p.ops) bns += op.kind == ir::OpKind::batchnorm ? 1 : 0;
  ASSERT_GT(bns, 0);
  EXPECT_EQ(ir::fold_batchnorm(p), bns);
  for (const auto& op : p.ops) {
    EXPECT_NE(op.kind, ir::OpKind::batchnorm);
    if (op.in0 >= 0) {
      EXPECT_LT(op.in0, static_cast<int>(p.ops.size()));
    }
  }
  // The conv gained the folded bias.
  bool saw_conv = false;
  for (const auto& op : p.ops) {
    if (op.kind == ir::OpKind::conv) {
      saw_conv = true;
      EXPECT_TRUE(op.has_bias);
    }
  }
  EXPECT_TRUE(saw_conv);
}

TEST(IrPasses, FuseX2actCoeffsMatchesModuleMath) {
  auto t = train(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 12);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  ir::fold_batchnorm(p);
  EXPECT_EQ(ir::fuse_x2act_coeffs(p), 1);
  for (const auto& op : p.ops) {
    if (op.kind != ir::OpKind::x2act) continue;
    EXPECT_TRUE(op.coeff_fused);
    // Exactly the trained module's effective coefficient at the producer's
    // output feature count (float math, then widened).
    const float scale =
        op.act_c / std::sqrt(static_cast<float>(op.in_ch * op.in_h * op.in_w));
    EXPECT_DOUBLE_EQ(op.a_coeff, static_cast<double>(scale * op.act_w1));
  }
}

TEST(IrPasses, SchedulerGroupsResidualBranches) {
  // In a downsample block the main-path conv2 and the skip conv are
  // independent: the scheduler must put them in one round group.
  auto t = train(proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool), 13);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  ir::run_standard_passes(p);
  int staging_ops = 0;
  int max_group = -1;
  for (const auto& op : p.ops) {
    if (op.stages_opens() || op.stages_compare()) {
      ++staging_ops;
      EXPECT_GE(op.round_group, 0) << "staged op without a group";
      max_group = std::max(max_group, op.round_group);
    } else {
      EXPECT_EQ(op.round_group, -1);
    }
  }
  // Fewer groups than staged ops == at least one coalesced pair.
  EXPECT_LT(max_group + 1, staging_ops);
}

TEST(IrPasses, ParallelizeInstancesHoistsIndependentBranchOps) {
  // Two independent two-deep ReLU towers, laid out tower-major: program
  // order separates the towers' first levels, so the greedy scheduler can
  // only group tower B's first relu with tower A's SECOND (3 groups).  The
  // instance-parallelism pass reorders into depth-major waves — both first
  // levels adjacent, both second levels adjacent — and the scheduler then
  // needs only 2 groups, with measurably fewer rounds.
  const auto build = [] {
    ir::SecureProgram p;
    p.name = "TwoTowers";
    p.input_ch = 2;
    p.input_h = p.input_w = 4;
    const auto geom = [](ir::Op& op) {
      op.in_ch = op.out_ch = 2;
      op.in_h = op.in_w = op.out_h = op.out_w = 4;
    };
    ir::Op input;
    input.kind = ir::OpKind::input;
    geom(input);
    p.ops.push_back(input);
    for (const int tower_input : {0, 0}) {
      ir::Op r1;
      r1.kind = ir::OpKind::relu;
      r1.in0 = tower_input;
      geom(r1);
      p.ops.push_back(r1);
      ir::Op r2;
      r2.kind = ir::OpKind::relu;
      r2.in0 = static_cast<int>(p.ops.size()) - 1;
      geom(r2);
      p.ops.push_back(r2);
    }
    ir::Op a;
    a.kind = ir::OpKind::add;
    a.in0 = 2;
    a.in1 = 4;
    geom(a);
    p.ops.push_back(a);
    p.output = static_cast<int>(p.ops.size()) - 1;
    return p;
  };

  ir::SecureProgram unhoisted = build();
  const int groups_before = ir::schedule_rounds(unhoisted);
  ir::SecureProgram p = build();
  const int hoisted = ir::parallelize_instances(p);
  EXPECT_GT(hoisted, 0) << "tower-major order must offer hoistable instances";
  const int groups_after = ir::schedule_rounds(p);
  EXPECT_LT(groups_after, groups_before)
      << "hoisting must merge round groups, not just reorder";

  // Purely topological: every edge still points backwards.
  ASSERT_EQ(p.ops.size(), unhoisted.ops.size());
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i].in0 >= 0) {
      EXPECT_LT(p.ops[i].in0, static_cast<int>(i));
    }
    if (p.ops[i].in1 >= 0) {
      EXPECT_LT(p.ops[i].in1, static_cast<int>(i));
    }
  }
  EXPECT_NE(std::find(p.passes_run.begin(), p.passes_run.end(), "parallelize_instances"),
            p.passes_run.end());

  // The merged schedule spends measurably fewer exchanges on the same
  // program (all-relu towers are truncation-free, so both orders open the
  // same values).
  using pasnet::testing::measured_program_rounds;
  EXPECT_LT(measured_program_rounds(p), measured_program_rounds(unhoisted));
}

TEST(IrPasses, ParallelizeInstancesIsANoOpOnAChain) {
  // A straight-line model has nothing to hoist: the pass must leave the
  // order untouched (and report zero hoists).
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 16);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  ir::fold_batchnorm(p);
  const std::vector<ir::Op> before = p.ops;
  EXPECT_EQ(ir::parallelize_instances(p), 0);
  ASSERT_EQ(p.ops.size(), before.size());
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    EXPECT_EQ(p.ops[i].kind, before[i].kind) << "op " << i;
    EXPECT_EQ(p.ops[i].in0, before[i].in0) << "op " << i;
    EXPECT_EQ(p.ops[i].in1, before[i].in1) << "op " << i;
  }
}

TEST(IrPasses, ScheduleRejectsUnfoldedBatchnorm) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 14);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  EXPECT_THROW(ir::schedule_rounds(p), std::logic_error);
}

// ---------------------------------------------------------------------------
// Scheduled (coalesced) program vs per-op program
// ---------------------------------------------------------------------------

TEST(IrExecutor, CoalescedLogitsBitIdenticalToEagerOnAllModels) {
  // Served like a query, the scheduled program reveals the per-op
  // program's logits and moves the same payload bytes in no more rounds or
  // messages — in strictly fewer rounds wherever the scheduler merged
  // stageable ops into a shared group.
  std::uint64_t seed = 20;
  for (auto& md : all_test_models()) {
    auto t = train(md, seed += 2);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork net(t.md, *t.graph, t.node_of_layer, ctx);
    const ir::SecureProgram per_op = one_group_per_op(net.program());

    pc::Prng dprng(seed + 1);
    const auto x =
        nn::Tensor::randn({1, t.md.input_ch, t.md.input_h, t.md.input_w}, dprng, 0.5f);
    proto::Workload wl(net);
    const nn::Tensor logits = wl.run({x}).logits[0];
    const obs::CounterSnapshot& c = wl.chunk_stats()[0].counters;
    const proto::ChunkRun eager = serve_query(net, per_op, 0, x);
    const obs::CounterSnapshot& e = eager.counters;
    expect_bit_identical(logits, eager.results.logits[0], t.md.name.c_str());
    EXPECT_EQ(c.total_bytes(), e.total_bytes()) << t.md.name;
    EXPECT_LE(c[obs::Counter::rounds], e[obs::Counter::rounds]) << t.md.name;
    EXPECT_LE(c[obs::Counter::messages], e[obs::Counter::messages]) << t.md.name;
    if (round_groups(net.program()) < round_groups(per_op)) {
      EXPECT_LT(c[obs::Counter::rounds], e[obs::Counter::rounds]) << t.md.name;
    }
  }
}

TEST(IrExecutor, CoalescedStoreBackedServingBitIdenticalToEager) {
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 40);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork net(t.md, *t.graph, t.node_of_layer, ctx);
  proto::Workload wl(net);
  const ir::SecureProgram per_op = one_group_per_op(net.program());
  // Both programs consume the identical request stream, so one plan feeds
  // both stores.
  const off::PreprocessingPlan per_op_plan = ir::derive_plan(per_op, net.ring());
  EXPECT_EQ(wl.plan().fingerprint(), per_op_plan.fingerprint());

  pc::Prng dprng(41);
  std::vector<nn::Tensor> queries;
  for (int q = 0; q < 3; ++q) queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f));

  off::TripleStore store_c = wl.preprocess(queries.size());
  off::TripleStore store_e = off::OfflineGenerator().generate(
      per_op_plan, queries.size(),
      [](std::size_t q) { return proto::SecureNetwork::query_dealer_seed(q); });
  wl.use_store(&store_c);
  const auto out_c = wl.run(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const proto::ChunkRun eager = serve_query(net, per_op, q, queries[q], &store_e.bundle(q));
    expect_bit_identical(out_c.logits[q], eager.results.logits[0], "store-backed");
  }
}

// ---------------------------------------------------------------------------
// Executor error paths
// ---------------------------------------------------------------------------

TEST(IrExecutor, ThrowingHookLeavesNoStageParked) {
  // A 2-lane batch whose layer hook throws on lane 1 of an op: lane 0's
  // instance is staged at that point — the first conv's openings on the
  // open buffer, the first relu's OT leaves on the OT buffer.  The error
  // propagates and every buffer is empty, so the context can never write
  // through the unwound frame's output pointers.
  auto t = train(tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 60);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  ir::run_standard_passes(p);
  pc::Prng dprng(61);
  const std::vector<nn::Tensor> xs(2, nn::Tensor::randn({1, 2, 8, 8}, dprng, 0.5f));
  for (const ir::OpKind kind : {ir::OpKind::conv, ir::OpKind::relu}) {
    const auto op = std::find_if(p.ops.begin(), p.ops.end(),
                                 [&](const ir::Op& o) { return o.kind == kind; });
    ASSERT_NE(op, p.ops.end());
    pc::TwoPartyContext ctx;
    pc::Prng wprng(62);
    const ir::CompiledParams params = ir::share_parameters(p, wprng, ctx.ring());
    bool parked = false;
    ir::BatchExecOptions opts;
    opts.layer_hook = [&](std::size_t lane, int layer) {
      if (lane != 1 || layer != op->layer) return;
      parked = kind == ir::OpKind::conv ? ctx.opens().has_pending() : ctx.ots().has_pending();
      throw std::runtime_error("hook failure");
    };
    EXPECT_THROW((void)ir::execute_batch(p, params, ctx, xs, opts), std::runtime_error);
    EXPECT_TRUE(parked) << ir::op_kind_name(kind) << ": lane 0 staged nothing";
    EXPECT_FALSE(ctx.opens().has_pending()) << ir::op_kind_name(kind);
    EXPECT_FALSE(ctx.ots().has_pending()) << ir::op_kind_name(kind);
    EXPECT_FALSE(ctx.bit_opens().has_pending()) << ir::op_kind_name(kind);
  }
}

// ---------------------------------------------------------------------------
// Statically derived plan vs the dry-run recorder oracle
// ---------------------------------------------------------------------------

TEST(IrPlan, DerivedPlanMatchesRecorderOracleOnAllModels) {
  std::uint64_t seed = 70;
  for (auto& md : all_test_models()) {
    auto t = train(md, seed += 2);
    ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
    ir::run_standard_passes(p);
    const off::PreprocessingPlan derived = ir::derive_plan(p, pc::RingConfig{});

    // Oracle: one real query through the recording source, layer-tagged.
    pc::TwoPartyContext dry(pc::RingConfig{},
                            proto::SecureNetwork::query_context_seed(0));
    off::RecordingTripleSource recorder(dry.dealer(), dry.ring());
    dry.set_triple_source(&recorder);
    pc::Prng wprng(1);
    const ir::CompiledParams params = ir::share_parameters(p, wprng, dry.ring());
    ir::ExecOptions opts;
    opts.layer_hook = [&recorder](int layer) { recorder.begin_layer(layer); };
    const nn::Tensor zeros({1, t.md.input_ch, t.md.input_h, t.md.input_w});
    (void)ir::execute(p, params, dry, zeros, opts);
    const off::PreprocessingPlan recorded = recorder.take_plan();

    ASSERT_EQ(derived.requests.size(), recorded.requests.size()) << t.md.name;
    for (std::size_t i = 0; i < derived.requests.size(); ++i) {
      EXPECT_TRUE(derived.requests[i] == recorded.requests[i])
          << t.md.name << " request " << i;
    }
    EXPECT_EQ(derived.fingerprint(), recorded.fingerprint()) << t.md.name;
  }
}

TEST(IrPlan, DerivedPlanMatchesOracleForArgmaxPrograms) {
  auto t = train(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 90);
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  ir::run_standard_passes(p);
  ir::append_argmax(p);
  const off::PreprocessingPlan derived = ir::derive_plan(p, pc::RingConfig{});

  pc::TwoPartyContext dry;
  off::RecordingTripleSource recorder(dry.dealer(), dry.ring());
  dry.set_triple_source(&recorder);
  pc::Prng wprng(1);
  const ir::CompiledParams params = ir::share_parameters(p, wprng, dry.ring());
  ir::ExecOptions opts;
  opts.layer_hook = [&recorder](int layer) { recorder.begin_layer(layer); };
  const ir::ExecResult res =
      ir::execute(p, params, dry, nn::Tensor({1, 2, 8, 8}), opts);
  EXPECT_EQ(res.labels.size(), 1u);
  const off::PreprocessingPlan recorded = recorder.take_plan();
  ASSERT_EQ(derived.requests.size(), recorded.requests.size());
  for (std::size_t i = 0; i < derived.requests.size(); ++i) {
    EXPECT_TRUE(derived.requests[i] == recorded.requests[i]) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Label-only inference
// ---------------------------------------------------------------------------

TEST(IrExecutor, ClassifyMatchesPlaintextArgmax) {
  auto t = train(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 100);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  proto::WorkloadOptions copts;
  copts.kind = proto::WorkloadKind::classify;
  proto::Workload classify(snet, copts);
  pc::Prng dprng(101);
  for (int trial = 0; trial < 3; ++trial) {
    const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 0.8f);
    const auto res = classify.run({x});
    ASSERT_EQ(res.labels.size(), 1u);
    ASSERT_EQ(res.labels[0].size(), 1u);
    EXPECT_EQ(res.labels[0][0], nn::argmax_rows(t.graph->forward(x, false))[0]);
  }
}

TEST(IrExecutor, ClassifyRefusesLogitsStore) {
  // A logits-plan store offered to a classify workload must be rejected at
  // attach time: label-only programs consume a different triple stream, so
  // the fingerprints differ (one fingerprint family per workload kind).
  auto t = train(tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool), 110);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(t.md, *t.graph, t.node_of_layer, ctx);
  off::TripleStore store = proto::Workload(snet).preprocess(1);
  proto::WorkloadOptions copts;
  copts.kind = proto::WorkloadKind::classify;
  proto::Workload classify(snet, copts);
  EXPECT_THROW(classify.use_store(&store), std::invalid_argument);
}
