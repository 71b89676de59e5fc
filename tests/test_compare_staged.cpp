// Differential bit-identity harness for the staged (resumable) comparison
// stack: the scheduled program — whose round groups advance every
// ReLU/maxpool instance in lockstep through shared OT, AND-tree and open
// rounds — must reproduce the per-op program's (testing::one_group_per_op,
// the eager op-at-a-time order) secret shares request for request, op for
// op, on every support/test_models.hpp model, dealer-backed and
// TripleStore-backed (served over worker pools).  Plus the one-shot ReLU
// against its composed protocols, and seeded randomized property tests for
// millionaire_gt / drelu over adversarial fixed-point edge values.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/passes.hpp"
#include "ir/plan.hpp"
#include "offline/triple_store.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::all_test_models;
using pasnet::testing::one_group_per_op;
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

void expect_bit_identical(const nn::Tensor& a, const nn::Tensor& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << what << " logit " << i;
}

/// One K-lane run of a program: what it reveals and every op's output
/// shares per lane.  Context and parameter seeds are fixed, so two runs
/// differ only in their round grouping.
struct LaneRun {
  ir::BatchExecResult out;
  std::vector<std::vector<pc::Shared>> shares;  ///< [op][lane]
  std::size_t delivered = 0;
};

LaneRun run_lanes(const ir::SecureProgram& p, const std::vector<nn::Tensor>& xs) {
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42);
  pc::Prng wprng(7);
  const ir::CompiledParams params = ir::share_parameters(p, wprng, ctx.ring());
  LaneRun r;
  r.shares.assign(p.ops.size(), std::vector<pc::Shared>(xs.size()));
  ir::BatchExecOptions opts;
  opts.op_hook = [&r](std::size_t lane, std::size_t op, const proto::SecureTensor& t) {
    r.shares[op][lane] = t.shares;
    ++r.delivered;
  };
  r.out = ir::execute_batch(p, params, ctx, xs, opts);
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scheduled vs per-op program: per-op shares, all models
// ---------------------------------------------------------------------------

TEST(CompareStaged, PerOpSharesBitIdenticalToEagerOnAllModels) {
  // The two programs draw every PRNG and dealer stream — random OTs
  // included — in the same order, so not just the logits (or labels) but
  // every intermediate op's secret shares on every lane — an argmax
  // terminal's index shares included — must match bit for bit, for a
  // single query and a 4-lane batch.
  std::uint64_t seed = 500;
  for (auto& md : all_test_models()) {
    auto t = train(md, seed += 2);
    ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
    ir::run_standard_passes(p);
    ir::SecureProgram classify = p;
    ir::append_argmax(classify);
    for (const ir::SecureProgram* prog : {&p, &classify}) {
      const ir::SecureProgram per_op = one_group_per_op(*prog);
      for (const std::size_t lanes : {1, 4}) {
        const std::string at = t.md.name + (prog == &p ? " logits K=" : " classify K=") +
                               std::to_string(lanes);
        pc::Prng dprng(seed + 1);
        std::vector<nn::Tensor> xs;
        for (std::size_t q = 0; q < lanes; ++q) {
          xs.push_back(
              nn::Tensor::randn({1, t.md.input_ch, t.md.input_h, t.md.input_w}, dprng, 0.5f));
        }
        const LaneRun grouped = run_lanes(*prog, xs);
        const LaneRun separate = run_lanes(per_op, xs);
        ASSERT_EQ(grouped.delivered, prog->ops.size() * lanes) << at;
        ASSERT_EQ(separate.delivered, grouped.delivered) << at;
        for (std::size_t op = 0; op < prog->ops.size(); ++op) {
          for (std::size_t q = 0; q < lanes; ++q) {
            ASSERT_EQ(grouped.shares[op][q].s0, separate.shares[op][q].s0)
                << at << ": op " << op << " lane " << q << " share 0 diverged";
            ASSERT_EQ(grouped.shares[op][q].s1, separate.shares[op][q].s1)
                << at << ": op " << op << " lane " << q << " share 1 diverged";
          }
        }
        ASSERT_EQ(grouped.out.logits.size(), separate.out.logits.size()) << at;
        for (std::size_t q = 0; q < grouped.out.logits.size(); ++q) {
          expect_bit_identical(grouped.out.logits[q], separate.out.logits[q], at.c_str());
        }
        EXPECT_EQ(grouped.out.labels, separate.out.labels) << at;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dealer-backed vs TripleStore-backed serving under the staged stack
// ---------------------------------------------------------------------------

TEST(CompareStaged, StoreBackedStagedServingBitIdenticalAcrossSchedules) {
  for (auto md : {tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool),
                  proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool)}) {
    auto t = train(std::move(md), 640);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork net(t.md, *t.graph, t.node_of_layer, ctx);
    proto::Workload wl_s(net, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/2});
    proto::Workload wl_d(net);
    const ir::SecureProgram per_op = one_group_per_op(net.program());
    // The staged comparison phases consume the identical request stream
    // however the ops are grouped, so one plan fingerprint covers both.
    ASSERT_EQ(ir::derive_plan(per_op, net.ring()).fingerprint(), wl_s.plan().fingerprint())
        << t.md.name;

    pc::Prng dprng(641);
    std::vector<nn::Tensor> queries;
    for (int q = 0; q < 2; ++q) {
      queries.push_back(
          nn::Tensor::randn({1, t.md.input_ch, t.md.input_h, t.md.input_w}, dprng, 0.8f));
    }
    off::TripleStore store_s = wl_s.preprocess(queries.size());
    off::TripleStore store_p = wl_s.preprocess(queries.size());
    wl_s.use_store(&store_s);
    const auto out_s = wl_s.run(queries).logits;
    const auto out_d = wl_d.run(queries).logits;  // fused dealer path
    for (std::size_t q = 0; q < queries.size(); ++q) {
      // The per-op program served from its own store through the chunk
      // runner Workload::run uses, on the query's canonical context.
      pc::TwoPartyContext cctx(net.ring(), proto::SecureNetwork::query_context_seed(q));
      const proto::ChunkRun per_op_run =
          proto::run_chunk(cctx, per_op, net.params(), {proto::ChunkLane{q, &store_p.bundle(q)}},
                           {queries[q]}, {}, nullptr);
      expect_bit_identical(out_s[q], per_op_run.results.logits[0], "store scheduled vs per-op");
      expect_bit_identical(out_s[q], out_d[q], "store vs dealer");
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded randomized property tests over adversarial edge values
// ---------------------------------------------------------------------------

namespace {

/// 63-bit non-negative adversarial operands for the millionaire protocol:
/// zeros, ±1 neighbours, digit boundaries, the sign-boundary band and the
/// extremes, padded with seeded randoms.
std::vector<std::uint64_t> adversarial_values(pc::Prng& prng, std::size_t n) {
  const std::uint64_t max63 = (1ULL << 63) - 1;
  std::vector<std::uint64_t> edges = {
      0,
      1,
      2,
      3,
      4,
      (1ULL << 31) - 1,  // 2^31 - 1
      1ULL << 31,
      (1ULL << 31) + 1,
      (1ULL << 62) - 1,
      1ULL << 62,
      max63 - 1,
      max63,
  };
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(i < edges.size() ? edges[i] : prng.next_u64() & max63);
  }
  return out;
}

}  // namespace

TEST(CompareStaged, MillionaireAgreesWithPlaintextOnAdversarialPairs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    pc::TwoPartyContext ctx(pc::RingConfig{}, seed);
    pc::Prng prng(seed * 977);
    const std::size_t n = 24;
    std::vector<std::uint64_t> a = adversarial_values(prng, n);
    std::vector<std::uint64_t> b = adversarial_values(prng, n);
    // Mix in equal and off-by-one pairs (the AND-tree's eq-chain edge).
    for (std::size_t i = 0; i < n; i += 3) b[i] = a[i];
    for (std::size_t i = 1; i < n; i += 4) b[i] = a[i] > 0 ? a[i] - 1 : a[i] + 1;
    const auto gt = pc::millionaire_gt(ctx, a, b, 63);
    const auto bits = pc::reconstruct_bits(gt);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits[i], a[i] > b[i] ? 1 : 0)
          << "seed " << seed << " pair " << i << ": " << a[i] << " vs " << b[i];
    }
  }
}

namespace {

/// A ring value with |x| < 2^31 (inside the comparison window), uniform in
/// [-(2^31 - 1), 2^31 - 1].
std::uint64_t in_window(pc::Prng& prng, const pc::RingConfig& rc) {
  const auto mag = static_cast<std::int64_t>(prng.next_u64() & ((1ULL << 31) - 1));
  return pc::from_signed((prng.next_u64() & 1) ? -mag : mag, rc);
}

/// DReLU of `edges` (padded to 32 values with `fill` draws) against the
/// plaintext sign, over six context seeds.
template <typename Fill>
void expect_drelu_matches_sign(const pc::RingConfig& rc, const pc::RingVec& edges, Fill fill) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    pc::TwoPartyContext ctx(rc, seed);
    pc::Prng prng(seed * 31);
    pc::RingVec vals = edges;
    while (vals.size() < 32) vals.push_back(fill(prng));
    const pc::Shared x = pc::share(vals, prng, rc);
    const auto d = pc::drelu(ctx, x);
    const auto bits = pc::reconstruct_bits(d);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_EQ(bits[i], pc::to_signed(vals[i], rc) >= 0 ? 1 : 0)
          << rc.bits << "-bit ring, seed " << seed << " value " << vals[i];
    }
  }
}

}  // namespace

TEST(CompareStaged, DreluAgreesWithPlaintextSignOnEdgeValues) {
  // The 64-bit ring compares in the 32-bit window: every |x| < 2^31 ring
  // units.  Edge values: 0, ±1 LSB, ±1.0 in fixed point, ±(2^31 - 1) and
  // -2^31 (the window's extremes), plus seeded randoms in the window.
  const pc::RingConfig rc{};
  const std::uint64_t max31 = (1ULL << 31) - 1;
  pc::RingVec edges = {0, 1, rc.mask(), pc::encode(1.0, rc), pc::encode(-1.0, rc)};
  edges.insert(edges.end(), {max31, pc::ring_neg(max31, rc), pc::ring_neg(max31 + 1, rc)});
  expect_drelu_matches_sign(rc, edges, [&](pc::Prng& p) { return in_window(p, rc); });
}

TEST(CompareStaged, DreluOnA32BitRingIsExactOverTheWholeRing) {
  // A ring no wider than the window is its own window: DReLU is exact on
  // every ring value, the ring's own sign boundary included.
  const pc::RingConfig rc{32, 12};
  const std::uint64_t sign = rc.sign_bit();
  pc::RingVec edges = {0, 1, rc.mask(), pc::encode(1.0, rc), pc::encode(-1.0, rc)};
  edges.insert(edges.end(), {sign - 1, sign, sign + 1});  // most-positive, most-negative
  expect_drelu_matches_sign(rc, edges, [&](pc::Prng& p) { return p.next_u64() & rc.mask(); });
}

TEST(CompareStaged, StagedReluMatchesBlockingReluSharewise) {
  // The one-shot relu drives the staged DReLU-mux the executor groups; it
  // must equal the blocking protocols it is made of, run one after the
  // other on a context of the same seed — DReLU, then the one-shot mux
  // tail — share for share and exchange for exchange (same material in
  // the same order, same arithmetic).
  const pc::RingConfig rc{};
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    pc::Prng prng(seed);
    pc::RingVec vals(40);
    for (auto& v : vals) v = in_window(prng, rc);
    pc::TwoPartyContext ctx_a(rc, 9000 + seed), ctx_b(rc, 9000 + seed);
    const pc::Shared xa = pc::share(vals, prng, rc);
    const pc::Shared out_a = pc::relu(ctx_a, xa);
    const pc::Shared out_b = pc::mux(ctx_b, pc::drelu(ctx_b, xa), xa);
    ASSERT_EQ(out_a.s0, out_b.s0);
    ASSERT_EQ(out_a.s1, out_b.s1);
    EXPECT_EQ(ctx_a.stats().rounds, ctx_b.stats().rounds);
    EXPECT_EQ(ctx_a.stats().total_bytes(), ctx_b.stats().total_bytes());
    // Reconstruction matches plaintext ReLU of the signed values.
    const auto r = pc::reconstruct(out_a, rc);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const std::int64_t sv = pc::to_signed(vals[i], rc);
      EXPECT_EQ(pc::to_signed(r[i], rc), sv >= 0 ? sv : 0) << "value " << i;
    }
  }
}
