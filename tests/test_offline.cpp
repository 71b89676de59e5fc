// Offline preprocessing subsystem: plan compilation, store-backed serving
// (bit-identical to the dealer path, lockstep and across worker pairs),
// exhaustion policies, and (de)serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "offline/offline_generator.hpp"
#include "offline/ot_triple_source.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

namespace {

/// Trained tiny model (with a ReLU + MaxPool so the plan covers bit-triple
/// and comparison machinery, plus the conv bilinear and the FC matmul).
struct SecureFixture {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
  std::vector<nn::Tensor> queries;

  explicit SecureFixture(nn::OpKind act = nn::OpKind::relu,
                         nn::OpKind pool = nn::OpKind::maxpool, int num_queries = 3)
      : md(pasnet::testing::tiny_cnn(act, pool)) {
    pc::Prng wprng(31);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*graph, 2, 8, 32);
    pc::Prng qprng(33);
    for (int q = 0; q < num_queries; ++q) {
      queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, qprng, 1.0f));
    }
  }
};

void expect_bit_identical(const std::vector<nn::Tensor>& a, const std::vector<nn::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size());
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      ASSERT_EQ(a[q][i], b[q][i]) << "query " << q << " element " << i;
    }
  }
}

}  // namespace

TEST(PreprocessingPlan, CountsMatchDealerConsumption) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  proto::Workload workload(snet);
  const off::PreprocessingPlan& plan = workload.plan();
  ASSERT_FALSE(plan.requests.empty());

  // A real dealer-backed query must draw once per planned request (the
  // IrPlan recorder-oracle tests pin each draw's kind and shape).
  (void)workload.run({f.queries[0]});
  ASSERT_EQ(workload.chunk_stats().size(), 1u);
  EXPECT_EQ(workload.chunk_stats()[0].counters[obs::Counter::triple_claims],
            plan.requests.size());
  // The tiny model's conv consumes a product triple and ReLU consumes bit
  // triples; every request must be layer-tagged.
  const auto has = [&](off::TripleKind kind) {
    return std::any_of(plan.requests.begin(), plan.requests.end(),
                       [&](const off::TripleRequest& r) { return r.kind == kind; });
  };
  EXPECT_TRUE(has(off::TripleKind::bilinear));
  EXPECT_TRUE(has(off::TripleKind::bit));
  for (const off::TripleRequest& r : plan.requests) EXPECT_GE(r.layer, 0);
}

TEST(PreprocessingPlan, FingerprintDiscriminatesModels) {
  SecureFixture relu(nn::OpKind::relu, nn::OpKind::maxpool);
  SecureFixture poly(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::TwoPartyContext c1, c2;
  proto::SecureNetwork s1(relu.md, *relu.graph, relu.node_of_layer, c1);
  proto::SecureNetwork s2(poly.md, *poly.graph, poly.node_of_layer, c2);
  proto::Workload w1(s1), w2(s2);
  EXPECT_NE(w1.plan().fingerprint(), w2.plan().fingerprint());
  EXPECT_EQ(w1.plan().fingerprint(), proto::Workload(s1).plan().fingerprint());
}

TEST(TripleStore, StoreBackedBatchMatchesDealerPathAcrossWorkerCounts) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);

  // Fused dealer baseline.
  proto::Workload dealer_wl(snet);
  const auto dealer_logits = dealer_wl.run(f.queries).logits;
  const auto dealer_stats = dealer_wl.chunk_stats();

  for (const int workers : {1, 4}) {
    proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, workers});
    off::TripleStore store = wl.preprocess(f.queries.size(), /*threads=*/2);
    wl.use_store(&store);
    const auto store_logits = wl.run(f.queries).logits;
    expect_bit_identical(dealer_logits, store_logits);
    // The online phase consumed exactly the same correlated randomness.
    for (std::size_t q = 0; q < f.queries.size(); ++q) {
      EXPECT_EQ(wl.chunk_stats()[q].counters.total_bytes(),
                dealer_stats[q].counters.total_bytes());
      EXPECT_EQ(wl.chunk_stats()[q].counters[obs::Counter::triple_claims],
                dealer_stats[q].counters[obs::Counter::triple_claims]);
    }
    EXPECT_EQ(store.remaining_queries(), 0u);
  }
}

TEST(TripleStore, StoreBackedServingOnThreadedMasterContextMatchesDealerPath) {
  // The master context's mode must not affect store-backed serving: each
  // query runs on its own canonically seeded lockstep context either way,
  // so a threaded serving deployment reconstructs the same logits.
  SecureFixture f;
  pc::TwoPartyContext lockstep_ctx;
  proto::SecureNetwork baseline(f.md, *f.graph, f.node_of_layer, lockstep_ctx);
  const auto dealer_logits = proto::Workload(baseline).run(f.queries).logits;

  pc::TwoPartyContext threaded_ctx(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, threaded_ctx);
  proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/4});
  off::TripleStore store = wl.preprocess(f.queries.size(), 2);
  wl.use_store(&store);
  const auto store_logits = wl.run(f.queries).logits;
  expect_bit_identical(dealer_logits, store_logits);
}

TEST(TripleStore, LoadRejectsHugeLengthFieldWithoutAllocating) {
  // A corrupt length field must surface as runtime_error (truncated input),
  // not as a multi-gigabyte allocation attempt.
  std::stringstream buf;
  std::size_t first_len = 0;
  {
    SecureFixture f(nn::OpKind::x2act, nn::OpKind::avgpool, 1);
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
    const off::TripleStore store = proto::Workload(snet).preprocess(1);
    ASSERT_FALSE(store.bundle(0).square.empty());
    first_len = store.bundle(0).square[0].a.s0.size();
    store.save(buf);
  }
  std::string bytes = buf.str();
  // Overwrite the first bundle's first vector length — its first square
  // pair's, right after the 7-u64 header and the 4-u64 pool counts — with
  // an enormous value.
  const std::size_t off_len = (7 + 4) * 8;
  ASSERT_GT(bytes.size(), off_len + 8);
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i) {
    len |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[off_len + i])) << (8 * i);
  }
  ASSERT_EQ(len, first_len);
  for (int i = 0; i < 8; ++i) bytes[off_len + i] = static_cast<char>(0xEF);
  std::stringstream corrupt(bytes);
  EXPECT_THROW((void)off::TripleStore::load(corrupt), std::runtime_error);
}

TEST(TripleStore, StoreBackedSingleInfersMatchDealerBatch) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  const auto dealer_logits = proto::Workload(snet).run(f.queries).logits;

  // Stream positions continue across run() calls, so submitting the
  // queries one at a time replays the same canonical per-query transcripts.
  proto::Workload wl(snet);
  off::TripleStore store = wl.preprocess(f.queries.size());
  wl.use_store(&store);
  for (std::size_t q = 0; q < f.queries.size(); ++q) {
    const nn::Tensor logits = std::move(wl.run({f.queries[q]}).logits[0]);
    ASSERT_EQ(logits.size(), dealer_logits[q].size());
    for (std::size_t i = 0; i < logits.size(); ++i) EXPECT_EQ(logits[i], dealer_logits[q][i]);
  }
}

TEST(TripleStore, ThrowPolicyRaisesOnExhaustion) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  const nn::Tensor dealer_first = std::move(proto::Workload(snet).run({f.queries[0]}).logits[0]);
  proto::Workload wl(snet);
  off::TripleStore store = wl.preprocess(1);
  wl.use_store(&store);
  EXPECT_THROW((void)wl.run(f.queries), off::TripleStoreExhausted);
  // A run the store cannot cover claims nothing and advances nothing...
  EXPECT_EQ(store.remaining_queries(), 1u);
  EXPECT_EQ(wl.queries_served(), 0u);
  // ...so a run that fits is still served the first bundle at position 0.
  const nn::Tensor logits = std::move(wl.run({f.queries[0]}).logits[0]);
  ASSERT_EQ(logits.size(), dealer_first.size());
  for (std::size_t i = 0; i < logits.size(); ++i) EXPECT_EQ(logits[i], dealer_first[i]);
  EXPECT_EQ(store.remaining_queries(), 0u);
}

TEST(TripleStore, SerializationRoundTripServesIdentically) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  const auto dealer_logits = proto::Workload(snet).run(f.queries).logits;

  proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/4});
  const off::TripleStore produced = wl.preprocess(f.queries.size());
  std::stringstream buf;
  produced.save(buf);
  EXPECT_EQ(static_cast<std::uint64_t>(buf.str().size()), produced.material_bytes());

  off::TripleStore loaded = off::TripleStore::load(buf);
  EXPECT_EQ(loaded.plan_fingerprint(), produced.plan_fingerprint());
  EXPECT_EQ(loaded.num_queries(), produced.num_queries());

  wl.use_store(&loaded);
  const auto logits = wl.run(f.queries).logits;
  expect_bit_identical(dealer_logits, logits);
}

TEST(TripleStore, LoadRejectsGarbage) {
  std::stringstream buf("definitely not a triple store");
  EXPECT_THROW((void)off::TripleStore::load(buf), std::runtime_error);
}

TEST(TripleStore, UseStoreRejectsForeignFingerprint) {
  SecureFixture relu(nn::OpKind::relu, nn::OpKind::maxpool);
  SecureFixture poly(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::TwoPartyContext c1, c2;
  proto::SecureNetwork s1(relu.md, *relu.graph, relu.node_of_layer, c1);
  proto::SecureNetwork s2(poly.md, *poly.graph, poly.node_of_layer, c2);
  off::TripleStore store = proto::Workload(s2).preprocess(1);
  proto::Workload w1(s1);
  EXPECT_THROW(w1.use_store(&store), std::invalid_argument);
}

TEST(OfflineGenerator, ThreadedGenerationMatchesSequential) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  proto::Workload wl(snet);
  off::GenerationReport seq_rep, par_rep;
  const off::TripleStore seq = wl.preprocess(4, /*threads=*/1, &seq_rep);
  const off::TripleStore par = wl.preprocess(4, /*threads=*/4, &par_rep);
  EXPECT_EQ(seq_rep.ring_material_elems, par_rep.ring_material_elems);
  EXPECT_GT(seq_rep.ring_material_elems, 0u);
  EXPECT_EQ(par_rep.threads, 4);

  std::stringstream a, b;
  seq.save(a);
  par.save(b);
  EXPECT_EQ(a.str(), b.str());  // byte-identical material, any thread count
}

TEST(OfflineGenerator, ReportSizesMatchPlanArithmetic) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  proto::Workload wl(snet);
  off::GenerationReport rep;
  const off::TripleStore store = wl.preprocess(2, 1, &rep);
  EXPECT_EQ(rep.queries, 2u);
  EXPECT_EQ(rep.ring_material_elems, 2 * wl.plan().material_elems_per_query());
  EXPECT_EQ(rep.bit_triples, 2 * wl.plan().bit_triples_per_query());
  EXPECT_EQ(rep.store_bytes, store.material_bytes());
}

TEST(OfflineGenerator, DealerStoreEqualsOtExtBundlesOfTheRealPlan) {
  // The dealer simulation and the genuine 2PC OT-extension protocol (both
  // roles in process, seeded from the canonical half streams) realize the
  // same triple functionality: on every tiny model's logits and label-only
  // plans — the comparisons' bit-injection tails included, with two
  // payloads in the argmax tournament — every bundle the OT-extension run
  // produces equals the dealer generator's byte for byte, and the store it
  // fills serves bit-identically to the fused dealer path.
  for (const nn::OpKind act : {nn::OpKind::relu, nn::OpKind::x2act}) {
    for (const nn::OpKind pool : {nn::OpKind::maxpool, nn::OpKind::avgpool}) {
      SecureFixture f(act, pool);
      pc::TwoPartyContext ctx;
      proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
      for (const proto::WorkloadKind kind :
           {proto::WorkloadKind::logits, proto::WorkloadKind::classify}) {
        SCOPED_TRACE(f.md.name + (kind == proto::WorkloadKind::logits ? " logits" : " classify"));
        proto::Workload wl(snet, {kind});
        const off::PreprocessingPlan plan = wl.plan();
        const std::size_t n = f.queries.size();
        const off::TripleStore dealer =
            off::OfflineGenerator(2).generate(plan, n, proto::SecureNetwork::query_dealer_seed);
        off::TripleStore otext(plan.ring, plan.fingerprint(), n);
        std::vector<std::uint64_t> seeds;
        for (std::size_t q = 0; q < n; ++q) {
          seeds.push_back(proto::SecureNetwork::query_dealer_seed(q));
        }
        pc::TwoPartyContext gctx(plan.ring);
        off::generate_bundles_ot_ext(plan, gctx, seeds, &otext.bundle(0));
        std::stringstream a, b;
        dealer.save(a);
        otext.save(b);
        EXPECT_EQ(a.str(), b.str());

        const proto::WorkloadResult fused = proto::Workload(snet, {kind}).run(f.queries);
        wl.use_store(&otext);
        const proto::WorkloadResult served = wl.run(f.queries);
        expect_bit_identical(fused.logits, served.logits);
        EXPECT_EQ(fused.labels, served.labels);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Label-only (classify) store serving — the argmax program's own plan
// fingerprint and preprocess entry point.
// ---------------------------------------------------------------------------

TEST(ClassifyStore, ClassifyPlanFingerprintsDifferentlyFromLogitsPlan) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  // The argmax terminal consumes extra comparisons and selector triples,
  // so a logits store must never serve a classify workload (or vice versa).
  proto::Workload logits_wl(snet);
  proto::Workload classify_wl(snet, {proto::WorkloadKind::classify});
  EXPECT_NE(logits_wl.plan().fingerprint(), classify_wl.plan().fingerprint());
  EXPECT_GT(classify_wl.plan().requests.size(), logits_wl.plan().requests.size());
}

TEST(ClassifyStore, StoreBackedClassifyMatchesDealerPathBitIdentically) {
  SecureFixture f;
  pc::TwoPartyContext c_store;
  proto::SecureNetwork served(f.md, *f.graph, f.node_of_layer, c_store);
  proto::Workload served_wl(served, {proto::WorkloadKind::classify});
  off::TripleStore store = served_wl.preprocess(3);
  EXPECT_EQ(store.plan_fingerprint(), served_wl.plan().fingerprint());
  served_wl.use_store(&store);
  // The dealer-path reference: an independent classify workload walks the
  // same canonical stream positions, so its labels are the transcript the
  // store-served run must replay.
  pc::TwoPartyContext c_ref;
  proto::SecureNetwork ref(f.md, *f.graph, f.node_of_layer, c_ref);
  proto::Workload ref_wl(ref, {proto::WorkloadKind::classify});
  const auto served_labels = served_wl.run(f.queries).labels;
  const auto ref_labels = ref_wl.run(f.queries).labels;
  for (std::size_t q = 0; q < f.queries.size(); ++q) {
    EXPECT_EQ(served_labels[q], ref_labels[q]) << "query " << q;
  }
}

TEST(ClassifyStore, StoreKindsRefuseTheWrongEntryPoint) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  proto::Workload logits_wl(snet);
  proto::Workload classify_wl(snet, {proto::WorkloadKind::classify});
  off::TripleStore classify_store = classify_wl.preprocess(1);
  EXPECT_THROW(logits_wl.use_store(&classify_store), std::invalid_argument);
  off::TripleStore logits_store = logits_wl.preprocess(1);
  EXPECT_THROW(classify_wl.use_store(&logits_store), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hostile/truncated store files: typed errors, never hangs or UB (run under
// the ASan leg).
// ---------------------------------------------------------------------------

namespace {

/// A small serialized store to corrupt.
std::string serialized_tiny_store() {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  std::ostringstream os(std::ios::binary);
  proto::Workload(snet).preprocess(1).save(os);
  return os.str();
}

/// A conv2d spec: 2×4×4 input, 3 outputs, 3×3 kernel, pad 1.
pc::BilinearSpec small_conv() {
  pc::BilinearSpec s;
  s.in_ch = 2;
  s.in_h = s.in_w = 4;
  s.out_ch = 3;
  s.kernel = 3;
  s.pad = 1;
  return s;
}

/// A bundle holding one product triple of `spec` whose z side has a single
/// element: the shape Beaver recombination would read past.
off::QueryBundle short_z_bundle(const pc::BilinearSpec& spec) {
  pc::TripleDealer dealer(pc::RingConfig{}, 5);
  off::QueryBundle b;
  b.bilinear.push_back(dealer.bilinear_triple(spec));
  b.bilinear[0].z.s0.resize(1);
  b.bilinear[0].z.s1.resize(1);
  return b;
}

std::string encode(const off::QueryBundle& b) {
  std::ostringstream os(std::ios::binary);
  off::write_bundle(os, b);
  return os.str();
}

off::QueryBundle decode(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return off::read_bundle(is);
}

}  // namespace

TEST(TripleStoreHostile, LoadRejectsBadMagic) {
  std::string bytes = serialized_tiny_store();
  bytes[0] ^= 0x5A;  // flip magic bits
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)off::TripleStore::load(is), std::runtime_error);
}

TEST(TripleStoreHostile, LoadRejectsVersionSkew) {
  // A future version, and every earlier one — v5 lacked the bit-injection
  // flag, v4 still kept elem and matmul pools, v3 the provenance word, v2
  // also lacked the random-OT pool: a store is single-use material, so
  // older files are regenerated, not decoded.
  for (const char version : {'\x7F', '\x05', '\x04', '\x03', '\x02', '\x01'}) {
    std::string bytes = serialized_tiny_store();
    ASSERT_EQ(bytes[8], '\x06');
    bytes[8] = version;  // version field (little-endian u64 at offset 8)
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW((void)off::TripleStore::load(is), std::runtime_error) << int(version);
  }
}

TEST(TripleStoreHostile, LoadRejectsTruncatedBundle) {
  const std::string bytes = serialized_tiny_store();
  // Cut the stream mid-bundle at several depths: every truncation must be
  // a typed runtime_error, never a hang, crash, or giant allocation.
  for (const double frac : {0.30, 0.60, 0.90, 0.99}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(bytes.size()) * frac);
    std::istringstream is(bytes.substr(0, cut), std::ios::binary);
    EXPECT_THROW((void)off::TripleStore::load(is), std::runtime_error) << "cut at " << cut;
  }
}

TEST(TripleStoreHostile, BundleCodecRoundTripsAndRejectsTruncation) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  off::TripleStore store = proto::Workload(snet).preprocess(1);
  std::ostringstream os(std::ios::binary);
  off::write_bundle(os, store.bundle(0));
  const std::string bytes = os.str();
  {
    std::istringstream is(bytes, std::ios::binary);
    const off::QueryBundle rt = off::read_bundle(is);
    EXPECT_EQ(rt.bit.size(), store.bundle(0).bit.size());
    ASSERT_EQ(rt.bilinear.size(), store.bundle(0).bilinear.size());
    for (std::size_t i = 0; i < rt.bilinear.size(); ++i) {
      EXPECT_EQ(rt.bilinear[i].spec, store.bundle(0).bilinear[i].spec) << i;
      EXPECT_EQ(rt.bilinear[i].z.s1, store.bundle(0).bilinear[i].z.s1) << i;
    }
  }
  std::istringstream is(bytes.substr(0, bytes.size() / 2), std::ios::binary);
  EXPECT_THROW((void)off::read_bundle(is), std::runtime_error);
}

TEST(TripleStoreHostile, PartySlicingZeroesExactlyThePeerHalves) {
  SecureFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  off::TripleStore store = proto::Workload(snet).preprocess(1);
  const off::QueryBundle& full = store.bundle(0);
  const off::QueryBundle p0 = off::slice_bundle_for_party(full, 0);
  const off::QueryBundle p1 = off::slice_bundle_for_party(full, 1);
  ASSERT_FALSE(full.bilinear.empty());
  // Own halves survive verbatim; peer halves are zero at equal length.
  EXPECT_EQ(p0.bilinear[0].spec, full.bilinear[0].spec);
  EXPECT_EQ(p0.bilinear[0].a.s0, full.bilinear[0].a.s0);
  EXPECT_EQ(p1.bilinear[0].a.s1, full.bilinear[0].a.s1);
  EXPECT_EQ(p0.bilinear[0].a.s1.size(), full.bilinear[0].a.s1.size());
  for (const auto v : p0.bilinear[0].a.s1) EXPECT_EQ(v, 0u);
  for (const auto v : p1.bilinear[0].a.s0) EXPECT_EQ(v, 0u);
  ASSERT_FALSE(full.bit.empty());
  EXPECT_EQ(p0.bit[0].a0, full.bit[0].a0);
  for (const auto v : p0.bit[0].c1) EXPECT_EQ(v, 0);
  // A comparison tail's bit-injection triple: each slice keeps its own
  // share of the bit — whose low bit is its XOR half — and zeroes the
  // peer's.
  std::size_t inj = 0;
  while (inj < full.bilinear.size() && !full.bilinear[inj].spec.bit_b) ++inj;
  ASSERT_LT(inj, full.bilinear.size());
  const pc::Shared& bit = full.bilinear[inj].b;
  EXPECT_EQ(p0.bilinear[inj].b.s0, bit.s0);
  EXPECT_EQ(p1.bilinear[inj].b.s1, bit.s1);
  EXPECT_EQ(p0.bilinear[inj].b.s1, pc::RingVec(bit.s1.size(), 0));
  EXPECT_EQ(p1.bilinear[inj].b.s0, pc::RingVec(bit.s0.size(), 0));
  // Random OTs (party 1 sends in the comparison leaves): the receiver's
  // slice holds no sender pad, the sender's no choice and no chosen pad.
  ASSERT_FALSE(full.rot.empty());
  const pc::RandomOt& rot = full.rot[0];
  ASSERT_EQ(rot.sender, 1);
  EXPECT_EQ(p0.rot[0].choice, rot.choice);
  EXPECT_EQ(p0.rot[0].chosen, rot.chosen);
  EXPECT_EQ(p0.rot[0].pads, std::vector<std::uint8_t>(rot.pads.size(), 0));
  EXPECT_EQ(p1.rot[0].pads, rot.pads);
  EXPECT_EQ(p1.rot[0].choice, std::vector<std::uint8_t>(rot.choice.size(), 0));
  EXPECT_EQ(p1.rot[0].chosen, std::vector<std::uint8_t>(rot.chosen.size(), 0));
}

TEST(TripleStoreHostile, ShortTripleSidesAreRefusedBeforeRecombination) {
  // A square pair and four product kinds whose z side has one element, a
  // comparison tail's bit-injection triple among them.
  off::QueryBundle square;
  square.square.push_back(pc::TripleDealer(pc::RingConfig{}, 5).square_pair(64));
  square.square[0].z.s0.resize(1);
  square.square[0].z.s1.resize(1);
  const pc::BilinearSpec specs[] = {pc::BilinearSpec::hadamard(64),
                                    pc::BilinearSpec::matmul(4, 5, 3), small_conv(),
                                    pc::BilinearSpec::bit_injection(64, 2)};
  std::vector<off::QueryBundle> crafted{square};
  for (const pc::BilinearSpec& spec : specs) crafted.push_back(short_z_bundle(spec));
  for (std::size_t c = 0; c < crafted.size(); ++c) {
    SCOPED_TRACE(c);
    // The codec refuses it, alone or inside a store file...
    EXPECT_THROW((void)decode(encode(crafted[c])), std::runtime_error);
    off::TripleStore store(pc::RingConfig{}, 0, 1);
    store.bundle(0) = crafted[c];
    std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
    store.save(file);
    EXPECT_THROW((void)off::TripleStore::load(file), std::runtime_error);
    // ...and a store source checks every side against the request.
    off::StoreTripleSource src(crafted[c]);
    if (c == 0) {
      EXPECT_THROW((void)src.square_pair(64), std::logic_error);
    } else {
      EXPECT_THROW((void)src.bilinear_triple(specs[c - 1]), std::logic_error);
    }
  }
}

TEST(TripleStoreHostile, BundleCodecRefusesOutOfRangeProductSpecs) {
  pc::TripleDealer dealer(pc::RingConfig{}, 8);
  off::QueryBundle good;
  good.bilinear.push_back(dealer.bilinear_triple(small_conv()));
  const off::QueryBundle rt = decode(encode(good));
  ASSERT_EQ(rt.bilinear.size(), 1u);
  EXPECT_EQ(rt.bilinear[0].spec, small_conv());
  EXPECT_EQ(rt.bilinear[0].z.s0, good.bilinear[0].z.s0);

  const auto refused = [&](const auto& corrupt) {
    off::QueryBundle b = good;
    corrupt(b.bilinear[0].spec);
    EXPECT_THROW((void)decode(encode(b)), std::runtime_error);
  };
  // Stride 0 is refused before out_h() would divide by it.
  refused([](pc::BilinearSpec& s) { s.stride = 0; });
  refused([](pc::BilinearSpec& s) { s.kernel = 0; });
  refused([](pc::BilinearSpec& s) { s.kernel = 7; });  // no output pixel
  refused([](pc::BilinearSpec& s) { s.pad = -1; });
  refused([](pc::BilinearSpec& s) { s.kind = static_cast<pc::BilinearKind>(9); });
  refused([](pc::BilinearSpec& s) { s.bit_b = true; });  // bit injection is hadamard-only
  // Sizes past the codec's cap, and a spec that disagrees with the sides.
  refused([](pc::BilinearSpec& s) { s.batch = s.in_ch = s.in_h = s.in_w = 1 << 20; });
  refused([](pc::BilinearSpec& s) { s.out_ch = 4; });
  // A store source compares the stored spec with the requested one.
  pc::BilinearSpec other = small_conv();
  other.stride = 2;
  off::QueryBundle b = good;
  EXPECT_THROW((void)off::StoreTripleSource(b).bilinear_triple(other), std::logic_error);
}

TEST(TripleStoreHostile, BundleCodecRejectsInconsistentRandomOtPool) {
  pc::TripleDealer dealer(pc::RingConfig{}, 6);
  off::QueryBundle good;
  good.rot.push_back(dealer.random_ot(8, 1));
  const off::QueryBundle rt = decode(encode(good));
  ASSERT_EQ(rt.rot.size(), 1u);
  EXPECT_EQ(rt.rot[0].sender, 1);
  EXPECT_EQ(rt.rot[0].pads, good.rot[0].pads);
  EXPECT_EQ(rt.rot[0].choice, good.rot[0].choice);
  EXPECT_EQ(rt.rot[0].chosen, good.rot[0].chosen);

  const auto refused = [&](const auto& corrupt) {
    off::QueryBundle b = good;
    corrupt(b.rot[0]);
    EXPECT_THROW((void)decode(encode(b)), std::runtime_error);
  };
  refused([](pc::RandomOt& t) { t.pads.pop_back(); });
  refused([](pc::RandomOt& t) { t.chosen.pop_back(); });
  refused([](pc::RandomOt& t) { t.choice.push_back(0); });
  refused([](pc::RandomOt& t) { t.sender = 2; });
  refused([](pc::RandomOt& t) { t.choice[0] = 4; });
  // A store source refuses a random OT of the wrong size or sender.
  off::QueryBundle b = good;
  EXPECT_THROW((void)off::StoreTripleSource(b).random_ot(8, 0), std::logic_error);
  b = good;
  EXPECT_THROW((void)off::StoreTripleSource(b).random_ot(7, 1), std::logic_error);
}
