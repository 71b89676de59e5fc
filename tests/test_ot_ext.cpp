// IKNP OT extension and the 2PC triple and random-OT generator built on
// it: transpose and frame-level properties, COT correlation after
// derandomization, malformed-frame rejection, dealer-equality of
// SIMULATION-mode bundles (the bit-identity verification contract), the
// analytic traffic witness, and the remote trust-gap fixes (role-private
// half streams and OT secrets).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "crypto/channel.hpp"
#include "crypto/ot_ext.hpp"
#include "crypto/party.hpp"
#include "crypto/prng.hpp"
#include "obs/tracer.hpp"
#include "offline/ot_triple_source.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"

namespace pc = pasnet::crypto;
namespace otx = pasnet::crypto::otx;
namespace off = pasnet::offline;
namespace obs = pasnet::obs;

namespace {

/// Naive reference transpose over unpacked bits.
std::vector<std::uint8_t> naive_transpose(const std::vector<std::uint8_t>& in,
                                          std::size_t rows, std::size_t cols) {
  std::vector<std::uint8_t> out(cols * rows / 8, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const int bit = (in[r * (cols / 8) + c / 8] >> (c % 8)) & 1;
      if (bit) out[c * (rows / 8) + r / 8] |= static_cast<std::uint8_t>(1u << (r % 8));
    }
  }
  return out;
}

/// A synthetic plan touching every material kind and every product kind,
/// bit-injection products with one and two payloads included.
off::PreprocessingPlan all_kinds_plan() {
  pc::BilinearSpec conv;
  conv.batch = 2;
  conv.in_ch = 2;
  conv.in_h = conv.in_w = 4;
  conv.out_ch = 3;
  conv.kernel = 3;
  conv.pad = 1;
  pc::BilinearSpec dw;
  dw.kind = pc::BilinearKind::depthwise_conv2d;
  dw.in_ch = dw.out_ch = 2;
  dw.in_h = dw.in_w = 4;
  dw.kernel = 2;
  dw.stride = 2;

  off::PreprocessingPlan plan;
  plan.ring = pc::RingConfig{};
  const auto product = [&](const pc::BilinearSpec& spec) {
    off::TripleRequest r;
    r.kind = off::TripleKind::bilinear;
    r.bilinear = spec;
    plan.requests.push_back(r);
  };
  const auto sized = [&](off::TripleKind kind, std::uint64_t n, int sender) {
    off::TripleRequest r;
    r.kind = kind;
    r.n = n;
    r.sender = sender;
    plan.requests.push_back(r);
  };
  product(pc::BilinearSpec::hadamard(5));
  sized(off::TripleKind::square, 4, 1);
  product(pc::BilinearSpec::matmul(3, 2, 4));
  sized(off::TripleKind::bit, 9, 1);
  product(conv);
  product(dw);
  product(pc::BilinearSpec::bit_injection(70, 1));
  product(pc::BilinearSpec::bit_injection(5, 2));
  // Random OTs in both directions.
  sized(off::TripleKind::rot, 7, 1);
  sized(off::TripleKind::rot, 3, 0);
  return plan;
}

/// Dealer reference: replays the plan against a canonically seeded
/// TripleDealer, mirroring the OfflineGenerator's request replay.
off::QueryBundle dealer_bundle(const off::PreprocessingPlan& plan, std::uint64_t seed) {
  pc::TripleDealer dealer(plan.ring, seed);
  off::QueryBundle b;
  for (const off::TripleRequest& r : plan.requests) {
    switch (r.kind) {
      case off::TripleKind::bilinear:
        b.bilinear.push_back(dealer.bilinear_triple(r.bilinear));
        break;
      case off::TripleKind::square:
        b.square.push_back(dealer.square_pair(r.n));
        break;
      case off::TripleKind::bit:
        b.bit.push_back(dealer.bit_triple(r.n));
        break;
      case off::TripleKind::rot:
        b.rot.push_back(dealer.random_ot(r.n, r.sender));
        break;
    }
  }
  return b;
}

void expect_bundle_eq(const off::QueryBundle& a, const off::QueryBundle& b) {
  ASSERT_EQ(a.square.size(), b.square.size());
  for (std::size_t i = 0; i < a.square.size(); ++i) {
    EXPECT_EQ(a.square[i].a.s0, b.square[i].a.s0) << "square " << i;
    EXPECT_EQ(a.square[i].a.s1, b.square[i].a.s1) << "square " << i;
    EXPECT_EQ(a.square[i].z.s0, b.square[i].z.s0) << "square " << i;
    EXPECT_EQ(a.square[i].z.s1, b.square[i].z.s1) << "square " << i;
  }
  ASSERT_EQ(a.bit.size(), b.bit.size());
  for (std::size_t i = 0; i < a.bit.size(); ++i) {
    EXPECT_EQ(a.bit[i].a0, b.bit[i].a0) << "bit " << i;
    EXPECT_EQ(a.bit[i].a1, b.bit[i].a1) << "bit " << i;
    EXPECT_EQ(a.bit[i].b0, b.bit[i].b0) << "bit " << i;
    EXPECT_EQ(a.bit[i].b1, b.bit[i].b1) << "bit " << i;
    EXPECT_EQ(a.bit[i].c0, b.bit[i].c0) << "bit " << i;
    EXPECT_EQ(a.bit[i].c1, b.bit[i].c1) << "bit " << i;
  }
  ASSERT_EQ(a.bilinear.size(), b.bilinear.size());
  for (std::size_t i = 0; i < a.bilinear.size(); ++i) {
    EXPECT_EQ(a.bilinear[i].spec, b.bilinear[i].spec) << "bilinear " << i;
    EXPECT_EQ(a.bilinear[i].a.s0, b.bilinear[i].a.s0) << "bilinear " << i;
    EXPECT_EQ(a.bilinear[i].a.s1, b.bilinear[i].a.s1) << "bilinear " << i;
    EXPECT_EQ(a.bilinear[i].b.s0, b.bilinear[i].b.s0) << "bilinear " << i;
    EXPECT_EQ(a.bilinear[i].b.s1, b.bilinear[i].b.s1) << "bilinear " << i;
    EXPECT_EQ(a.bilinear[i].z.s0, b.bilinear[i].z.s0) << "bilinear " << i;
    EXPECT_EQ(a.bilinear[i].z.s1, b.bilinear[i].z.s1) << "bilinear " << i;
  }
  ASSERT_EQ(a.rot.size(), b.rot.size());
  for (std::size_t i = 0; i < a.rot.size(); ++i) {
    EXPECT_EQ(a.rot[i].sender, b.rot[i].sender) << "rot " << i;
    EXPECT_EQ(a.rot[i].pads, b.rot[i].pads) << "rot " << i;
    EXPECT_EQ(a.rot[i].choice, b.rot[i].choice) << "rot " << i;
    EXPECT_EQ(a.rot[i].chosen, b.rot[i].chosen) << "rot " << i;
  }
}

/// Each random OT's receiver holds the sender's pad at its choice.
void expect_rot_relation(const off::QueryBundle& b) {
  ASSERT_FALSE(b.rot.empty());
  for (const auto& t : b.rot) {
    ASSERT_EQ(t.pads.size(), 4 * t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      ASSERT_LT(t.choice[i], 4);
      EXPECT_EQ(t.chosen[i], t.pads[4 * i + t.choice[i]]) << i;
    }
  }
}

/// Asserts the algebraic triple relations on a reconstructed bundle.
void expect_relations_hold(const off::PreprocessingPlan& plan, const off::QueryBundle& b) {
  const pc::RingConfig rc = plan.ring;
  const std::uint64_t mask = rc.mask();
  const auto rec = [&](const pc::Shared& s, std::size_t i) {
    return (s.s0[i] + s.s1[i]) & mask;
  };
  for (const auto& t : b.square) {
    for (std::size_t i = 0; i < t.a.size(); ++i) {
      EXPECT_EQ(rec(t.z, i), (rec(t.a, i) * rec(t.a, i)) & mask);
    }
  }
  for (const auto& t : b.bit) {
    for (std::size_t i = 0; i < t.a0.size(); ++i) {
      EXPECT_EQ(t.c0[i] ^ t.c1[i], (t.a0[i] ^ t.a1[i]) & (t.b0[i] ^ t.b1[i]));
    }
  }
  std::size_t bi = 0;
  for (const off::TripleRequest& r : plan.requests) {
    if (r.kind != off::TripleKind::bilinear) continue;
    const auto& t = b.bilinear[bi++];
    EXPECT_EQ(t.spec, r.bilinear);
    const auto f = pc::build_bilinear_map(r.bilinear, rc);
    const pc::RingVec z = f(pc::reconstruct(t.a, rc), pc::reconstruct(t.b, rc));
    for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(rec(t.z, i), z[i]);
    if (!r.bilinear.bit_b) continue;
    // Bit injection: B is one bit, whose shares' low bits XOR-share it,
    // r0 ⊕ r1 = [r] ∈ {0, 1}; with Z = f(A, B) above, [r·a] opens to r·a.
    for (std::size_t i = 0; i < t.b.size(); ++i) {
      EXPECT_LE(rec(t.b, i), 1u) << i;
      EXPECT_EQ((t.b.s0[i] ^ t.b.s1[i]) & 1, rec(t.b, i)) << i;
    }
  }
  EXPECT_EQ(bi, b.bilinear.size());
  expect_rot_relation(b);
}

/// Runs the base-OT + extension dance between an ExtSender and ExtReceiver
/// over plain byte vectors for `m` OTs with the given choice bits.
struct ExtPair {
  otx::ExtSender sender;
  otx::ExtReceiver receiver;

  ExtPair(pc::Prng& sprng, pc::Prng& rprng, const std::vector<std::uint8_t>& choices)
      : sender(sprng) {
    const auto chooser = sender.make_chooser_frame(sprng);
    sender.take_setup_reply(receiver.make_setup_reply(chooser, rprng));
    sender.extend(receiver.make_u_frame(choices, rprng), choices.size());
  }
};

}  // namespace

TEST(OtExt, TransposeMatchesNaive) {
  pc::Prng prng(7);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{8, 8}, {128, 64}, {16, 256}, {128, 192}}) {
    std::vector<std::uint8_t> in(rows * cols / 8);
    for (auto& byte : in) byte = static_cast<std::uint8_t>(prng.next_u64());
    std::vector<std::uint8_t> out(in.size());
    otx::transpose_bits(in.data(), rows, cols, out.data());
    EXPECT_EQ(out, naive_transpose(in, rows, cols)) << rows << "x" << cols;
    // Involution: transposing back recovers the input.
    std::vector<std::uint8_t> back(in.size());
    otx::transpose_bits(out.data(), cols, rows, back.data());
    EXPECT_EQ(back, in);
  }
  std::vector<std::uint8_t> buf(16);
  EXPECT_THROW(otx::transpose_bits(buf.data(), 3, 8, buf.data()), std::invalid_argument);
}

TEST(OtExt, ColumnRelationAndPads) {
  // q_j = t_j ⊕ b_j·s, and the receiver's pad equals the sender's pad of
  // its choice bit — for every extended OT, including the padding tail.
  pc::Prng sprng(11), rprng(13), cprng(17);
  const std::size_t m = 200;  // not a multiple of 64: exercises padding
  std::vector<std::uint8_t> choices(m);
  for (auto& c : choices) c = static_cast<std::uint8_t>(cprng.next_u64() & 1);
  ExtPair pair(sprng, rprng, choices);
  ASSERT_EQ(pair.sender.count(), m);
  ASSERT_EQ(pair.receiver.count(), m);
  pc::RingVec pad0, pad1, rpad;
  for (std::size_t j = 0; j < m; ++j) {
    const otx::Block128 q = pair.sender.q(j);
    const otx::Block128 t = pair.receiver.t(j);
    const otx::Block128 expect = choices[j] ? (t ^ pair.sender.delta()) : t;
    EXPECT_TRUE(q == expect) << "column relation broken at " << j;
    pair.sender.pads(j, 3, &pad0, &pad1);
    pair.receiver.pad(j, 3, &rpad);
    EXPECT_EQ(rpad, choices[j] ? pad1 : pad0) << "pad mismatch at " << j;
    // The unchosen pad must differ (otherwise nothing is oblivious).
    EXPECT_NE(pad0, pad1) << j;
  }
  EXPECT_THROW((void)pair.sender.q(m), otx::OtExtError);
  EXPECT_THROW((void)pair.receiver.t(m), otx::OtExtError);
}

TEST(OtExt, MalformedFramesThrowTyped) {
  pc::Prng sprng(3), rprng(5);
  otx::ExtSender sender(sprng);
  const auto chooser = sender.make_chooser_frame(sprng);

  otx::ExtReceiver receiver;
  // Truncated / oversized / hostile chooser frames.
  std::vector<std::uint8_t> bad(chooser.begin(), chooser.end() - 1);
  EXPECT_THROW((void)receiver.make_setup_reply(bad, rprng), otx::OtExtError);
  bad = chooser;
  bad.push_back(0);
  EXPECT_THROW((void)receiver.make_setup_reply(bad, rprng), otx::OtExtError);
  bad = chooser;
  for (int i = 0; i < 8; ++i) bad[i] = 0;  // group element 0 is invalid
  EXPECT_THROW((void)receiver.make_setup_reply(bad, rprng), otx::OtExtError);

  // Valid reply accepted; truncated or corrupted replies rejected.
  otx::ExtReceiver fresh;
  auto reply = fresh.make_setup_reply(chooser, rprng);
  std::vector<std::uint8_t> short_reply(reply.begin(), reply.end() - 4);
  EXPECT_THROW(sender.take_setup_reply(short_reply), otx::OtExtError);
  auto zero_a = reply;
  for (int i = 0; i < 8; ++i) zero_a[i] = 0;
  EXPECT_THROW(sender.take_setup_reply(zero_a), otx::OtExtError);
  sender.take_setup_reply(reply);

  // Extension guards: no u frame before setup, wrong u frame size, m = 0.
  otx::ExtSender cold(sprng);
  EXPECT_THROW(cold.extend(std::vector<std::uint8_t>(otx::u_frame_bytes(64)), 64),
               otx::OtExtError);
  EXPECT_THROW(sender.extend(std::vector<std::uint8_t>(otx::u_frame_bytes(64) - 1), 64),
               otx::OtExtError);
  otx::ExtReceiver unset;
  EXPECT_THROW((void)unset.make_u_frame(std::vector<std::uint8_t>(4, 0), rprng),
               otx::OtExtError);
  EXPECT_THROW((void)fresh.make_u_frame({}, rprng), otx::OtExtError);
}

TEST(OtExtTriples, ShortCorrectionFrameRaisesFrameLengthError) {
  // A square pair has one direction only: party 0 sends the chooser frame
  // and then the arithmetic correction frame, so party 1 can run alone as
  // the receiver while hand-written frames stand in for party 0.
  off::PreprocessingPlan plan;
  plan.ring = pc::RingConfig{};
  off::TripleRequest r;
  r.kind = off::TripleKind::square;
  r.n = 2;
  plan.requests.push_back(r);
  const auto wire = static_cast<std::size_t>((plan.ring.wire_bits + 7) / 8);
  const std::size_t arith_elems =
      (off::ot_ext_generation_cost(plan, 1).bytes_p0_to_p1 - otx::chooser_frame_bytes()) / wire;
  ASSERT_GT(arith_elems, 0u);

  auto [c0, c1] = pc::Channel::make_pair();
  pc::Prng prng(9);
  otx::ExtSender sender(prng);
  c0->send_bytes(sender.make_chooser_frame(prng));
  c0->send_ring(pc::RingVec(arith_elems - 1), static_cast<int>(wire));  // one element short
  pc::TwoPartyContext receiver(plan.ring, 42, 1, *c1);
  off::QueryBundle b;
  EXPECT_THROW(off::generate_bundles_ot_ext(plan, receiver, {7}, &b), pc::FrameLengthError);
}

TEST(OtExtTriples, BundlesMatchDealerBitForBit) {
  const off::PreprocessingPlan plan = all_kinds_plan();
  const std::vector<std::uint64_t> seeds = {0xABCDEF12ULL, 0x5EED5EEDULL};
  pc::TwoPartyContext ctx;
  std::vector<off::QueryBundle> bundles(seeds.size());
  off::generate_bundles_ot_ext(plan, ctx, seeds, bundles.data());
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    SCOPED_TRACE(l);
    expect_bundle_eq(bundles[l], dealer_bundle(plan, seeds[l]));
  }
}

TEST(OtExtTriples, TripleRelationsHold) {
  // Independent of dealer equality: the generated material satisfies the
  // algebraic triple relations after reconstruction.
  const off::PreprocessingPlan plan = all_kinds_plan();
  pc::TwoPartyContext ctx;
  off::QueryBundle b;
  off::generate_bundles_ot_ext(plan, ctx, {0x715EEDULL}, &b);
  expect_relations_hold(plan, b);
}

TEST(OtExtTriples, MeasuredTrafficMatchesAnalyticCost) {
  const off::PreprocessingPlan plan = all_kinds_plan();
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(lanes);
    pc::TwoPartyContext ctx;
    std::vector<off::QueryBundle> bundles(lanes);
    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t l = 0; l < lanes; ++l) seeds[l] = 0x9000 + l;
    off::generate_bundles_ot_ext(plan, ctx, seeds, bundles.data());
    const off::OtExtCost cost = off::ot_ext_generation_cost(plan, lanes);
    const pc::TrafficStats st = ctx.stats();
    EXPECT_EQ(st.bytes_p0_to_p1, cost.bytes_p0_to_p1);
    EXPECT_EQ(st.bytes_p1_to_p0, cost.bytes_p1_to_p0);
    EXPECT_EQ(st.messages, cost.messages);
    EXPECT_EQ(st.rounds, cost.rounds);
    // The same counter block carries the OT-extension work counters.
    EXPECT_EQ(ctx.counters()[obs::Counter::ot_ext_base], cost.base_ots);
    EXPECT_EQ(ctx.counters()[obs::Counter::ot_ext_cots], cost.ext_cots);
    EXPECT_EQ(cost.base_ots, 2u * otx::kBaseOts);  // both directions active
    EXPECT_GT(cost.ext_cots, 0u);
  }
}

namespace {

/// One joint generation across two remote contexts over a threaded
/// loopback pair — the in-test stand-in for two OS processes.
std::pair<off::QueryBundle, off::QueryBundle> remote_generate(
    const off::PreprocessingPlan& plan, std::uint64_t seed) {
  auto chans = pc::Channel::make_pair(pc::ChannelMode::threaded);
  pc::Channel& c0 = *chans.first;
  pc::Channel& c1 = *chans.second;
  off::QueryBundle b0, b1;
  std::thread t0([&] {
    pc::TwoPartyContext ctx(plan.ring, 42, 0, c0);
    off::generate_bundles_ot_ext(plan, ctx, {seed}, &b0);
  });
  std::thread t1([&] {
    pc::TwoPartyContext ctx(plan.ring, 42, 1, c1);
    off::generate_bundles_ot_ext(plan, ctx, {seed}, &b1);
  });
  t0.join();
  t1.join();
  return {std::move(b0), std::move(b1)};
}

/// Merges party 0's halves of `b0` with party 1's halves of `b1` — what an
/// outside verifier holding both processes' outputs would reassemble.
off::QueryBundle merge_remote(const off::QueryBundle& b0, const off::QueryBundle& b1) {
  off::QueryBundle m = b0;
  for (std::size_t i = 0; i < m.square.size(); ++i) {
    m.square[i].a.s1 = b1.square[i].a.s1;
    m.square[i].z.s1 = b1.square[i].z.s1;
  }
  for (std::size_t i = 0; i < m.bilinear.size(); ++i) {
    m.bilinear[i].a.s1 = b1.bilinear[i].a.s1;
    m.bilinear[i].b.s1 = b1.bilinear[i].b.s1;
    m.bilinear[i].z.s1 = b1.bilinear[i].z.s1;
  }
  for (std::size_t i = 0; i < m.bit.size(); ++i) {
    m.bit[i].a1 = b1.bit[i].a1;
    m.bit[i].b1 = b1.bit[i].b1;
    m.bit[i].c1 = b1.bit[i].c1;
  }
  for (std::size_t i = 0; i < m.rot.size(); ++i) {
    // Party 1's half of a random OT: the pads when it sends, else the
    // choice and the chosen pad.
    if (m.rot[i].sender == 1) {
      m.rot[i].pads = b1.rot[i].pads;
    } else {
      m.rot[i].choice = b1.rot[i].choice;
      m.rot[i].chosen = b1.rot[i].chosen;
    }
  }
  return m;
}

}  // namespace

TEST(OtExtTriples, RemoteEndpointsGenerateRolePrivateTriples) {
  // Two "processes" (remote contexts over a threaded channel pair) generate
  // jointly.  Unlike the simulation modes, their halves must come from
  // role-private entropy: correct triples, peer slots zero, and NOT the
  // canonical dealer stream — a peer holding the public dealer seed must
  // not be able to precompute this party's material.
  const off::PreprocessingPlan plan = all_kinds_plan();
  const std::uint64_t seed = 0xFACEFEEDULL;
  const auto [b0, b1] = remote_generate(plan, seed);
  // Peer slots stay zero in each process.
  for (std::size_t i = 0; i < b0.bilinear.size(); ++i) {
    EXPECT_EQ(b0.bilinear[i].a.s1, pc::RingVec(b0.bilinear[i].a.s1.size(), 0));
    EXPECT_EQ(b1.bilinear[i].a.s0, pc::RingVec(b1.bilinear[i].a.s0.size(), 0));
  }
  // The reassembled material is a correct triple set...
  expect_relations_hold(plan, merge_remote(b0, b1));
  // ...but no half equals the canonical (publicly derivable) dealer draw:
  // with 64-bit elements a collision is overwhelmingly unlikely.
  const off::QueryBundle want = dealer_bundle(plan, seed);
  EXPECT_NE(b0.bilinear[0].a.s0, want.bilinear[0].a.s0);  // hadamard
  EXPECT_NE(b1.bilinear[0].a.s1, want.bilinear[0].a.s1);
  EXPECT_NE(b0.bilinear[1].a.s0, want.bilinear[1].a.s0);  // matmul
  EXPECT_NE(b1.bilinear[2].b.s1, want.bilinear[2].b.s1);  // conv2d
  EXPECT_NE(b1.rot[0].pads, want.rot[0].pads);            // 28 random bytes
  // Fresh entropy per context: a second joint run yields different halves
  // (no replayable stream exists for this material anywhere).
  const auto [c0run, c1run] = remote_generate(plan, seed);
  EXPECT_NE(c0run.bilinear[0].a.s0, b0.bilinear[0].a.s0);
  EXPECT_NE(c1run.bilinear[0].a.s1, b1.bilinear[0].a.s1);
  expect_relations_hold(plan, merge_remote(c0run, c1run));
}

TEST(RolePrivateRandomness, RemoteStreamsDifferAcrossProcessesAndFromSharedStreams) {
  // Two remote contexts built with the SAME shared seed must still have
  // different role-private streams (they are entropy-seeded per process) —
  // this is the loopback form of "my OT secrets are not derivable from
  // anything the peer knows".
  auto [c0, c1] = pc::Channel::make_pair();
  pc::TwoPartyContext ctx0(pc::RingConfig{}, 42, 0, *c0);
  pc::TwoPartyContext ctx1(pc::RingConfig{}, 42, 1, *c1);
  std::vector<std::uint64_t> draws0, draws1;
  for (int i = 0; i < 8; ++i) {
    draws0.push_back(ctx0.role_prng(0).next_u64());
    draws1.push_back(ctx1.role_prng(1).next_u64());
  }
  EXPECT_NE(draws0, draws1);
  // And they must differ from the shared (seed-derived) OT streams both
  // processes can compute.
  pc::TwoPartyContext sim(pc::RingConfig{}, 42);
  std::vector<std::uint64_t> shared0, shared1;
  for (int i = 0; i < 8; ++i) {
    shared0.push_back(sim.ot_prng(0).next_u64());
    shared1.push_back(sim.ot_prng(1).next_u64());
  }
  EXPECT_NE(draws0, shared0);
  EXPECT_NE(draws1, shared1);
  // Asking a remote context for the PEER's role stream is a logic error.
  EXPECT_THROW((void)ctx0.role_prng(1), std::logic_error);
  EXPECT_THROW((void)ctx1.role_prng(0), std::logic_error);
  // In-process simulation contexts alias the shared streams (transcript
  // compatibility with the historical modes).
  pc::TwoPartyContext sim2(pc::RingConfig{}, 42);
  EXPECT_EQ(sim2.role_prng(0).next_u64(), shared0[0]);
}

TEST(OtExtTriples, OnlineSourceServesPlanOrderAndThrowsWhenDry) {
  const off::PreprocessingPlan plan = all_kinds_plan();
  pc::TwoPartyContext ctx;
  off::QueryBundle bundle;
  off::generate_bundles_ot_ext(plan, ctx, {0xD00DULL}, &bundle);
  off::StoreTripleSource src(bundle);
  const off::QueryBundle want = dealer_bundle(plan, 0xD00DULL);
  const pc::BilinearTriple e = src.bilinear_triple(pc::BilinearSpec::hadamard(5));
  EXPECT_EQ(e.z.s0, want.bilinear[0].z.s0);
  const pc::SquarePair sq = src.square_pair(4);
  EXPECT_EQ(sq.z.s1, want.square[0].z.s1);
  // A product drawn for another spec than the plan's next one is drift.
  EXPECT_THROW((void)src.bilinear_triple(pc::BilinearSpec::matmul(3, 4, 2)), std::logic_error);
  const pc::BitTriple bt = src.bit_triple(9);
  EXPECT_EQ(bt.c0, want.bit[0].c0);
  const pc::RandomOt rot = src.random_ot(7, 1);
  EXPECT_EQ(rot.chosen, want.rot[0].chosen);
  // A random OT drawn for the wrong sender is store/plan drift.
  EXPECT_THROW((void)src.random_ot(3, 1), std::logic_error);
  // The pool is sized for exactly one query's plan: once the conv and
  // depthwise triples are drawn too, another product draw is
  // strict-accounting exhaustion.
  for (std::size_t i = 2; i < want.bilinear.size(); ++i) {
    EXPECT_EQ(src.bilinear_triple(want.bilinear[i].spec).z.s1, want.bilinear[i].z.s1);
  }
  EXPECT_THROW((void)src.bilinear_triple(pc::BilinearSpec::hadamard(5)), off::TripleStoreExhausted);
}
