#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <stdexcept>
#include <type_traits>

#include "crypto/compare.hpp"

namespace pc = pasnet::crypto;

namespace {

pc::BitShared make_bits(const std::vector<int>& vals, pc::Prng& prng) {
  pc::BitShared out;
  out.b0.resize(vals.size());
  out.b1.resize(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const std::uint8_t r = prng.next_u64() & 1;
    out.b0[i] = r;
    out.b1[i] = static_cast<std::uint8_t>(r ^ (vals[i] & 1));
  }
  return out;
}

}  // namespace

TEST(Bits, XorAndNotAreLocal) {
  const pc::TwoPartyContext ctx;
  pc::Prng prng(1);
  const auto x = make_bits({0, 1, 0, 1}, prng);
  const auto y = make_bits({0, 0, 1, 1}, prng);
  EXPECT_EQ(pc::reconstruct_bits(pc::xor_bits(ctx, x, y)),
            (std::vector<std::uint8_t>{0, 1, 1, 0}));
  EXPECT_EQ(pc::reconstruct_bits(pc::not_bits(x)),
            (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

TEST(Bits, AndViaBeaverTriples) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(2);
  const auto x = make_bits({0, 1, 0, 1}, prng);
  const auto y = make_bits({0, 0, 1, 1}, prng);
  const auto z = pc::and_bits(ctx, x, y);
  EXPECT_EQ(pc::reconstruct_bits(z), (std::vector<std::uint8_t>{0, 0, 0, 1}));
}

TEST(Bits, AndOnLongRandomVectors) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(3);
  std::vector<int> xv(500), yv(500);
  for (auto& v : xv) v = prng.next_u64() & 1;
  for (auto& v : yv) v = prng.next_u64() & 1;
  const auto z = pc::and_bits(ctx, make_bits(xv, prng), make_bits(yv, prng));
  const auto got = pc::reconstruct_bits(z);
  for (std::size_t i = 0; i < xv.size(); ++i) EXPECT_EQ(got[i], xv[i] & yv[i]) << i;
}

TEST(Bits, ShortPeerOpeningFramesRaiseFrameLengthError) {
  static_assert(std::is_base_of_v<std::runtime_error, pc::FrameLengthError>);
  // Each remote context runs only its own party, so a hand-written frame
  // stands in for the peer's half of the opening.  Each stages on the
  // context's own buffer and flushes into the short frame: the failed
  // flush leaves no stage, and no output pointer, parked.
  pc::Prng prng(4);
  {
    auto [c0, c1] = pc::Channel::make_pair();
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, 0, *c0);
    const pc::Shared x = pc::share(pc::RingVec{1, 2, 3}, prng, ctx.ring());
    c1->send_ring(pc::RingVec{4, 5}, ctx.wire_bytes());  // one element short
    pc::RingVec out;
    ctx.opens().stage(x, &out);
    EXPECT_THROW(ctx.opens().flush(), pc::FrameLengthError);
    EXPECT_FALSE(ctx.opens().has_pending());
  }
  {
    auto [c0, c1] = pc::Channel::make_pair();
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, 1, *c1);
    const auto x = make_bits({0, 1, 0, 1, 1, 0, 1, 0}, prng);
    const auto y = make_bits({1, 1, 0, 0, 1, 1, 0, 0}, prng);
    c0->send_bytes({0});  // the (d, e) bits of 8 ANDs pack to 2 bytes
    EXPECT_THROW((void)pc::and_bits(ctx, x, y), pc::FrameLengthError);
    EXPECT_FALSE(ctx.bit_opens().has_pending());
  }
}

TEST(Millionaire, SmallExhaustive4Bit) {
  pc::TwoPartyContext ctx;
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t i = 0; i < 16; ++i) {
    for (std::uint64_t j = 0; j < 16; ++j) {
      a.push_back(i);
      b.push_back(j);
    }
  }
  const auto gt = pc::millionaire_gt(ctx, a, b, 4);
  const auto got = pc::reconstruct_bits(gt);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(got[k], a[k] > b[k] ? 1 : 0) << a[k] << " vs " << b[k];
  }
}

TEST(Millionaire, RandomWide31Bit) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(5);
  std::vector<std::uint64_t> a(200), b(200);
  for (auto& v : a) v = prng.next_bits(31);
  for (auto& v : b) v = prng.next_bits(31);
  const auto gt = pc::millionaire_gt(ctx, a, b, 31);
  const auto got = pc::reconstruct_bits(gt);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(got[k], a[k] > b[k] ? 1 : 0);
}

TEST(Millionaire, EqualValuesAreNotGreater) {
  pc::TwoPartyContext ctx;
  std::vector<std::uint64_t> a{0, 5, 12345, (1ULL << 31) - 1};
  const auto gt = pc::millionaire_gt(ctx, a, a, 31);
  for (const auto bit : pc::reconstruct_bits(gt)) EXPECT_EQ(bit, 0);
}

TEST(Millionaire, OddDigitCountWidths) {
  // Widths that are not multiples of the 2-bit part size exercise the
  // carry-up path of the combine tree.
  for (int bits : {1, 3, 5, 7, 9, 31}) {
    pc::TwoPartyContext ctx;
    pc::Prng prng(100 + bits);
    std::vector<std::uint64_t> a(50), b(50);
    for (auto& v : a) v = prng.next_bits(bits);
    for (auto& v : b) v = prng.next_bits(bits);
    const auto gt = pc::millionaire_gt(ctx, a, b, bits);
    const auto got = pc::reconstruct_bits(gt);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(got[k], a[k] > b[k] ? 1 : 0) << "bits=" << bits;
    }
  }
}

TEST(Msb, MatchesPlaintextSign) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(6);
  const auto& rc = ctx.ring();
  std::vector<double> xs{1.0, -1.0, 0.5, -0.5, 100.0, -100.0, 0.0, 3.75, -3.75};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto m = pc::msb(ctx, sx);
  const auto got = pc::reconstruct_bits(m);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], xs[i] < 0 ? 1 : 0) << xs[i];
  }
}

TEST(Drelu, IsIndicatorOfNonNegative) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(7);
  std::vector<double> xs{2.0, -2.0, 0.0, 0.25, -0.25};
  const auto sx = pc::share_reals(xs, prng, ctx.ring());
  const auto d = pc::drelu(ctx, sx);
  EXPECT_EQ(pc::reconstruct_bits(d), (std::vector<std::uint8_t>{1, 0, 1, 1, 0}));
}

TEST(Mux, SelectsOrZeroes) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(9);
  const auto& rc = ctx.ring();
  std::vector<double> xs{5.0, -3.0, 7.5, 2.25};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto sel = make_bits({1, 0, 0, 1}, prng);
  const auto out = pc::reconstruct_reals(pc::mux(ctx, sel, sx), rc);
  EXPECT_NEAR(out[0], 5.0, 1e-3);
  EXPECT_NEAR(out[1], 0.0, 1e-3);
  EXPECT_NEAR(out[2], 0.0, 1e-3);
  EXPECT_NEAR(out[3], 2.25, 1e-3);
}

namespace {

/// What the comparison tail reveals in each of its four uses.
struct TailRun {
  pc::Shared relu, max, mux, gated_x, gated_v;
};

/// relu(x), max(v + x, v) = v + x·DReLU(x), mux(sel, v) and the argmax-
/// style two-payload tail (x, v) gated by DReLU(x), in that order.
TailRun run_tails(pc::TwoPartyContext& ctx, const pc::Shared& x, const pc::Shared& v,
                  const pc::BitShared& sel) {
  TailRun out;
  out.relu = pc::relu(ctx, x);
  out.max = pc::max_elem(ctx, pc::add(ctx, v, x), v);
  out.mux = pc::mux(ctx, sel, v);
  pc::StagedDreluMux two;
  pc::run_staged(ctx, two, std::vector<pc::Shared>{x, v},
                 pc::draw_drelu_mux_material(ctx, x.size(), 2));
  out.gated_x = std::move(two.result()[0]);
  out.gated_v = std::move(two.result()[1]);
  return out;
}

/// Party p's halves only, as a remote endpoint holds them.
pc::Shared own_half(const pc::Shared& x, int p) {
  pc::Shared out;
  out.share(p) = x.share(p);
  return out;
}
pc::BitShared own_half(const pc::BitShared& x, int p) {
  pc::BitShared out;
  out.share(p) = x.share(p);
  return out;
}

}  // namespace

TEST(MuxTail, GatedPayloadsAreExactOverTheWholeRing) {
  // The tail multiplies by a 0/1 bit with no truncation, so every payload
  // must come back exactly, full-ring words included, whether both parties
  // run in process or each endpoint holds only its own shares.
  const pc::RingConfig rc{};
  pc::Prng prng(31);
  pc::RingVec v = {0, 1, ~0ULL, 1ULL << 62, 0 - (1ULL << 62), (1ULL << 63) - 1, 1ULL << 63};
  pc::RingVec x = {0, 1, ~0ULL, (1ULL << 31) - 1, 0 - ((1ULL << 31) - 1), 5, 0 - 5ULL};
  std::vector<int> sel_bits = {1, 0, 1, 1, 0, 1, 0};
  while (v.size() < 48) {
    v.push_back(prng.next_u64());
    x.push_back(prng.next_below((1ULL << 32) - 1) - ((1ULL << 31) - 1));
    sel_bits.push_back(static_cast<int>(prng.next_u64() & 1));
  }
  const pc::Shared sx = pc::share(x, prng, rc);
  const pc::Shared sv = pc::share(v, prng, rc);
  const pc::BitShared sel = make_bits(sel_bits, prng);

  const auto expect_exact = [&](const TailRun& run, const char* where) {
    const pc::RingVec relu = pc::reconstruct(run.relu, rc);
    const pc::RingVec max = pc::reconstruct(run.max, rc);
    const pc::RingVec mux = pc::reconstruct(run.mux, rc);
    const pc::RingVec gx = pc::reconstruct(run.gated_x, rc);
    const pc::RingVec gv = pc::reconstruct(run.gated_v, rc);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint64_t b = pc::to_signed(x[i], rc) >= 0 ? 1 : 0;
      EXPECT_EQ(relu[i], x[i] * b) << where << " relu " << i;
      EXPECT_EQ(max[i], v[i] + x[i] * b) << where << " max " << i;
      EXPECT_EQ(mux[i], v[i] * static_cast<std::uint64_t>(sel_bits[i])) << where << " mux " << i;
      EXPECT_EQ(gx[i], x[i] * b) << where << " payload 0, " << i;
      EXPECT_EQ(gv[i], v[i] * b) << where << " payload 1, " << i;
    }
  };

  pc::TwoPartyContext ctx(rc, 77);
  const TailRun in_process = run_tails(ctx, sx, sv, sel);
  expect_exact(in_process, "in process");

  // Two endpoints of the same seed on two threads, each holding only its
  // own halves; their halves together must reveal the same values, and
  // each must equal the in-process party's share.
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded);
  pc::Channel* chans[2] = {c0.get(), c1.get()};
  const auto endpoint = [&](int p) {
    try {
      pc::TwoPartyContext remote(rc, 77, p, *chans[p]);
      return run_tails(remote, own_half(sx, p), own_half(sv, p), own_half(sel, p));
    } catch (...) {
      chans[p]->close();
      throw;
    }
  };
  auto side1 = std::async(std::launch::async, endpoint, 1);
  const TailRun p0 = endpoint(0);
  const TailRun p1 = side1.get();
  TailRun joint;
  pc::Shared TailRun::*const fields[] = {&TailRun::relu, &TailRun::max, &TailRun::mux,
                                         &TailRun::gated_x, &TailRun::gated_v};
  for (pc::Shared TailRun::*f : fields) {
    (joint.*f).s0 = (p0.*f).s0;
    (joint.*f).s1 = (p1.*f).s1;
    EXPECT_EQ((joint.*f).s0, (in_process.*f).s0);
    EXPECT_EQ((joint.*f).s1, (in_process.*f).s1);
  }
  expect_exact(joint, "party-local");

  // Zero compared values: every tail runs and gates nothing.
  const TailRun none = run_tails(ctx, pc::Shared{}, pc::Shared{}, pc::BitShared{});
  for (pc::Shared TailRun::*f : fields) EXPECT_EQ((none.*f).size(), 0u);
}

TEST(Relu, MatchesPlaintextRelu) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(10);
  const auto& rc = ctx.ring();
  std::vector<double> xs{1.5, -1.5, 0.0, 42.0, -0.001, 0.001, -99.0};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto out = pc::reconstruct_reals(pc::relu(ctx, sx), rc);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(out[i], std::max(xs[i], 0.0), 2e-3) << xs[i];
  }
}

TEST(MaxElem, MatchesPlaintextMax) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(11);
  const auto& rc = ctx.ring();
  std::vector<double> av{1.0, -2.0, 3.5, 0.0, -7.25};
  std::vector<double> bv{0.5, -1.0, 4.0, 0.0, -7.5};
  const auto sa = pc::share_reals(av, prng, rc);
  const auto sb = pc::share_reals(bv, prng, rc);
  const auto out = pc::reconstruct_reals(pc::max_elem(ctx, sa, sb), rc);
  for (std::size_t i = 0; i < av.size(); ++i) {
    EXPECT_NEAR(out[i], std::max(av[i], bv[i]), 2e-3) << i;
  }
}

TEST(Relu, PaperFig2ComparisonExample) {
  // Fig. 2: the model-vendor/client example reduces to a secure comparison
  // whose plaintext answer is "0 (False)"; verify sign evaluation on the
  // reconstructed sum of shares gives the same result privately.
  pc::TwoPartyContext ctx;
  pc::Prng prng(12);
  const auto sx = pc::share_reals({-1.0}, prng, ctx.ring());  // sum < 0
  const auto d = pc::drelu(ctx, sx);
  EXPECT_EQ(pc::reconstruct_bits(d)[0], 0);  // "not > 0" => False
}

// Property sweep: DReLU correct for random fixed-point values across
// magnitudes (stress for carry/millionaire interaction).
class DreluProperty : public ::testing::TestWithParam<double> {};

TEST_P(DreluProperty, RandomValuesAtScale) {
  const double scale = GetParam();
  pc::TwoPartyContext ctx;
  pc::Prng prng(static_cast<std::uint64_t>(scale * 1000) + 3);
  std::vector<double> xs(64);
  for (auto& x : xs) x = (prng.next_unit() - 0.5) * scale;
  const auto sx = pc::share_reals(xs, prng, ctx.ring());
  const auto d = pc::drelu(ctx, sx);
  const auto got = pc::reconstruct_bits(d);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // encode() rounds; values that round to exactly 0 are non-negative.
    const double q = std::round(xs[i] * ctx.ring().scale());
    EXPECT_EQ(got[i], q >= 0 ? 1 : 0) << xs[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, DreluProperty,
                         ::testing::Values(0.01, 1.0, 10.0, 1000.0, 100000.0));
