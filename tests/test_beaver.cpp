#include <gtest/gtest.h>

#include "crypto/party.hpp"

namespace pc = pasnet::crypto;

TEST(Beaver, DealerElemTripleIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 1);
  const auto t = dealer.bilinear_triple(pc::BilinearSpec::hadamard(32));
  EXPECT_EQ(t.spec, pc::BilinearSpec::hadamard(32));
  const auto a = pc::reconstruct(t.a, rc);
  const auto b = pc::reconstruct(t.b, rc);
  const auto z = pc::reconstruct(t.z, rc);
  EXPECT_EQ(z, pc::mul_vec(a, b, rc));
}

TEST(Beaver, DealerSquarePairIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 2);
  const auto p = dealer.square_pair(16);
  const auto a = pc::reconstruct(p.a, rc);
  EXPECT_EQ(pc::reconstruct(p.z, rc), pc::mul_vec(a, a, rc));
}

TEST(Beaver, DealerMatmulTripleIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 3);
  const auto t = dealer.bilinear_triple(pc::BilinearSpec::matmul(3, 4, 5));
  ASSERT_EQ(t.a.size(), 12u);
  ASSERT_EQ(t.b.size(), 20u);
  const auto a = pc::reconstruct(t.a, rc);
  const auto b = pc::reconstruct(t.b, rc);
  EXPECT_EQ(pc::reconstruct(t.z, rc), pc::ring_matmul(a, b, 3, 4, 5, rc));
}

TEST(Beaver, DealerBitTripleIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 4);
  const auto t = dealer.bit_triple(256);
  for (std::size_t i = 0; i < 256; ++i) {
    const int a = t.a0[i] ^ t.a1[i];
    const int b = t.b0[i] ^ t.b1[i];
    const int c = t.c0[i] ^ t.c1[i];
    EXPECT_EQ(c, a & b);
  }
}

TEST(Beaver, RingMatmulMatchesNaive) {
  pc::RingConfig rc{16, 0};
  // 2x3 · 3x2 with known answer (mod 2^16).
  pc::RingVec a{1, 2, 3, 4, 5, 6};
  pc::RingVec b{7, 8, 9, 10, 11, 12};
  const auto z = pc::ring_matmul(a, b, 2, 3, 2, rc);
  EXPECT_EQ(z, (pc::RingVec{58, 64, 139, 154}));
}

TEST(Beaver, RingMatmulShapeMismatchThrows) {
  pc::RingConfig rc{32, 0};
  EXPECT_THROW((void)pc::ring_matmul(pc::RingVec(5), pc::RingVec(6), 2, 3, 2, rc),
               std::invalid_argument);
}

TEST(MulProtocol, ElementwiseMatchesPlaintext) {
  pc::TwoPartyContext ctx;
  const auto& rc = ctx.ring();
  pc::Prng prng(11);
  std::vector<double> xs{1.5, -2.0, 3.25, 0.0, -0.5};
  std::vector<double> ys{2.0, 4.0, -1.5, 7.0, -8.0};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto sy = pc::share_reals(ys, prng, rc);
  const auto prod = pc::mul_fixed(ctx, sx, sy);
  const auto got = pc::reconstruct_reals(prod, rc);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(got[i], xs[i] * ys[i], 1e-2) << i;
  }
}

TEST(MulProtocol, ProducesTraffic) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(12);
  const auto sx = pc::share_reals(std::vector<double>(100, 1.0), prng, ctx.ring());
  const auto sy = pc::share_reals(std::vector<double>(100, 2.0), prng, ctx.ring());
  ctx.reset_stats();
  (void)pc::mul_elem(ctx, sx, sy);
  // Opening E and F: 2 values × 100 elems × 4 bytes × 2 directions.
  EXPECT_EQ(ctx.stats().total_bytes(), 2u * 100 * 4 * 2);
}

TEST(SquareProtocol, MatchesPlaintextSquare) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(13);
  std::vector<double> xs{0.0, 1.0, -1.0, 2.5, -3.5, 10.0};
  const auto sx = pc::share_reals(xs, prng, ctx.ring());
  const auto sq = pc::truncate_shares(ctx, pc::square_elem(ctx, sx));
  const auto got = pc::reconstruct_reals(sq, ctx.ring());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(got[i], xs[i] * xs[i], 2e-2) << i;
  }
}

TEST(SquareProtocol, CheaperThanGenericMul) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(14);
  const auto sx = pc::share_reals(std::vector<double>(50, 2.0), prng, ctx.ring());
  ctx.reset_stats();
  (void)pc::square_elem(ctx, sx);
  const auto square_bytes = ctx.stats().total_bytes();
  ctx.reset_stats();
  (void)pc::mul_elem(ctx, sx, sx);
  const auto mul_bytes = ctx.stats().total_bytes();
  EXPECT_LT(square_bytes, mul_bytes);  // one opening instead of two
}

TEST(MatmulProtocol, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  const auto& rc = ctx.ring();
  pc::Prng prng(15);
  // X: 2x3, Y: 3x2 in reals.
  std::vector<double> xs{1, 2, 3, 4, 5, 6};
  std::vector<double> ys{0.5, -1, 2, 0.25, -0.5, 3};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto sy = pc::share_reals(ys, prng, rc);
  auto prod = pc::matmul(ctx, sx, sy, 2, 3, 2);
  prod = pc::truncate_shares(ctx, prod);
  const auto got = pc::reconstruct_reals(prod, rc);
  // Expected: [[1*0.5+2*2+3*-0.5, 1*-1+2*0.25+3*3], [...]]
  const std::vector<double> want{3.0, 8.5, 9.0, 15.25};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(got[i], want[i], 2e-2);
}

TEST(OpenProtocol, ReconstructsOverChannel) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(16);
  pc::RingVec x{42, 0xFFFF, 7};
  const auto sx = pc::share(x, prng, ctx.ring());
  EXPECT_EQ(pc::open(ctx, sx), x);
  EXPECT_GT(ctx.stats().total_bytes(), 0u);
}

// Property sweep: Beaver multiplication is exact over the raw ring
// (no truncation) for random inputs across sizes.
class MulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MulProperty, ExactOverRing) {
  const int n = GetParam();
  pc::TwoPartyContext ctx(pc::RingConfig{32, 0}, 77 + n);
  pc::Prng prng(21 + n);
  pc::RingVec x(n), y(n);
  for (auto& e : x) e = prng.next_u64() & ctx.ring().mask();
  for (auto& e : y) e = prng.next_u64() & ctx.ring().mask();
  const auto sx = pc::share(x, prng, ctx.ring());
  const auto sy = pc::share(y, prng, ctx.ring());
  const auto prod = pc::mul_elem(ctx, sx, sy);
  EXPECT_EQ(pc::reconstruct(prod, ctx.ring()), pc::mul_vec(x, y, ctx.ring()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MulProperty, ::testing::Values(1, 2, 17, 64, 255, 1024));
