#include <gtest/gtest.h>

#include "crypto/party.hpp"
#include "crypto/secret_share.hpp"

namespace pc = pasnet::crypto;

namespace {
pc::RingConfig rc32() { return pc::RingConfig{32, 12}; }
}  // namespace

TEST(SecretShare, ShareReconstructRoundTrip) {
  pc::Prng prng(1);
  const auto rc = rc32();
  pc::RingVec x{0, 1, 0xFFFFFFFF, 12345, 0x80000000};
  const auto sh = pc::share(x, prng, rc);
  EXPECT_EQ(pc::reconstruct(sh, rc), x);
}

TEST(SecretShare, SharesLookRandom) {
  pc::Prng prng(2);
  const auto rc = rc32();
  pc::RingVec x(256, 42);  // constant plaintext
  const auto sh = pc::share(x, prng, rc);
  // The share vector should not be constant (overwhelming probability).
  bool varied = false;
  for (std::size_t i = 1; i < x.size(); ++i) varied |= (sh.s0[i] != sh.s0[0]);
  EXPECT_TRUE(varied);
}

TEST(SecretShare, RealsRoundTripWithinFixedPointError) {
  pc::Prng prng(3);
  const auto rc = rc32();
  std::vector<double> xs{0.0, 1.5, -2.25, 3.14159, -100.0, 55.5};
  const auto sh = pc::share_reals(xs, prng, rc);
  const auto back = pc::reconstruct_reals(sh, rc);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_NEAR(back[i], xs[i], 1e-3);
}

TEST(SecretShare, LinearCombination) {
  pc::Prng prng(4);
  const auto rc = rc32();
  pc::RingVec x{10, 20, 30}, y{1, 2, 3};
  const auto sx = pc::share(x, prng, rc);
  const auto sy = pc::share(y, prng, rc);
  // a·X + Y with a = 5  (paper Eq. 1)
  const pc::TwoPartyContext ctx(rc);
  const auto r = pc::linear(ctx, 5, sx, sy);
  EXPECT_EQ(pc::reconstruct(r, rc), (pc::RingVec{51, 102, 153}));
}

TEST(SecretShare, AddSubScale) {
  pc::Prng prng(5);
  const auto rc = rc32();
  pc::RingVec x{100, 200}, y{1, 2};
  const auto sx = pc::share(x, prng, rc);
  const auto sy = pc::share(y, prng, rc);
  const pc::TwoPartyContext ctx(rc);
  EXPECT_EQ(pc::reconstruct(pc::add(ctx, sx, sy), rc), (pc::RingVec{101, 202}));
  EXPECT_EQ(pc::reconstruct(pc::sub(ctx, sx, sy), rc), (pc::RingVec{99, 198}));
  EXPECT_EQ(pc::reconstruct(pc::scale(ctx, sx, 3), rc), (pc::RingVec{300, 600}));
}

TEST(SecretShare, AddPublicOnlyAdjustsPartyZero) {
  pc::Prng prng(6);
  const auto rc = rc32();
  pc::RingVec x{5, 6};
  const auto sx = pc::share(x, prng, rc);
  const pc::TwoPartyContext ctx(rc);
  const auto r = pc::add_public(ctx, sx, pc::RingVec{10, 10});
  EXPECT_EQ(r.s1, sx.s1);
  EXPECT_EQ(pc::reconstruct(r, rc), (pc::RingVec{15, 16}));
}

TEST(SecretShare, TruncationErrorAtMostOneLsb) {
  pc::Prng prng(7);
  const auto rc = rc32();
  const pc::TwoPartyContext ctx(rc);
  // Values with 2f fraction bits (as after a fixed-point multiply).
  for (double x : {1.5, -1.5, 100.125, -37.875, 0.0}) {
    const std::uint64_t wide = pc::encode(x * rc.scale(), rc);
    const auto sh = pc::share(pc::RingVec{wide}, prng, rc);
    const auto tr = pc::truncate_shares(ctx, sh);
    const double got = pc::decode(pc::reconstruct(tr, rc)[0], rc);
    EXPECT_NEAR(got, x, 2.0 / rc.scale()) << "x=" << x;
  }
}

TEST(SecretShare, SizeMismatchThrows) {
  pc::Prng prng(8);
  const auto rc = rc32();
  const auto a = pc::share(pc::RingVec{1, 2}, prng, rc);
  const auto b = pc::share(pc::RingVec{1}, prng, rc);
  const pc::TwoPartyContext ctx(rc);
  EXPECT_THROW((void)pc::add(ctx, a, b), std::invalid_argument);
  EXPECT_THROW((void)pc::add_public(ctx, a, pc::RingVec{1}), std::invalid_argument);
}

// Property: share/reconstruct is the identity for random vectors across
// ring widths, and local linear ops commute with reconstruction.
class ShareProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShareProperty, HomomorphismUnderLinearOps) {
  const int bits = GetParam();
  pc::RingConfig rc{bits, 4};
  const pc::TwoPartyContext ctx(rc);
  pc::Prng prng(bits);
  for (int trial = 0; trial < 50; ++trial) {
    pc::RingVec x(16), y(16);
    for (auto& e : x) e = prng.next_u64() & rc.mask();
    for (auto& e : y) e = prng.next_u64() & rc.mask();
    const auto sx = pc::share(x, prng, rc);
    const auto sy = pc::share(y, prng, rc);
    const std::uint64_t a = prng.next_u64() & rc.mask();
    const auto lhs = pc::reconstruct(pc::linear(ctx, a, sx, sy), rc);
    pc::RingVec rhs(16);
    for (std::size_t i = 0; i < 16; ++i) {
      rhs[i] = pc::ring_add(pc::ring_mul(a, x[i], rc), y[i], rc);
    }
    EXPECT_EQ(lhs, rhs);
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, ShareProperty, ::testing::Values(8, 16, 32, 64));
