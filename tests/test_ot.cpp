// The precomputed (1,4)-OT: correctness for every (choice, random choice)
// pair and both sender roles, its exact two-message transcript, merged
// flushes that keep each stage's own random OTs, and typed errors on
// frames of the wrong length between two remote contexts.

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>

#include "crypto/ot.hpp"

namespace pc = pasnet::crypto;
namespace dh = pasnet::crypto::dh;

TEST(DhMath, MulmodMatchesInt128) {
  const std::uint64_t a = 0x1234567890ABCDEFULL % dh::kPrime;
  const std::uint64_t b = 0x0FEDCBA987654321ULL % dh::kPrime;
  const auto want = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % dh::kPrime);
  EXPECT_EQ(dh::mulmod(a, b), want);
}

TEST(DhMath, PowmodBasics) {
  EXPECT_EQ(dh::powmod(2, 0), 1u);
  EXPECT_EQ(dh::powmod(2, 10), 1024u);
  EXPECT_EQ(dh::powmod(dh::kGenerator, dh::kPrime - 1), 1u);  // Fermat
}

TEST(DhMath, InverseIsCorrect) {
  for (std::uint64_t a : std::vector<std::uint64_t>{2, 3, 12345, dh::kPrime - 2}) {
    EXPECT_EQ(dh::mulmod(a, dh::invmod(a)), 1u) << a;
  }
}

namespace {

using Tables = std::vector<std::array<std::uint8_t, pc::kOtFanIn>>;

/// n random OTs with the given sender, random choices r_t, and pads that
/// differ per instance and per `salt`.
pc::RandomOt make_rot(int sender, const std::vector<std::uint8_t>& r, std::uint8_t salt) {
  pc::RandomOt rot;
  rot.sender = sender;
  rot.choice = r;
  for (std::size_t t = 0; t < r.size(); ++t) {
    for (int j = 0; j < pc::kOtFanIn; ++j) {
      rot.pads.push_back(static_cast<std::uint8_t>(salt + 37 * t + 11 * j + 1));
    }
    rot.chosen.push_back(rot.pads[pc::kOtFanIn * t + r[t]]);
  }
  return rot;
}

Tables random_tables(std::size_t n, pc::Prng& prng) {
  Tables tables(n);
  for (auto& row : tables) {
    for (auto& e : row) e = static_cast<std::uint8_t>(prng.next_u64());
  }
  return tables;
}

std::vector<std::uint8_t> random_choices(std::size_t n, pc::Prng& prng) {
  std::vector<std::uint8_t> c(n);
  for (auto& v : c) v = static_cast<std::uint8_t>(prng.next_below(pc::kOtFanIn));
  return c;
}

}  // namespace

TEST(Ot, DeliversChosenMessage) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(99);
  const std::size_t n = 64;
  const Tables tables = random_tables(n, prng);
  const std::vector<std::uint8_t> choices = random_choices(n, prng);
  const auto out = pc::ot_1of4(ctx, /*sender=*/1, tables, choices);
  ASSERT_EQ(out.size(), n);
  for (std::size_t t = 0; t < n; ++t) EXPECT_EQ(out[t], tables[t][choices[t]]) << t;
  // One random-OT batch claimed from the context's triple source.
  EXPECT_EQ(ctx.counters()[pasnet::obs::Counter::triple_claims], 1u);
}

TEST(Ot, SenderCanBeEitherParty) {
  for (int sender : {0, 1}) {
    pc::TwoPartyContext ctx;
    Tables tables{{10, 20, 30, 40}};
    std::vector<std::uint8_t> choices{3};
    const auto out = pc::ot_1of4(ctx, sender, tables, choices);
    EXPECT_EQ(out[0], 40);
  }
}

TEST(Ot, EmptyBatchIsNoop) {
  pc::TwoPartyContext ctx;
  const auto out = pc::ot_1of4(ctx, 1, {}, {});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);
  EXPECT_EQ(ctx.counters()[pasnet::obs::Counter::triple_claims], 0u);
}

TEST(Ot, MismatchedInputsThrow) {
  pc::TwoPartyContext ctx;
  Tables tables(2, {0, 0, 0, 0});
  EXPECT_THROW((void)pc::ot_1of4(ctx, 1, tables, {0}), std::invalid_argument);
  std::vector<std::uint8_t> bad_choice{7, 0};
  EXPECT_THROW((void)pc::ot_1of4(ctx, 1, tables, bad_choice), std::invalid_argument);
  // A random-OT batch sized for another request is refused before any
  // message moves.
  std::vector<std::uint8_t> out;
  EXPECT_THROW(ctx.ots().stage(make_rot(1, {0, 1, 2}, 0), tables, {0, 1}, &out),
               std::invalid_argument);
  pc::RandomOt short_pads = make_rot(1, {0, 1}, 0);
  short_pads.pads.pop_back();
  EXPECT_THROW(ctx.ots().stage(std::move(short_pads), tables, {0, 1}, &out),
               std::invalid_argument);
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);
}

TEST(Ot, TwoRoundsExactly) {
  // A batch of n is two messages in two rounds: ⌈n/4⌉ bytes of packed
  // shifts from the receiver, 4·n bytes of masked tables from the sender.
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{63}, std::size_t{64}}) {
    for (const int sender : {0, 1}) {
      pc::TwoPartyContext ctx;
      pc::Prng prng(n + 10 * sender);
      (void)pc::ot_1of4(ctx, sender, random_tables(n, prng), random_choices(n, prng));
      const pc::TrafficStats st = ctx.stats();
      EXPECT_EQ(st.rounds, 2u) << n;
      EXPECT_EQ(st.messages, 2u) << n;
      EXPECT_EQ(st.total_bytes(), 4 * n + (n + 3) / 4) << n;
      const std::uint64_t to_sender = sender == 0 ? st.bytes_p1_to_p0 : st.bytes_p0_to_p1;
      EXPECT_EQ(to_sender, (n + 3) / 4) << n;
      EXPECT_EQ(ctx.counters()[pasnet::obs::Counter::ot_batches], 1u);
      EXPECT_EQ(ctx.counters()[pasnet::obs::Counter::ot_messages], n);
    }
  }
}

TEST(Ot, BothModesProduceSameTraffic) {
  // A flush per stage and one merged flush move the same bytes: each stage
  // packs its shifts to its own byte boundary, so merging saves messages
  // and rounds, never bytes.
  const std::vector<std::size_t> sizes = {3, 5, 8};
  pc::TrafficStats st[2];
  for (const bool merged : {false, true}) {
    pc::TwoPartyContext ctx;
    pc::Prng prng(7);
    std::vector<std::vector<std::uint8_t>> outs(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ctx.ots().stage(ctx.random_ot(sizes[i], 1), random_tables(sizes[i], prng),
                      random_choices(sizes[i], prng), &outs[i]);
      if (!merged) ctx.ots().flush();
    }
    ctx.ots().flush();
    st[merged ? 1 : 0] = ctx.stats();
  }
  std::uint64_t want = 0;
  for (const std::size_t n : sizes) want += 4 * n + (n + 3) / 4;
  EXPECT_EQ(st[0].total_bytes(), want);
  EXPECT_EQ(st[1].total_bytes(), want);
  EXPECT_EQ(st[0].messages, 2 * sizes.size());
  EXPECT_EQ(st[1].messages, 2u);
  EXPECT_EQ(st[1].rounds, 2u);
}

TEST(Ot, MergedFlushUnmasksEachLaneWithItsOwnPads) {
  // K lanes stage one batch each, every lane with its own random OTs
  // (distinct pads and random choices); one merged exchange must hand each
  // lane its own chosen entries.
  constexpr std::size_t kLanes = 4;
  pc::TwoPartyContext ctx;
  pc::Prng prng(21);
  std::vector<Tables> tables(kLanes);
  std::vector<std::vector<std::uint8_t>> choices(kLanes), outs(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::size_t n = 5 + l;  // unequal lanes: shift bytes do not align
    tables[l] = random_tables(n, prng);
    choices[l] = random_choices(n, prng);
    const pc::RandomOt rot =
        make_rot(1, random_choices(n, prng), static_cast<std::uint8_t>(64 * l));
    ctx.ots().stage(rot, tables[l], choices[l], &outs[l]);
  }
  ctx.ots().flush();
  EXPECT_EQ(ctx.counters()[pasnet::obs::Counter::ot_batches], 1u);
  for (std::size_t l = 0; l < kLanes; ++l) {
    ASSERT_EQ(outs[l].size(), choices[l].size()) << "lane " << l;
    for (std::size_t t = 0; t < choices[l].size(); ++t) {
      EXPECT_EQ(outs[l][t], tables[l][t][choices[l][t]]) << "lane " << l << " instance " << t;
    }
  }
}

TEST(Ot, WrongLengthFramesRaiseTypedErrors) {
  static_assert(std::is_base_of_v<std::runtime_error, pc::OtError>);
  const Tables tables{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16},
                      {17, 18, 19, 20}};
  const std::vector<std::uint8_t> choices{0, 1, 2, 3, 0};
  // Party 1 sends, party 0 receives; each remote context runs only its own
  // role, so a hand-written frame stands in for the peer.  Each stages on
  // the context's own buffer and flushes into the bad frame: the failed
  // flush leaves no stage, and no output pointer, parked.
  {
    auto [c0, c1] = pc::Channel::make_pair();
    pc::TwoPartyContext sender(pc::RingConfig{}, 42, 1, *c1);
    c0->send_bytes(std::vector<std::uint8_t>(3));  // 5 shifts pack to 2 bytes
    std::vector<std::uint8_t> out;
    sender.ots().stage(sender.random_ot(choices.size(), 1), tables, {}, &out);
    EXPECT_THROW(sender.ots().flush(), pc::OtError);
    EXPECT_FALSE(sender.ots().has_pending());
  }
  {
    auto [c0, c1] = pc::Channel::make_pair();
    pc::TwoPartyContext receiver(pc::RingConfig{}, 42, 0, *c0);
    c1->send_bytes(std::vector<std::uint8_t>(4 * 5 - 1));  // one table byte short
    std::vector<std::uint8_t> out;
    receiver.ots().stage(receiver.random_ot(choices.size(), 1), {}, choices, &out);
    EXPECT_THROW(receiver.ots().flush(), pc::OtError);
    EXPECT_FALSE(receiver.ots().has_pending());
  }
  // The well-formed exchange between the same two roles delivers the
  // chosen entries (threaded endpoints: each side blocks on the other).
  {
    auto chans = pc::Channel::make_pair(pc::ChannelMode::threaded);
    std::vector<std::uint8_t> got;
    std::thread receiver([&] {
      pc::TwoPartyContext ctx(pc::RingConfig{}, 42, 0, *chans.first);
      got = pc::ot_1of4(ctx, 1, tables, choices);
    });
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, 1, *chans.second);
    (void)pc::ot_1of4(ctx, 1, tables, choices);
    receiver.join();
    ASSERT_EQ(got.size(), choices.size());
    for (std::size_t t = 0; t < choices.size(); ++t) EXPECT_EQ(got[t], tables[t][choices[t]]);
  }
}

// Property: every (choice c, random choice r) pair delivers T_c, with
// either party as the sender.
class OtExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(OtExhaustive, AllChoices) {
  const auto c = static_cast<std::uint8_t>(GetParam());
  const Tables tables{{11, 22, 33, 44}};
  for (const int sender : {0, 1}) {
    for (std::uint8_t r = 0; r < pc::kOtFanIn; ++r) {
      pc::TwoPartyContext ctx;
      std::vector<std::uint8_t> out;
      ctx.ots().stage(make_rot(sender, {r}, 100), tables, {c}, &out);
      ctx.ots().flush();
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], tables[0][c]) << "sender " << sender << " r " << int(r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Choices, OtExhaustive, ::testing::Values(0, 1, 2, 3));
