#include <gtest/gtest.h>

#include <chrono>

#include "crypto/channel.hpp"

namespace pc = pasnet::crypto;

TEST(Channel, RoundTripBytes) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_bytes({1, 2, 3});
  EXPECT_EQ(c1->recv_bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Channel, BothDirectionsIndependent) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_bytes({10});
  c1->send_bytes({20});
  EXPECT_EQ(c0->recv_bytes(), std::vector<std::uint8_t>{20});
  EXPECT_EQ(c1->recv_bytes(), std::vector<std::uint8_t>{10});
}

TEST(Channel, RecvWithoutSendThrows) {
  auto [c0, c1] = pc::Channel::make_pair();
  EXPECT_THROW((void)c0->recv_bytes(), std::logic_error);
  (void)c1;
}

TEST(Channel, FifoOrderPreserved) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_bytes({1});
  c0->send_bytes({2});
  c0->send_bytes({3});
  EXPECT_EQ(c1->recv_bytes()[0], 1);
  EXPECT_EQ(c1->recv_bytes()[0], 2);
  EXPECT_EQ(c1->recv_bytes()[0], 3);
}

TEST(Channel, RingVectorRoundTrip) {
  auto [c0, c1] = pc::Channel::make_pair();
  pc::RingVec v{0xDEADBEEFULL, 0x12345678ULL, 0};
  c0->send_ring(v, 4);
  EXPECT_EQ(c1->recv_ring(3, 4), v);
}

TEST(Channel, StatsCountWireBytesNotMemoryBytes) {
  auto [c0, c1] = pc::Channel::make_pair();
  pc::RingVec v(10, 1);
  c0->send_ring(v, 4);  // 32-bit ring: 4 bytes per element on the wire
  EXPECT_EQ(c0->stats().bytes_p0_to_p1, 40u);
  (void)c1->recv_ring(10, 4);
}

TEST(Channel, EachEndpointMetersItsOwnView) {
  // An endpoint credits its own sends when it sends and the peer's when it
  // receives them, in a block of its own.
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_bytes({1, 2});
  c1->send_bytes({3});
  EXPECT_EQ(c0->stats().bytes_p0_to_p1, 2u);
  EXPECT_EQ(c0->stats().messages, 1u);
  EXPECT_EQ(c1->stats().bytes_p1_to_p0, 1u);
  EXPECT_EQ(c1->stats().messages, 1u);
  (void)c0->recv_bytes();
  (void)c1->recv_bytes();
  for (const auto* c : {c0.get(), c1.get()}) {
    EXPECT_EQ(c->stats().bytes_p0_to_p1, 2u);
    EXPECT_EQ(c->stats().bytes_p1_to_p0, 1u);
    EXPECT_EQ(c->stats().messages, 2u);
  }
}

TEST(Channel, RoundCountingTracksDirectionFlips) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_bytes({1});  // round 1
  c0->send_bytes({2});  // same direction, same round
  EXPECT_EQ(c0->stats().rounds, 1u);
  (void)c1->recv_bytes();
  (void)c1->recv_bytes();
  c1->send_bytes({3});  // direction flip -> round 2, seen by c0 on receipt
  (void)c0->recv_bytes();
  EXPECT_EQ(c0->stats().rounds, 2u);
  c0->send_bytes({4});  // flip again -> round 3
  EXPECT_EQ(c0->stats().rounds, 3u);
  (void)c1->recv_bytes();
  EXPECT_EQ(c1->stats().rounds, 3u);  // the peer observed the same flips
}

TEST(Channel, ResetStatsClearsCounters) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_bytes({1, 2, 3});
  (void)c1->recv_bytes();
  c0->reset_stats();
  EXPECT_EQ(c0->stats().total_bytes(), 0u);
  EXPECT_EQ(c0->stats().messages, 0u);
  EXPECT_EQ(c0->stats().rounds, 0u);
}

TEST(Channel, SizeMismatchOnRecvRingThrows) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_ring(pc::RingVec{1, 2}, 4);
  EXPECT_THROW((void)c1->recv_ring(3, 4), pc::FrameLengthError);
}

TEST(Channel, U64Convenience) {
  auto [c0, c1] = pc::Channel::make_pair();
  c0->send_u64(0xABCDEF0123456789ULL);
  EXPECT_EQ(c1->recv_u64(), 0xABCDEF0123456789ULL);
}

TEST(Channel, RoundBracketCountsSymmetricExchangeOnce) {
  // Messages of one begin_round/end_round bracket are concurrently in
  // flight: however many an endpoint sends and receives inside its
  // bracket, the bracket is one round.
  auto [c0, c1] = pc::Channel::make_pair();
  c0->begin_round();
  c1->begin_round();
  c0->send_bytes({1});
  c1->send_bytes({2});
  (void)c1->recv_bytes();
  (void)c0->recv_bytes();
  c0->end_round();
  c1->end_round();
  for (const auto* c : {c0.get(), c1.get()}) {
    EXPECT_EQ(c->stats().rounds, 1u);
    EXPECT_EQ(c->stats().messages, 2u);
  }
  // The first message after the bracket starts a fresh round even without
  // a direction flip.
  c1->send_bytes({3});
  (void)c0->recv_bytes();
  EXPECT_EQ(c0->stats().rounds, 2u);
}

TEST(Channel, LockstepSymmetricExchangeCostsOneDelayNotTwo) {
  // Per-message in-flight deadlines: both directions of a symmetric
  // exchange are stamped at (roughly) the same enqueue time, so the
  // receiver waits out ONE modeled delay total — not one per direction
  // flip as the old model charged.  The delay is large so the < 2·delay
  // ceiling leaves ample slack for CI scheduling noise.
  constexpr auto kDelay = std::chrono::milliseconds(250);
  pc::ChannelOptions opts;
  opts.round_delay = kDelay;
  auto [c0, c1] = pc::Channel::make_pair(opts);
  const auto t0 = std::chrono::steady_clock::now();
  c0->send_bytes({1});
  c1->send_bytes({2});
  (void)c0->recv_bytes();
  (void)c1->recv_bytes();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, kDelay);          // the wire latency is real...
  EXPECT_LT(elapsed, 2 * kDelay);      // ...but the directions overlap
}

TEST(Channel, SequentialDependentMessagesPayOneDelayEach) {
  // A genuine request->response dependency cannot beat two one-way delays.
  constexpr auto kDelay = std::chrono::milliseconds(40);
  pc::ChannelOptions opts;
  opts.round_delay = kDelay;
  auto [c0, c1] = pc::Channel::make_pair(opts);
  const auto t0 = std::chrono::steady_clock::now();
  c0->send_bytes({1});
  (void)c1->recv_bytes();  // waits out delay 1
  c1->send_bytes({2});
  (void)c0->recv_bytes();  // waits out delay 2
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 2 * kDelay);
}
