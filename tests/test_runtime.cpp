// Tests for where concurrency is real: the thread-safe bounded blocking
// channel driven from two threads, exchanges between endpoints on their own
// threads, round accounting, and batched serving over worker pools.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <thread>

#include "nn/layers.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::max_abs_diff;
using pasnet::testing::tiny_cnn;

namespace {

constexpr auto kShortTimeout = std::chrono::milliseconds(100);

std::vector<std::uint8_t> payload(std::uint32_t i) {
  std::vector<std::uint8_t> p(4);
  std::memcpy(p.data(), &i, 4);
  return p;
}

std::uint32_t payload_value(const std::vector<std::uint8_t>& p) {
  std::uint32_t i = 0;
  std::memcpy(&i, p.data(), 4);
  return i;
}

void warm_up(nn::Graph& g, std::uint64_t seed) { pasnet::testing::warm_up(g, 2, 8, seed); }

/// Drives the two endpoints of a blocking pair concurrently: f1 on a thread
/// of its own, f0 on the caller's.  Rethrows f0's failure, else f1's.
void run_parties(const std::function<void()>& f0, const std::function<void()>& f1) {
  std::exception_ptr e1;
  std::thread t1([&] {
    try {
      f1();
    } catch (...) {
      e1 = std::current_exception();
    }
  });
  std::exception_ptr e0;
  try {
    f0();
  } catch (...) {
    e0 = std::current_exception();
  }
  t1.join();
  if (e0) std::rethrow_exception(e0);
  if (e1) std::rethrow_exception(e1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Threaded channel
// ---------------------------------------------------------------------------

TEST(ThreadedChannel, BlockingRecvWaitsForLateSender) {
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded);
  std::uint32_t got = 0;
  run_parties([&, c0 = c0.get()] { got = payload_value(c0->recv_bytes()); },
              [c1 = c1.get()] {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                c1->send_bytes(payload(77));
              });
  EXPECT_EQ(got, 77u);
}

TEST(ThreadedChannel, StressManySmallSendsBothDirectionsBoundedQueue) {
  // A tiny capacity forces both senders to block on a full peer inbox; the
  // phase-shifted schedules (send-all-then-recv vs recv-all-then-send)
  // exercise not_full and not_empty waits on both endpoints.
  constexpr std::uint32_t kMessages = 5000;
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded, /*capacity=*/4,
                                         std::chrono::milliseconds(10000));
  bool order0 = true, order1 = true;
  run_parties(
      [&, c0 = c0.get()] {
        for (std::uint32_t i = 0; i < kMessages; ++i) c0->send_bytes(payload(i));
        for (std::uint32_t i = 0; i < kMessages; ++i) {
          order0 = order0 && payload_value(c0->recv_bytes()) == i;
        }
      },
      [&, c1 = c1.get()] {
        for (std::uint32_t i = 0; i < kMessages; ++i) {
          order1 = order1 && payload_value(c1->recv_bytes()) == i;
        }
        for (std::uint32_t i = 0; i < kMessages; ++i) c1->send_bytes(payload(i));
      });
  EXPECT_TRUE(order0);  // FIFO preserved p1 -> p0
  EXPECT_TRUE(order1);  // FIFO preserved p0 -> p1
  const auto stats = c0->stats();
  EXPECT_EQ(stats.bytes_p0_to_p1, kMessages * 4ull);
  EXPECT_EQ(stats.bytes_p1_to_p0, kMessages * 4ull);
  EXPECT_EQ(stats.messages, 2ull * kMessages);
}

TEST(ThreadedChannel, RecvTimesOutInsteadOfHanging) {
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded,
                                         pc::Channel::kDefaultCapacity, kShortTimeout);
  EXPECT_THROW((void)c0->recv_bytes(), pc::ChannelTimeout);
  (void)c1;
}

TEST(ThreadedChannel, SendTimesOutWhenPeerInboxStaysFull) {
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded, /*capacity=*/1,
                                         kShortTimeout);
  c0->send_bytes({1});
  EXPECT_THROW(c0->send_bytes({2}), pc::ChannelTimeout);
  (void)c1;
}

TEST(ThreadedChannel, CloseWakesBlockedReceiver) {
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded);
  EXPECT_THROW(run_parties([c0 = c0.get()] { (void)c0->recv_bytes(); },
                           [c1 = c1.get()] {
                             std::this_thread::sleep_for(std::chrono::milliseconds(20));
                             c1->close();
                           }),
               pc::ChannelClosed);
}

TEST(ThreadedChannel, LockstepModeStillThrowsOnEmptyRecv) {
  auto [c0, c1] = pc::Channel::make_pair();  // default stays lockstep
  EXPECT_THROW((void)c0->recv_bytes(), std::logic_error);
  (void)c1;
}

TEST(ThreadedChannel, RoundDelayDelaysDelivery) {
  // The modeled half-RTT must hold back the message itself, not just stall
  // the sender: a receiver already blocked in recv cannot complete before
  // the delay has elapsed (sleep_for guarantees a lower bound).
  constexpr auto kDelay = std::chrono::milliseconds(100);
  pc::ChannelOptions opts;
  opts.mode = pc::ChannelMode::threaded;
  opts.round_delay = kDelay;
  auto [c0, c1] = pc::Channel::make_pair(opts);
  const auto t0 = std::chrono::steady_clock::now();
  run_parties([c0 = c0.get()] { c0->send_bytes({1}); },
              [c1 = c1.get()] { (void)c1->recv_bytes(); });
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kDelay);
}

TEST(ThreadedChannel, RemoteEndpointsMeterEachOpenOnce) {
  // Two remote contexts on their own threads, each metering its own
  // endpoint: 100 opens, each staged and flushed, read 100 rounds and 100
  // openings on BOTH endpoints, as each endpoint of a TCP pair does.
  constexpr int kOpens = 100;
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded);
  pc::TwoPartyContext party0(pc::RingConfig{}, 42, 0, *c0);
  pc::TwoPartyContext party1(pc::RingConfig{}, 42, 1, *c1);
  pc::Prng prng(11);
  const pc::Shared sh = pc::share(pc::RingVec{1, 2, 3}, prng, party0.ring());
  const auto opens = [&sh](pc::TwoPartyContext& ctx) {
    pc::RingVec out;
    for (int i = 0; i < kOpens; ++i) {
      ctx.opens().stage(sh, &out);
      ctx.opens().flush();
    }
  };
  run_parties([&] { opens(party0); }, [&] { opens(party1); });
  for (const pc::TwoPartyContext* ctx : {&party0, &party1}) {
    EXPECT_EQ(ctx->stats().rounds, static_cast<std::uint64_t>(kOpens));
    EXPECT_EQ(ctx->stats().messages, 2u * kOpens);
    EXPECT_EQ(ctx->counters()[obs::Counter::openings], static_cast<std::uint64_t>(kOpens));
  }
  EXPECT_EQ(party0.stats().total_bytes(), party1.stats().total_bytes());
}

TEST(ThreadedChannel, SymmetricExchangeCostsOneDelayInThreadedMode) {
  // With per-message in-flight deadlines both directions overlap, so a
  // symmetric exchange between two endpoints on their own threads costs
  // one modeled delay, as it does in process.  Large delay: the < 2·delay
  // ceiling leaves ample slack for CI scheduling noise.
  constexpr auto kDelay = std::chrono::milliseconds(250);
  pc::ChannelOptions opts;
  opts.mode = pc::ChannelMode::threaded;
  opts.round_delay = kDelay;
  auto [c0, c1] = pc::Channel::make_pair(opts);
  pc::TwoPartyContext party0(pc::RingConfig{}, 42, 0, *c0);
  pc::TwoPartyContext party1(pc::RingConfig{}, 42, 1, *c1);
  pc::Prng prng(10);
  const auto sh = pc::share(pc::RingVec{1, 2, 3, 0xFFFFFFFFull}, prng, party0.ring());
  pc::RingVec got0, got1;
  const auto t0 = std::chrono::steady_clock::now();
  run_parties([&] { got0 = pc::open(party0, sh); }, [&] { got1 = pc::open(party1, sh); });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, kDelay);
  EXPECT_LT(elapsed, 2 * kDelay);
  EXPECT_EQ(got0, pc::reconstruct(sh, party0.ring()));
  EXPECT_EQ(got1, got0);
}

// ---------------------------------------------------------------------------
// Round accounting (one merged multi-open exchange == one round)
// ---------------------------------------------------------------------------

TEST(RoundAccounting, OneOpenIsOneRoundInBothModes) {
  for (const auto mode : {pc::ExecMode::lockstep, pc::ExecMode::threaded}) {
    pc::TwoPartyContext ctx(pc::RingConfig{}, 42, mode);
    pc::Prng prng(11);
    const auto sh = pc::share(pc::RingVec{1, 2, 3, 4}, prng, ctx.ring());
    ctx.reset_stats();
    (void)pc::open(ctx, sh);
    EXPECT_EQ(ctx.stats().rounds, 1u);
    EXPECT_EQ(ctx.stats().messages, 2u);  // one per direction
  }
}

TEST(RoundAccounting, CoalescedMultiOpenFlushIsOneRound) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(12);
  const auto a = pc::share(pc::RingVec{1, 2}, prng, ctx.ring());
  const auto b = pc::share(pc::RingVec{3, 4, 5}, prng, ctx.ring());
  const auto c = pc::share(pc::RingVec{6}, prng, ctx.ring());
  ctx.reset_stats();
  pc::RingVec ra, rb, rc_;
  ctx.opens().stage(a, &ra);
  ctx.opens().stage(b, &rb);
  ctx.opens().stage(c, &rc_);
  EXPECT_EQ(ctx.stats().messages, 0u);  // nothing sent until the flush
  ctx.opens().flush();
  EXPECT_EQ(ctx.stats().rounds, 1u);
  EXPECT_EQ(ctx.stats().messages, 2u);
  EXPECT_EQ(ra, pc::reconstruct(a, ctx.ring()));
  EXPECT_EQ(rb, pc::reconstruct(b, ctx.ring()));
  EXPECT_EQ(rc_, pc::reconstruct(c, ctx.ring()));
}

TEST(RoundAccounting, FlushPerStageOpensPerStage) {
  // A flush after every stage opens each stage in its own exchange: one
  // round and one message per direction each, with the right values.
  pc::TwoPartyContext ctx;
  pc::Prng prng(13);
  const auto a = pc::share(pc::RingVec{1, 2}, prng, ctx.ring());
  const auto b = pc::share(pc::RingVec{3, 4}, prng, ctx.ring());
  ctx.reset_stats();
  pc::RingVec ra, rb;
  ctx.opens().stage(a, &ra);
  ctx.opens().flush();
  ctx.opens().stage(b, &rb);
  ctx.opens().flush();
  EXPECT_EQ(ctx.stats().rounds, 2u);
  EXPECT_EQ(ctx.stats().messages, 4u);
  EXPECT_EQ(ra, pc::reconstruct(a, ctx.ring()));
  EXPECT_EQ(rb, pc::reconstruct(b, ctx.ring()));
}

TEST(RoundAccounting, DiscardDropsPendingStagesAndKeepsBufferUsable) {
  // Error-path contract: an unwound protocol step discards its pending
  // stages (no dangling output pointers), after which the buffer accepts
  // fresh work.
  pc::TwoPartyContext ctx;
  pc::Prng prng(16);
  const auto a = pc::share(pc::RingVec{7, 8}, prng, ctx.ring());
  pc::RingVec ra;
  ctx.opens().stage(a, &ra);
  EXPECT_TRUE(ctx.opens().has_pending());
  ctx.opens().discard();
  EXPECT_FALSE(ctx.opens().has_pending());
  ctx.reset_stats();
  ctx.opens().flush();  // nothing pending: no traffic
  EXPECT_EQ(ctx.stats().messages, 0u);
  EXPECT_TRUE(ra.empty());  // the discarded stage was never written
  pc::RingVec rb;
  ctx.opens().stage(a, &rb);
  ctx.opens().flush();
  EXPECT_EQ(rb, pc::reconstruct(a, ctx.ring()));
}

TEST(RoundAccounting, MeasuredConvRoundsMatchAnalyticUnderCoalescing) {
  // The analytic model prices a conv at ONE round: its E and F openings
  // share one exchange, which the one-shot conv measures exactly.
  pc::TwoPartyContext ctx;
  pc::Prng prng(14), wprng(15);
  nn::Conv2d conv(2, 4, 3, 1, 1, wprng);
  const auto x = nn::Tensor::randn({1, 2, 6, 6}, prng, 0.5f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(conv.weight().to_doubles(), prng, ctx.ring());
  ctx.reset_stats();
  (void)proto::secure_conv2d(ctx, sx, sw, nullptr, 4, 3, 1, 1);
  EXPECT_EQ(ctx.stats().rounds, 1u);
}

// ---------------------------------------------------------------------------
// Threaded + batched secure inference
// ---------------------------------------------------------------------------

TEST(SecureRuntime, ThreadedInferMatchesLockstepBitForBit) {
  // ExecMode is ignored — every in-process context runs the lockstep
  // schedule — but callers still pass ExecMode::threaded (e2ebench's WAN
  // workload does), so such a context must reveal the same bits and move
  // the same transcript, also through the OT comparison stack.
  std::uint64_t seed = 20;
  for (const auto& md : {tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool),
                         tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool)}) {
    pc::Prng wprng(seed += 10);
    std::vector<int> node_of_layer;
    auto g = nn::build_graph(md, wprng, &node_of_layer);
    warm_up(*g, seed + 1);

    pc::TwoPartyContext lockstep(pc::RingConfig{}, 42, pc::ExecMode::lockstep);
    pc::TwoPartyContext threaded(pc::RingConfig{}, 42, pc::ExecMode::threaded);
    proto::SecureNetwork snet_lock(md, *g, node_of_layer, lockstep);
    proto::SecureNetwork snet_thr(md, *g, node_of_layer, threaded);

    pc::Prng dprng(seed + 2);
    const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
    proto::Workload wl_lock(snet_lock), wl_thr(snet_thr);
    const auto logits_lock = std::move(wl_lock.run({x}).logits[0]);
    const auto logits_thr = std::move(wl_thr.run({x}).logits[0]);
    ASSERT_EQ(logits_lock.size(), logits_thr.size());
    for (std::size_t i = 0; i < logits_lock.size(); ++i) {
      EXPECT_EQ(logits_lock[i], logits_thr[i]) << md.name << " logit " << i;
    }
    EXPECT_EQ(wl_lock.stats().comm_bytes, wl_thr.stats().comm_bytes) << md.name;
    EXPECT_EQ(wl_lock.stats().messages, wl_thr.stats().messages) << md.name;
    EXPECT_EQ(wl_lock.stats().rounds, wl_thr.stats().rounds) << md.name;
  }
}

TEST(SecureRuntime, InferBatchMatchesSequentialBaselineExactly) {
  const auto md = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::Prng wprng(41);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 42);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);

  pc::Prng dprng(43);
  std::vector<nn::Tensor> queries;
  for (int q = 0; q < 6; ++q) queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f));

  proto::Workload seq_wl(snet);
  const auto sequential = seq_wl.run(queries).logits;
  const auto seq_stats = seq_wl.chunk_stats();
  proto::Workload par_wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/4});
  const auto parallel = par_wl.run(queries).logits;
  ASSERT_EQ(sequential.size(), queries.size());
  ASSERT_EQ(parallel.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t i = 0; i < sequential[q].size(); ++i) {
      EXPECT_EQ(sequential[q][i], parallel[q][i]) << "query " << q << " logit " << i;
    }
    // Per-query protocol transcript is identical at any worker count.
    EXPECT_EQ(seq_stats[q].counters.total_bytes(), par_wl.chunk_stats()[q].counters.total_bytes());
    EXPECT_EQ(seq_stats[q].counters[obs::Counter::rounds],
              par_wl.chunk_stats()[q].counters[obs::Counter::rounds]);
  }
}

TEST(SecureRuntime, InferBatchMatchesSingleInferUpToTruncationNoise) {
  const auto md = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::Prng wprng(51);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 52);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);

  pc::Prng dprng(53);
  std::vector<nn::Tensor> queries;
  for (int q = 0; q < 3; ++q) queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f));

  proto::Workload batched_wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/2});
  const auto batched = batched_wl.run(queries).logits;
  const auto batch_comm = batched_wl.stats().comm_bytes;
  const auto per_query = batched_wl.chunk_stats();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    proto::Workload single_wl(snet);  // fresh workload: stream position 0
    const auto single = std::move(single_wl.run({queries[q]}).logits[0]);
    // Different dealer randomness => only ±1-LSB local truncation noise.
    EXPECT_LT(max_abs_diff(batched[q], single), 0.05f) << "query " << q;
    // Per-query traffic is shape-deterministic: batching changes nothing.
    EXPECT_EQ(per_query[q].counters.total_bytes(), single_wl.stats().comm_bytes) << "query " << q;
  }
  // Merged totals are the sum of the per-query stats.
  std::uint64_t sum = 0;
  for (const auto& qs : per_query) sum += qs.counters.total_bytes();
  EXPECT_EQ(batch_comm, sum);
}

TEST(SecureRuntime, InferBatchHandlesEdgeCases) {
  const auto md = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::Prng wprng(61);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 62);

  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(md, *g, node_of_layer, ctx);

  proto::Workload wl(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/4});
  EXPECT_TRUE(wl.run({}).logits.empty());
  EXPECT_TRUE(wl.chunk_stats().empty());

  pc::Prng dprng(63);
  const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
  // More workers than chunks clamps internally; nonsense widths are typed
  // construction errors under the workload API instead of silent clamps.
  proto::Workload wide(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/16});
  EXPECT_EQ(wide.run({x}).logits.size(), 1u);
  EXPECT_THROW(
      proto::Workload(snet, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/0}),
      std::invalid_argument);
  EXPECT_THROW(
      proto::Workload(snet, {proto::WorkloadKind::logits, /*batch=*/0, /*worker_pairs=*/1}),
      std::invalid_argument);
}
