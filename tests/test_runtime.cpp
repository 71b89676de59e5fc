// Tests for the concurrent two-party runtime: the thread-safe bounded
// blocking channel, the TwoPartyRuntime party executors, and the batched
// SecureNetwork::infer_batch API.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
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

}  // namespace

// ---------------------------------------------------------------------------
// Threaded channel
// ---------------------------------------------------------------------------

TEST(ThreadedChannel, BlockingRecvWaitsForLateSender) {
  auto [c0, c1] = pc::Channel::make_pair(pc::ChannelMode::threaded);
  pc::TwoPartyRuntime rt;
  std::uint32_t got = 0;
  rt.run([&, c0 = c0.get()] { got = payload_value(c0->recv_bytes()); },
         [&, c1 = c1.get()] {
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
  pc::TwoPartyRuntime rt;
  bool order0 = true, order1 = true;
  rt.run(
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
  pc::TwoPartyRuntime rt;
  EXPECT_THROW(rt.run([c0 = c0.get()] { (void)c0->recv_bytes(); },
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

// ---------------------------------------------------------------------------
// TwoPartyRuntime
// ---------------------------------------------------------------------------

TEST(TwoPartyRuntime, PropagatesPartyExceptions) {
  pc::TwoPartyRuntime rt;
  EXPECT_THROW(rt.run([] { throw std::runtime_error("party 0 died"); }, [] {}),
               std::runtime_error);
  // The runtime survives a failed step and accepts new work.
  std::atomic<int> ran{0};
  rt.run([&] { ran += 1; }, [&] { ran += 2; });
  EXPECT_EQ(ran.load(), 3);
}

TEST(TwoPartyRuntime, StepsRunOnDistinctPartyThreads) {
  pc::TwoPartyRuntime rt;
  std::thread::id id0, id1;
  rt.run([&] { id0 = std::this_thread::get_id(); },
         [&] { id1 = std::this_thread::get_id(); });
  EXPECT_NE(id0, id1);
  EXPECT_NE(id0, std::this_thread::get_id());
  std::thread::id id0_again;
  rt.run([&] { id0_again = std::this_thread::get_id(); }, [] {});
  EXPECT_EQ(id0, id0_again);  // party threads are long-lived
}

TEST(TwoPartyRuntime, NestedExecFromPartyThreadFailsLoudly) {
  // The single-slot mailbox cannot express re-entrant exec/exchange from a
  // party thread; Worker::post must refuse (busy-or-same-thread) instead of
  // silently dropping a protocol round.
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  EXPECT_THROW(ctx.exec([&] { ctx.exec([] {}, [] {}); }, [] {}), std::logic_error);
  // Nesting from party thread 1: the nested f0 lands on the (idle again)
  // worker 0 and runs; the refused worker-1 post must drain it before
  // unwinding, then still surface the logic error.
  pc::TwoPartyContext ctx1(pc::RingConfig{}, 43, pc::ExecMode::threaded);
  EXPECT_THROW(ctx1.exec([] {}, [&] { ctx1.exec([] {}, [] {}); }), std::logic_error);
}

TEST(TwoPartyRuntime, PartyFailureFailsFastAndClosesChannels) {
  // A party bug must not leave its peer blocked until the 30s watchdog:
  // exec closes the channel pair on first failure, the peer unwinds with
  // ChannelClosed, and the root-cause exception is the one rethrown.
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(ctx.exec([] { throw std::invalid_argument("party 0 bug"); },
                        [&] { (void)ctx.chan(1).recv_bytes(); }),
               std::invalid_argument);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
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
  pc::TwoPartyRuntime rt;
  const auto t0 = std::chrono::steady_clock::now();
  rt.run([c0 = c0.get()] { c0->send_bytes({1}); },
         [c1 = c1.get()] { (void)c1->recv_bytes(); });
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kDelay);
}

TEST(TwoPartyRuntime, ThreadedOpenMatchesReconstruction) {
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  pc::Prng prng(9);
  const pc::RingVec x{1, 2, 3, 0xFFFFFFFFull};
  const auto sh = pc::share(x, prng, ctx.ring());
  EXPECT_EQ(pc::open(ctx, sh), pc::reconstruct(sh, ctx.ring()));
}

TEST(ThreadedChannel, SymmetricExchangeCostsOneDelayInThreadedMode) {
  // With per-message in-flight deadlines both directions overlap, so a
  // symmetric exchange costs one modeled delay in threaded mode too —
  // absolute latency numbers are mode-independent.  Large delay: the
  // < 2·delay ceiling leaves ample slack for CI scheduling noise.
  constexpr auto kDelay = std::chrono::milliseconds(250);
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, pc::ExecMode::threaded, kDelay);
  pc::Prng prng(10);
  const auto sh = pc::share(pc::RingVec{1, 2, 3}, prng, ctx.ring());
  const auto t0 = std::chrono::steady_clock::now();
  (void)pc::open(ctx, sh);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, kDelay);
  EXPECT_LT(elapsed, 2 * kDelay);
}

// ---------------------------------------------------------------------------
// Round accounting (one coalesced multi-open exchange == one round)
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
  ctx.opens().set_coalescing(true);
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
  ctx.opens().set_coalescing(false);
}

TEST(RoundAccounting, ImmediateModeOpensPerStage) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(13);
  const auto a = pc::share(pc::RingVec{1, 2}, prng, ctx.ring());
  const auto b = pc::share(pc::RingVec{3, 4}, prng, ctx.ring());
  ctx.reset_stats();
  pc::RingVec ra, rb;
  ctx.opens().stage(a, &ra);
  ctx.opens().stage(b, &rb);
  ctx.opens().flush();  // no-op: everything already opened
  EXPECT_EQ(ctx.stats().rounds, 2u);
  EXPECT_EQ(ra, pc::reconstruct(a, ctx.ring()));
  EXPECT_EQ(rb, pc::reconstruct(b, ctx.ring()));
}

TEST(RoundAccounting, DiscardDropsPendingStagesAndKeepsBufferUsable) {
  // Error-path contract: an unwound protocol step discards its pending
  // stages (no dangling output pointers), after which the buffer accepts
  // mode switches and fresh work.
  pc::TwoPartyContext ctx;
  pc::Prng prng(16);
  const auto a = pc::share(pc::RingVec{7, 8}, prng, ctx.ring());
  ctx.opens().set_coalescing(true);
  pc::RingVec ra;
  ctx.opens().stage(a, &ra);
  EXPECT_TRUE(ctx.opens().has_pending());
  EXPECT_THROW(ctx.opens().set_coalescing(false), std::logic_error);
  ctx.opens().discard();
  EXPECT_FALSE(ctx.opens().has_pending());
  ctx.opens().set_coalescing(false);  // no throw once drained
  ctx.reset_stats();
  ctx.opens().flush();  // nothing pending: no traffic
  EXPECT_EQ(ctx.stats().messages, 0u);
  pc::RingVec rb;
  ctx.opens().stage(a, &rb);  // immediate mode still works
  EXPECT_EQ(rb, pc::reconstruct(a, ctx.ring()));
}

TEST(RoundAccounting, MeasuredConvRoundsMatchAnalyticUnderCoalescing) {
  // The analytic model prices a conv at ONE round (E and F in the same
  // exchange); the coalesced executor must measure exactly that.
  pc::TwoPartyContext ctx;
  pc::Prng prng(14), wprng(15);
  nn::Conv2d conv(2, 4, 3, 1, 1, wprng);
  const auto x = nn::Tensor::randn({1, 2, 6, 6}, prng, 0.5f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(conv.weight().to_doubles(), prng, ctx.ring());
  ctx.opens().set_coalescing(true);
  ctx.reset_stats();
  (void)proto::secure_conv2d(ctx, sx, sw, nullptr, 4, 3, 1, 1);
  EXPECT_EQ(ctx.stats().rounds, 1u);
  ctx.opens().set_coalescing(false);
  ctx.reset_stats();
  (void)proto::secure_conv2d(ctx, sx, sw, nullptr, 4, 3, 1, 1);
  EXPECT_EQ(ctx.stats().rounds, 2u);  // eager: E then F
}

// ---------------------------------------------------------------------------
// Threaded + batched secure inference
// ---------------------------------------------------------------------------

TEST(SecureRuntime, ThreadedInferMatchesLockstepBitForBit) {
  const auto md = tiny_cnn(nn::OpKind::x2act, nn::OpKind::avgpool);
  pc::Prng wprng(21);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 22);

  pc::TwoPartyContext lockstep(pc::RingConfig{}, 42, pc::ExecMode::lockstep);
  pc::TwoPartyContext threaded(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  proto::SecureNetwork snet_lock(md, *g, node_of_layer, lockstep);
  proto::SecureNetwork snet_thr(md, *g, node_of_layer, threaded);

  pc::Prng dprng(23);
  const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
  proto::Workload wl_lock(snet_lock), wl_thr(snet_thr);
  const auto logits_lock = std::move(wl_lock.run({x}).logits[0]);
  const auto logits_thr = std::move(wl_thr.run({x}).logits[0]);
  ASSERT_EQ(logits_lock.size(), logits_thr.size());
  for (std::size_t i = 0; i < logits_lock.size(); ++i) {
    EXPECT_EQ(logits_lock[i], logits_thr[i]) << "logit " << i;
  }
  // Same protocol, same transcript sizes; only round interleaving differs.
  EXPECT_EQ(wl_lock.stats().comm_bytes, wl_thr.stats().comm_bytes);
  EXPECT_EQ(wl_lock.stats().messages, wl_thr.stats().messages);
}

TEST(SecureRuntime, ThreadedInferWithComparisonOpsMatchesLockstep) {
  // ReLU + MaxPool route through the OT comparison stack, which keeps its
  // sequential schedule on the caller thread over the blocking channels.
  const auto md = tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool);
  pc::Prng wprng(31);
  std::vector<int> node_of_layer;
  auto g = nn::build_graph(md, wprng, &node_of_layer);
  warm_up(*g, 32);

  pc::TwoPartyContext lockstep(pc::RingConfig{}, 42, pc::ExecMode::lockstep);
  pc::TwoPartyContext threaded(pc::RingConfig{}, 42, pc::ExecMode::threaded);
  proto::SecureNetwork snet_lock(md, *g, node_of_layer, lockstep);
  proto::SecureNetwork snet_thr(md, *g, node_of_layer, threaded);

  pc::Prng dprng(33);
  const auto x = nn::Tensor::randn({1, 2, 8, 8}, dprng, 1.0f);
  const auto logits_lock = std::move(proto::Workload(snet_lock).run({x}).logits[0]);
  const auto logits_thr = std::move(proto::Workload(snet_thr).run({x}).logits[0]);
  for (std::size_t i = 0; i < logits_lock.size(); ++i) {
    EXPECT_EQ(logits_lock[i], logits_thr[i]) << "logit " << i;
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
