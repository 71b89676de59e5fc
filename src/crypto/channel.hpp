#pragma once
// Duplex channel endpoints between the two computing parties.
//
// `Channel` is the endpoint API every protocol talks to: framed byte
// messages, ring-vector conveniences, round bracketing, and the endpoint's
// always-on obs::CounterBlock.  The backends count every byte, message,
// communication round and blocked send/recv wait there, and the context
// above counts the protocol events (OT batches, AND levels, openings,
// triple claims, kernel deliveries) into the same block — each event
// exactly once, traced or not.  TrafficStats is the block's traffic
// projection: it is what lets integration tests cross-check the measured
// traffic of the real protocol stack against the analytical communication
// model of src/perf, over the in-process pair and over a real TCP
// connection alike.
//
// Two backends:
//  - the in-process pair (Channel::make_pair): two endpoints over a shared
//    pair of bounded byte queues.  Modes:
//     * lockstep: what every in-process TwoPartyContext runs.  Both parties
//       run on one thread in protocol order; `recv` on an empty inbox is a
//       protocol ordering bug and throws immediately.  Fully deterministic
//       (used by the analytical-model cross-check tests).
//     * threaded: a blocking pair that stands in for a transport when two
//       remote contexts run on their own threads.  `recv` blocks until the
//       peer's message arrives and `send` blocks while the peer's inbox is
//       at capacity (bounded queue, mutex + condition variable); a watchdog
//       timeout turns a deadlocked protocol into a loud ChannelTimeout
//       instead of a hang.
//  - net::TransportChannel (src/net): the same endpoint API over a real
//    socket transport, one endpoint per OS process.
//
// Every endpoint meters its own view of the pair in a block of its own:
// its sends when it sends, the peer's messages when it receives them, and
// rounds by the rule TrafficStats::rounds states, applied to the order it
// observes.  So each endpoint of a run reads the same bytes, messages and
// rounds, in process or over TCP, and an in-process context, which meters
// party 0's endpoint, sees every message of both parties exactly once.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "crypto/ring.hpp"
#include "obs/tracer.hpp"

namespace pasnet::crypto {

/// Traffic of one party-pair: the counter block's wire/round projection.
struct TrafficStats {
  std::uint64_t bytes_p0_to_p1 = 0;
  std::uint64_t bytes_p1_to_p0 = 0;
  std::uint64_t messages = 0;
  /// Latency-critical sequential message exchanges.  Outside an exchange
  /// bracket a round increments whenever the sending direction flips (the
  /// asymmetric flows: each OT phase is one round).  Inside a
  /// begin_round/end_round bracket — used by TwoPartyContext::exchange and
  /// the open buffer's coalesced flush — all messages of the bracket count
  /// as ONE round, because both directions are in flight concurrently.
  /// This matches the analytic model's definition (perf::OpCost::rounds),
  /// so measured and modeled round counts are directly comparable.
  std::uint64_t rounds = 0;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_p0_to_p1 + bytes_p1_to_p0;
  }
  /// The one place a TrafficStats is filled.
  [[nodiscard]] static TrafficStats of(const obs::CounterSnapshot& c) noexcept {
    return {c[obs::Counter::bytes_p0_to_p1], c[obs::Counter::bytes_p1_to_p0],
            c[obs::Counter::messages], c[obs::Counter::rounds]};
  }
};

/// Queueing discipline of an in-process channel pair (see file comment).
enum class ChannelMode { lockstep, threaded };

struct ChannelOptions;

/// Thrown when a blocking send/recv outlives the watchdog timeout — the
/// protocol deadlocked or the peer died.
class ChannelTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by blocked/later operations after close() — the "peer hung up"
/// signal, used to unwind an endpoint whose peer failed.
class ChannelClosed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A received frame whose length is not the one the protocol expects at
/// that step (a ring or bit opening, a correction frame): the peer is out
/// of step or hostile.
class FrameLengthError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One endpoint of a duplex channel.  The convenience send/recv helpers are
/// implemented over the backend primitives do_send/do_recv; backends also
/// own round bracketing, close semantics, and the counter block.
class Channel {
 public:
  /// Default bounded-queue depth and watchdog timeout for an in-process
  /// channel pair — the single canonical pair (ChannelOptions defaults to
  /// them too; net::TransportOptions carries the socket analogs).
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::chrono::milliseconds kDefaultTimeout{30000};

  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends a raw byte message to the peer.  Blocking backends may block
  /// (full peer inbox / socket back-pressure); the lockstep in-process mode
  /// never blocks.
  void send_bytes(const std::vector<std::uint8_t>& data);
  /// Receives the oldest pending byte message.  The in-process lockstep
  /// mode throws std::logic_error if the inbox is empty (protocol ordering
  /// bug); blocking backends wait for the message (honouring any modeled
  /// in-flight deadline — see ChannelOptions::round_delay).
  [[nodiscard]] std::vector<std::uint8_t> recv_bytes();

  /// Convenience: send/recv a vector of ring elements, 8 bytes each in
  /// memory.  `wire_bytes_per_elem` models the on-wire width (e.g. 4 for a
  /// 32-bit ring) for traffic accounting while keeping u64 storage.
  /// recv_ring raises FrameLengthError unless the frame holds exactly n.
  void send_ring(const RingVec& v, int wire_bytes_per_elem = 8);
  [[nodiscard]] RingVec recv_ring(std::size_t n, int wire_bytes_per_elem = 8);

  /// Convenience: single u64 value.
  void send_u64(std::uint64_t v);
  [[nodiscard]] std::uint64_t recv_u64();

  /// Brackets one symmetric communication round on this endpoint: every
  /// message it observes (sends or receives) between begin_round and
  /// end_round counts as a single round, because both directions are
  /// concurrently in flight.  Driven by TwoPartyContext::exchange around
  /// its send and recv closures.  After end_round the next message starts
  /// a fresh round regardless of direction.
  void begin_round();
  void end_round();

  /// Marks the endpoint closed: blocked senders/receivers wake and throw
  /// ChannelClosed, as do later blocking operations that would wait.
  virtual void close() = 0;

  /// The endpoint's always-on counter block.  Safe to read and bump from
  /// any thread.
  [[nodiscard]] obs::CounterBlock& counters() const noexcept { return counters_; }
  /// The block's traffic projection.
  [[nodiscard]] TrafficStats stats() const noexcept {
    return TrafficStats::of(counters_.snapshot());
  }
  /// Zeroes the block and restarts round counting: the start of a metered
  /// window.
  void reset_stats() noexcept;

  /// Creates a connected in-process pair of endpoints: first element is
  /// party 0's.
  static std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> make_pair(
      ChannelMode mode = ChannelMode::lockstep, std::size_t capacity = kDefaultCapacity,
      std::chrono::milliseconds timeout = kDefaultTimeout);
  static std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> make_pair(
      const ChannelOptions& options);

 protected:
  Channel() = default;

  /// Backend primitive: delivers one framed message to the peer and
  /// credits it with note_message, at `wire_bytes` (the modeled on-wire
  /// size, which may differ from data.size()).
  virtual void do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) = 0;
  /// Backend primitive: receives the next framed message and credits it
  /// with note_message, at the size its sender accounted.
  [[nodiscard]] virtual std::vector<std::uint8_t> do_recv() = 0;

  /// Meters one message this endpoint observed: `sender`'s direction gets
  /// `wire_bytes`, and the round rule of TrafficStats::rounds runs on the
  /// endpoint's own observation order.
  void note_message(int sender, std::uint64_t wire_bytes) noexcept;

 private:
  mutable obs::CounterBlock counters_;
  std::mutex meter_m_;  // guards the round state below
  int last_sender_ = -1;
  bool in_round_ = false;
  bool round_counted_ = false;
};

/// Construction knobs for an in-process channel pair.
struct ChannelOptions {
  ChannelMode mode = ChannelMode::lockstep;
  std::size_t capacity = Channel::kDefaultCapacity;
  std::chrono::milliseconds timeout = Channel::kDefaultTimeout;
  /// Simulated one-way wire latency.  Every message is stamped with an
  /// in-flight deadline (enqueue time + round_delay) at send time and recv
  /// waits until that deadline — so messages of one round overlap (a
  /// symmetric exchange costs one delay in both lockstep and threaded
  /// modes) while sequential dependencies pay one delay per round, the
  /// same unit the `rounds` statistic counts (and perf::NetworkConfig's
  /// base_latency_s models).  Zero means no simulated delay.  Waits happen
  /// off the channel lock, so concurrent worker pairs overlap their
  /// delays — the effect batched inference exists to exploit.
  std::chrono::microseconds round_delay{0};
};

}  // namespace pasnet::crypto
