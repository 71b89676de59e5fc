#include "crypto/channel.hpp"

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

namespace pasnet::crypto {

// ---------------------------------------------------------------------------
// Endpoint-API conveniences (shared by every backend)
// ---------------------------------------------------------------------------

void Channel::send_bytes(const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> copy = data;
  do_send(std::move(copy), data.size());
}

std::vector<std::uint8_t> Channel::recv_bytes() { return do_recv(); }

void Channel::send_ring(const RingVec& v, int wire_bytes_per_elem) {
  std::vector<std::uint8_t> buf(v.size() * sizeof(std::uint64_t));
  if (!v.empty()) std::memcpy(buf.data(), v.data(), buf.size());
  // Account for the modeled wire width rather than the in-memory width.
  do_send(std::move(buf), v.size() * static_cast<std::uint64_t>(wire_bytes_per_elem));
}

RingVec Channel::recv_ring(std::size_t n, int /*wire_bytes_per_elem*/) {
  auto buf = do_recv();
  if (buf.size() != n * sizeof(std::uint64_t)) {
    throw FrameLengthError("Channel::recv_ring: message size mismatch");
  }
  RingVec v(n);
  if (n > 0) std::memcpy(v.data(), buf.data(), buf.size());
  return v;
}

void Channel::send_u64(std::uint64_t v) { send_ring(RingVec{v}); }

std::uint64_t Channel::recv_u64() { return recv_ring(1)[0]; }

// ---------------------------------------------------------------------------
// The endpoint's meter (shared by every backend)
// ---------------------------------------------------------------------------

void Channel::begin_round() {
  std::lock_guard<std::mutex> lk(meter_m_);
  in_round_ = true;
  round_counted_ = false;
}

void Channel::end_round() {
  std::lock_guard<std::mutex> lk(meter_m_);
  in_round_ = false;
  round_counted_ = false;
  last_sender_ = -1;
}

void Channel::reset_stats() noexcept {
  std::lock_guard<std::mutex> lk(meter_m_);
  counters_.reset();
  last_sender_ = -1;
  round_counted_ = false;
}

void Channel::note_message(int sender, std::uint64_t wire_bytes) noexcept {
  std::lock_guard<std::mutex> lk(meter_m_);
  counters_.add(sender == 0 ? obs::Counter::bytes_p0_to_p1 : obs::Counter::bytes_p1_to_p0,
                wire_bytes);
  counters_.add(obs::Counter::messages, 1);
  if (in_round_) {
    // All messages of a bracketed symmetric exchange are one round.
    if (!round_counted_) {
      counters_.add(obs::Counter::rounds, 1);
      round_counted_ = true;
    }
    last_sender_ = sender;
  } else if (last_sender_ != sender) {
    counters_.add(obs::Counter::rounds, 1);
    last_sender_ = sender;
  }
}

// ---------------------------------------------------------------------------
// In-process pair backend
// ---------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct Message {
  std::vector<std::uint8_t> data;
  std::uint64_t wire_bytes = 0;  // what the sender credited, credited again on receipt
  Clock::time_point due;         // in-flight deadline: enqueue time + round_delay
};

/// The simulated pair: two endpoints over a shared pair of bounded byte
/// queues, each endpoint metering its own view (see Channel).
class LocalChannel final : public Channel {
 public:
  struct Shared {
    std::mutex m;
    // Per-direction queues and wakeups; inbox[p] holds messages addressed
    // to party p.  not_empty[p] wakes party p's blocked recv, not_full[p]
    // wakes a sender blocked on party p's full inbox.
    std::deque<Message> inbox[2];
    std::condition_variable not_empty[2];
    std::condition_variable not_full[2];
    ChannelMode mode = ChannelMode::lockstep;
    std::size_t capacity = kDefaultCapacity;
    std::chrono::milliseconds timeout{kDefaultTimeout};
    std::chrono::microseconds round_delay{0};
    bool closed = false;
  };

  LocalChannel(int party, std::shared_ptr<Shared> shared)
      : party_(party), shared_(std::move(shared)) {}

  void close() override {
    {
      std::lock_guard<std::mutex> lk(shared_->m);
      shared_->closed = true;
    }
    for (int p = 0; p < 2; ++p) {
      shared_->not_empty[p].notify_all();
      shared_->not_full[p].notify_all();
    }
  }

 protected:
  void do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) override {
    const int peer = 1 - party_;
    std::unique_lock<std::mutex> lk(shared_->m);
    if (shared_->mode == ChannelMode::threaded) {
      const bool back_pressured = shared_->inbox[peer].size() >= shared_->capacity;
      const std::uint64_t wait_begin = back_pressured ? obs::Tracer::now_us() : 0;
      const bool ok = shared_->not_full[peer].wait_for(lk, shared_->timeout, [&] {
        return shared_->closed || shared_->inbox[peer].size() < shared_->capacity;
      });
      if (back_pressured) {
        counters().add(obs::Counter::send_wait_us, obs::Tracer::now_us() - wait_begin);
      }
      if (shared_->closed) throw ChannelClosed("Channel::send: channel closed");
      if (!ok) throw ChannelTimeout("Channel::send: peer inbox full past timeout (deadlock?)");
    } else if (shared_->closed) {
      throw ChannelClosed("Channel::send: channel closed");
    }
    // Stamp the in-flight deadline: the message becomes receivable one
    // modeled one-way delay after it is sent.  The sender never sleeps, so
    // all messages of one round share (roughly) one deadline and overlap.
    Message msg;
    msg.data = std::move(data);
    msg.wire_bytes = wire_bytes;
    msg.due = shared_->round_delay.count() > 0 ? Clock::now() + shared_->round_delay
                                               : Clock::time_point{};
    shared_->inbox[peer].push_back(std::move(msg));
    lk.unlock();
    shared_->not_empty[peer].notify_one();
    note_message(party_, wire_bytes);
  }

  [[nodiscard]] std::vector<std::uint8_t> do_recv() override {
    std::unique_lock<std::mutex> lk(shared_->m);
    auto& inbox = shared_->inbox[party_];
    if (shared_->mode == ChannelMode::lockstep) {
      if (shared_->closed && inbox.empty()) {
        throw ChannelClosed("Channel::recv_bytes: channel closed");
      }
      if (inbox.empty()) {
        throw std::logic_error("Channel::recv_bytes: no pending message (protocol ordering bug)");
      }
    } else {
      const bool blocked = inbox.empty();
      const std::uint64_t wait_begin = blocked ? obs::Tracer::now_us() : 0;
      const bool ok = shared_->not_empty[party_].wait_for(
          lk, shared_->timeout, [&] { return shared_->closed || !inbox.empty(); });
      if (blocked) counters().add(obs::Counter::recv_wait_us, obs::Tracer::now_us() - wait_begin);
      if (inbox.empty()) {
        if (shared_->closed) throw ChannelClosed("Channel::recv_bytes: channel closed");
        if (!ok) throw ChannelTimeout("Channel::recv_bytes: no message past timeout (deadlock?)");
      }
    }
    auto msg = std::move(inbox.front());
    inbox.pop_front();
    lk.unlock();
    shared_->not_full[party_].notify_one();
    note_message(1 - party_, msg.wire_bytes);
    // Honour the in-flight deadline off the lock: the receiver cannot
    // observe a message before its modeled wire delay has elapsed, but
    // concurrent traffic (the other direction, other worker pairs) keeps
    // flowing.  The modeled wait is wire time, so it counts as recv wait.
    if (msg.due != Clock::time_point{}) {
      const auto now = Clock::now();
      if (now < msg.due) {
        std::this_thread::sleep_until(msg.due);
        counters().add(obs::Counter::recv_wait_us,
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::microseconds>(msg.due - now)
                               .count()));
      }
    }
    return msg.data;
  }

 private:
  int party_ = 0;
  std::shared_ptr<Shared> shared_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> Channel::make_pair(
    ChannelMode mode, std::size_t capacity, std::chrono::milliseconds timeout) {
  ChannelOptions options;
  options.mode = mode;
  options.capacity = capacity;
  options.timeout = timeout;
  return make_pair(options);
}

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> Channel::make_pair(
    const ChannelOptions& options) {
  auto shared = std::make_shared<LocalChannel::Shared>();
  shared->mode = options.mode;
  shared->capacity = options.capacity > 0 ? options.capacity : 1;
  shared->timeout = options.timeout;
  shared->round_delay = options.round_delay;
  auto c0 = std::unique_ptr<Channel>(new LocalChannel(0, shared));
  auto c1 = std::unique_ptr<Channel>(new LocalChannel(1, shared));
  return {std::move(c0), std::move(c1)};
}

}  // namespace pasnet::crypto
