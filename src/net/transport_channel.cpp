#include "net/transport_channel.hpp"

#include <cstring>

#include "net/errors.hpp"
#include "net/wire.hpp"

namespace pasnet::net {

TransportChannel::TransportChannel(std::unique_ptr<Transport> transport, int local_party)
    : transport_(std::move(transport)), local_party_(local_party) {
  if (local_party != 0 && local_party != 1) {
    throw std::invalid_argument("TransportChannel: local_party must be 0 or 1");
  }
  if (transport_ == nullptr) {
    throw std::invalid_argument("TransportChannel: null transport");
  }
  counters_ = std::make_shared<obs::CounterBlock>();
}

void TransportChannel::note_message(int sender, std::uint64_t wire_bytes) noexcept {
  counters_->add(sender == 0 ? obs::Counter::bytes_p0_to_p1 : obs::Counter::bytes_p1_to_p0,
                 wire_bytes);
  counters_->add(obs::Counter::messages, 1);
  if (in_round_) {
    if (!round_counted_) {
      counters_->add(obs::Counter::rounds, 1);
      round_counted_ = true;
    }
    last_sender_ = sender;
  } else if (last_sender_ != sender) {
    counters_->add(obs::Counter::rounds, 1);
    last_sender_ = sender;
  }
}

void TransportChannel::do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) throw crypto::ChannelClosed("TransportChannel::send: channel closed");
  }
  // Frame = [u64 accounted wire bytes][message]; the peer credits our
  // direction with the same figure we do, keeping the two endpoints'
  // meters identical.
  std::vector<std::uint8_t> frame(8 + data.size());
  put_u64_le(frame.data(), wire_bytes);
  if (!data.empty()) std::memcpy(frame.data() + 8, data.data(), data.size());
  transport_->send_frame(frame);
  std::lock_guard<std::mutex> lk(m_);
  note_message(local_party_, wire_bytes);
}

std::vector<std::uint8_t> TransportChannel::do_recv() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) throw crypto::ChannelClosed("TransportChannel::recv: channel closed");
  }
  // Time the blocking wire wait: over TCP every recv is a wait, so the
  // whole recv_frame call counts as recv_wait_us (deserialization above
  // the channel is negligible next to the wire).
  const std::uint64_t wait_begin = obs::Tracer::now_us();
  const std::vector<std::uint8_t> frame = transport_->recv_frame();
  counters_->add(obs::Counter::recv_wait_us, obs::Tracer::now_us() - wait_begin);
  if (frame.size() < 8) {
    throw FrameError("TransportChannel::recv: frame shorter than its sub-header");
  }
  const std::uint64_t wire_bytes = get_u64_le(frame.data());
  // Sanity-bound the peer's accounting claim: the modeled width never
  // exceeds the in-memory width (8 bytes/element), so a claim beyond
  // 8x the message size (+ slack for empty messages) is hostile input.
  if (wire_bytes > 8 * (frame.size() - 8) + 64) {
    throw FrameError("TransportChannel::recv: implausible wire-byte accounting in sub-header");
  }
  std::vector<std::uint8_t> data(frame.begin() + 8, frame.end());
  std::lock_guard<std::mutex> lk(m_);
  note_message(1 - local_party_, wire_bytes);
  return data;
}

void TransportChannel::begin_round() {
  std::lock_guard<std::mutex> lk(m_);
  in_round_ = true;
  round_counted_ = false;
}

void TransportChannel::end_round() {
  std::lock_guard<std::mutex> lk(m_);
  in_round_ = false;
  round_counted_ = false;
  last_sender_ = -1;
}

void TransportChannel::close() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) return;
    closed_ = true;
  }
  transport_->close();
}

void TransportChannel::reset_stats() noexcept {
  std::lock_guard<std::mutex> lk(m_);
  counters_->reset();
  last_sender_ = -1;
  round_counted_ = false;
}

}  // namespace pasnet::net
