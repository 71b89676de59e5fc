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
  counters().add(obs::Counter::recv_wait_us, obs::Tracer::now_us() - wait_begin);
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
  note_message(1 - local_party_, wire_bytes);
  return data;
}

void TransportChannel::close() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) return;
    closed_ = true;
  }
  transport_->close();
}

}  // namespace pasnet::net
