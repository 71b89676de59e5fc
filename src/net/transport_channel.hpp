#pragma once
// crypto::Channel endpoint over a net::Transport — the backend that turns
// the in-process 2PC simulation into a real two-process deployment.
//
// Each party process owns ONE TransportChannel; the protocol stack above
// it is unchanged.  It meters like every endpoint (crypto::Channel): a
// send credits the local->peer direction at send time, a recv credits the
// peer->local direction with the byte count the PEER accounted (carried in
// a per-message sub-header, so modeled wire widths — e.g. 4 bytes per ring
// element on a 32-bit wire — survive the hop), and every recv counts its
// blocking wire wait as recv_wait_us.  Our protocols are strictly
// alternating outside round brackets, so every endpoint observes the same
// direction flips — which is what makes TrafficStats bytes/rounds
// measured over TCP EQUAL to the in-process channel's for the same
// program (the acceptance bar the loopback self-test pins).
//
// Channel sub-header (inside the transport frame, little-endian):
//   u64 accounted_wire_bytes | message bytes
// A sub-header whose byte count fails sanity checks raises FrameError.

#include <memory>
#include <mutex>

#include "crypto/channel.hpp"
#include "net/transport.hpp"

namespace pasnet::net {

class TransportChannel final : public crypto::Channel {
 public:
  TransportChannel(std::unique_ptr<Transport> transport, int local_party);

  void close() override;

  /// Run correlation id / clock offset the underlying transport agreed at
  /// handshake (zero when the transport carries none) — what the hosting
  /// binary stamps into its obs::Tracer.
  [[nodiscard]] obs::TraceId session_trace_id() const noexcept { return transport_->trace_id(); }
  [[nodiscard]] std::int64_t session_clock_offset_us() const noexcept {
    return transport_->clock_offset_us();
  }

 protected:
  void do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> do_recv() override;

 private:
  std::unique_ptr<Transport> transport_;
  int local_party_;
  mutable std::mutex m_;  // guards closed_
  bool closed_ = false;
};

}  // namespace pasnet::net
