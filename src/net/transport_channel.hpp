#pragma once
// crypto::Channel endpoint over a net::Transport — the backend that turns
// the in-process 2PC simulation into a real two-process deployment.
//
// Each party process owns ONE TransportChannel; the protocol stack above
// it is unchanged.  The counter block is kept pair-equivalent: a send
// credits the local->peer direction at send time, a recv credits the
// peer->local direction with the byte count the PEER accounted (carried in
// a per-message sub-header, so modeled wire widths — e.g. 4 bytes per ring
// element on a 32-bit wire — survive the hop), and every recv counts its
// blocking wire wait as recv_wait_us.  Round counting replays
// the simulated pair's rule on the locally observed message order: inside
// a begin_round/end_round bracket everything is one round; outside, a
// round increments whenever the message direction flips.  Our protocols
// are strictly alternating outside brackets, so every process observes
// the same flip sequence the shared simulated block counts — which is
// what makes TrafficStats bytes/rounds measured over TCP EQUAL to the
// in-process channel's for the same program (the acceptance bar the
// loopback self-test pins).
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

  void begin_round() override;
  void end_round() override;
  void close() override;
  void reset_stats() noexcept override;

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
  /// Counts one observed message of `sender` (local on send, peer on
  /// recv) with the simulated pair's round rule applied to the local view.
  /// Caller holds m_.
  void note_message(int sender, std::uint64_t wire_bytes) noexcept;

  std::unique_ptr<Transport> transport_;
  int local_party_;
  mutable std::mutex m_;
  int last_sender_ = -1;
  bool in_round_ = false;
  bool round_counted_ = false;
  bool closed_ = false;
};

}  // namespace pasnet::net
