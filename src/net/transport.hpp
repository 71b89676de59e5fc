#pragma once
// Framed message transport between two party processes.
//
// `Transport` is the narrow waist of the deployment subsystem: ordered,
// length-prefixed byte frames between exactly two peers.  `TcpTransport`
// implements it over one TCP connection with a connect/accept handshake
// that negotiates a protocol version and pins the party ids — each side
// proves which party it is, and a mismatch (two party-0 processes, a
// dealer client dialing a party port, a stale binary) fails as a typed
// HandshakeError before any protocol byte flows.
//
// Frame format (little-endian):
//   u32 payload_length | payload bytes
// A length prefix above TransportOptions::max_frame_bytes raises
// FrameError without allocating; EOF mid-frame raises FrameError; a
// blocking send/recv past the io timeout raises SocketTimeout.
//
// Duplex pump: send_frame never wedges against a peer that is itself
// mid-send.  When the socket would block on write, the sender polls for
// readability too and drains inbound frames into an internal inbox (which
// recv_frame serves first) — so two parties pushing large symmetric-
// exchange frames through full socket buffers make progress instead of
// deadlocking until the watchdog.
//
// Handshake frame payload (protocol v2 and later):
//   u32 magic 'PASN' | u16 version | u8 party_id | u8 kind |
//   u64 trace_id_hi | u64 trace_id_lo                      (24 bytes)
// `kind` separates party-to-party channels from dealer sessions so a
// misdialed port fails loudly.  The 128-bit trace id is minted by the
// connecting side (or passed through TransportOptions so one run-wide id
// spans the party channel and both dealer sessions); the accepting side
// sends the zero id and adopts the connector's.  v1 peers (8-byte hello)
// are rejected with a typed version-skew HandshakeError.
//
// After the hello, a 3-round NTP-style clock sync runs over the same frame
// machinery: the connector pings with its trace-clock now_us(), the
// acceptor echoes its own, and the minimum-RTT sample estimates the offset
// between the two process trace clocks.  The connector then tells the
// acceptor its offset against the run's reference clock (party 0's), so
// every process can export trace timestamps alignable onto one axis.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "obs/tracer.hpp"

namespace pasnet::net {

/// Handshake/session kind carried in the hello frame.
enum class SessionKind : std::uint8_t { party_channel = 0, dealer = 1 };

inline constexpr std::uint32_t kMagic = 0x5041534EU;  // 'PASN'
/// v2: 24-byte hello carrying the run trace id + handshake clock sync.
/// v3: same hello; the dealer INFO frame has no policy byte and every
/// party-channel chunk opens with a lane-position setup frame.
/// v4: same hello; dealer bundles carry the random-OT pool, and every
/// (1,4)-OT is the precomputed one (packed shifts, then masked tables).
/// v5: same hello; dealer bundles carry one product pool whose entries
/// lead with their spec record (store format v5).
inline constexpr std::uint16_t kProtocolVersion = 5;
inline constexpr std::size_t kHelloBytes = 24;
/// Clock-sync ping rounds run by the connector after the hello; the
/// minimum-RTT sample wins.
inline constexpr int kClockSyncRounds = 3;

/// Socket/framing knobs (the "configurable socket timeouts").
struct TransportOptions {
  /// How long connect() keeps retrying a peer that is not listening yet,
  /// and how long accept() waits for one to dial in.
  std::chrono::milliseconds connect_timeout{10000};
  /// Per-operation send/recv deadline once connected — the watchdog that
  /// turns a wedged peer into SocketTimeout instead of a hang.
  std::chrono::milliseconds io_timeout{30000};
  /// Upper bound any received length prefix is checked against before
  /// allocating.
  std::size_t max_frame_bytes = 64ULL << 20;
  /// Run correlation id the *connecting* side presents in its hello.  Zero
  /// (the default) mints a fresh one per connection; a party that already
  /// holds the run id (party 1 dialing the dealer after accepting the
  /// party channel) passes it through so every session shares it.
  obs::TraceId trace_id{};
  /// The connector's own trace-clock offset against the run's reference
  /// clock, forwarded during clock sync so the acceptor's offset chains
  /// back to the reference (party 0 passes 0; party 1 passes what the
  /// party-channel handshake taught it before dialing the dealer).
  std::int64_t local_clock_offset_us = 0;
};

/// Ordered framed-message transport between two peers.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send_frame(const std::vector<std::uint8_t>& payload) = 0;
  [[nodiscard]] virtual std::vector<std::uint8_t> recv_frame() = 0;
  virtual void close() noexcept = 0;
  /// Run correlation id agreed at handshake; zero for transports without
  /// one (in-process simulation).
  [[nodiscard]] virtual obs::TraceId trace_id() const noexcept { return {}; }
  /// This endpoint's trace-clock offset vs the run reference clock
  /// (microseconds; t_reference ≈ t_local + offset), estimated at
  /// handshake.  0 when unknown (or when this endpoint IS the reference).
  [[nodiscard]] virtual std::int64_t clock_offset_us() const noexcept { return 0; }
};

/// Transport over one TCP connection, with the version/party handshake.
class TcpTransport final : public Transport {
 public:
  /// Dials host:port and runs the handshake as `local_party`.
  [[nodiscard]] static std::unique_ptr<TcpTransport> connect(
      const std::string& host, std::uint16_t port, int local_party,
      SessionKind kind = SessionKind::party_channel, TransportOptions opts = TransportOptions{});

  /// Accepts one connection on the listener and runs the handshake as
  /// `local_party`.
  [[nodiscard]] static std::unique_ptr<TcpTransport> accept(
      Listener& listener, int local_party, SessionKind kind = SessionKind::party_channel,
      TransportOptions opts = TransportOptions{});

  /// Wraps an already-connected socket and runs the handshake.  Dealer
  /// sessions pass expect_any_party (the server learns the client's party
  /// from the hello instead of pinning it).  `is_connector` selects the
  /// side that mints/presents the trace id and drives the clock sync —
  /// connect() passes true, accept() and server-side wraps pass false.
  [[nodiscard]] static std::unique_ptr<TcpTransport> handshake(
      Socket socket, int local_party, SessionKind kind, TransportOptions opts,
      bool expect_any_party = false, bool is_connector = false);

  void send_frame(const std::vector<std::uint8_t>& payload) override;
  [[nodiscard]] std::vector<std::uint8_t> recv_frame() override;
  /// Like recv_frame, but a clean peer disconnect at a frame boundary
  /// returns std::nullopt instead of an error — how a server notices a
  /// departed client without misreading it as a truncated frame.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> try_recv_frame();
  void close() noexcept override { sock_.close(); }

  /// The party id the peer presented in its hello (handshake-verified).
  [[nodiscard]] int peer_party() const noexcept { return peer_party_; }
  [[nodiscard]] const TransportOptions& options() const noexcept { return opts_; }
  /// Run correlation id agreed at handshake (the connector's).
  [[nodiscard]] obs::TraceId trace_id() const noexcept override { return trace_id_; }
  /// This process's trace-clock offset vs the run reference clock.
  [[nodiscard]] std::int64_t clock_offset_us() const noexcept override {
    return clock_offset_us_;
  }
  /// Round-trip time of the winning clock-sync ping — the offset estimate
  /// is uncertain by at most ±rtt/2.
  [[nodiscard]] std::uint64_t clock_sync_rtt_us() const noexcept { return clock_sync_rtt_us_; }

 private:
  TcpTransport(Socket sock, TransportOptions opts) : sock_(std::move(sock)), opts_(opts) {}

  /// Moves every complete frame in rx_buf_ into the inbox (validating
  /// each length prefix before its payload accumulates).
  void parse_available();
  /// Drains whatever the socket holds right now into rx_buf_/inbox_
  /// without blocking (the send pump's half of the duplex).
  void pump_inbound();
  /// Blocks until a frame is available (serving the inbox first).  Clean
  /// EOF at a frame boundary: nullopt when eof_ok, FrameError otherwise.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_frame(bool eof_ok);
  /// Post-hello NTP-style ping exchange (see file comment); fills
  /// clock_offset_us_/clock_sync_rtt_us_ on both sides.
  void run_clock_sync(bool is_connector);

  Socket sock_;
  TransportOptions opts_;
  int peer_party_ = -1;
  obs::TraceId trace_id_;
  std::int64_t clock_offset_us_ = 0;
  std::uint64_t clock_sync_rtt_us_ = 0;
  /// Inbound reassembly: raw bytes, then parsed frames.  The send pump
  /// fills these while waiting for writability; recv paths serve them
  /// first, so frame order matches wire order.
  std::vector<std::uint8_t> rx_buf_;
  std::deque<std::vector<std::uint8_t>> inbox_;
  bool rx_eof_ = false;
};

}  // namespace pasnet::net
