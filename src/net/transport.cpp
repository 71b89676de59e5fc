#include "net/transport.hpp"

#include <cstring>

#include "net/errors.hpp"
#include "net/wire.hpp"

namespace pasnet::net {

namespace {

/// 24-byte hello payload (the v2 layout): magic, version, party, kind, 128-bit trace id.
/// The accepting side presents the zero id (it adopts the connector's).
std::vector<std::uint8_t> hello_payload(int party, SessionKind kind, obs::TraceId trace_id) {
  std::vector<std::uint8_t> h(kHelloBytes, 0);
  put_u32_le(h.data(), kMagic);
  h[4] = static_cast<std::uint8_t>(kProtocolVersion & 0xFF);
  h[5] = static_cast<std::uint8_t>(kProtocolVersion >> 8);
  h[6] = static_cast<std::uint8_t>(party);
  h[7] = static_cast<std::uint8_t>(kind);
  put_u64_le(h.data() + 8, trace_id.hi);
  put_u64_le(h.data() + 16, trace_id.lo);
  return h;
}

std::vector<std::uint8_t> u64_frame(std::uint64_t v) {
  std::vector<std::uint8_t> f(8, 0);
  put_u64_le(f.data(), v);
  return f;
}

}  // namespace

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host, std::uint16_t port,
                                                    int local_party, SessionKind kind,
                                                    TransportOptions opts) {
  return handshake(connect_tcp(host, port, opts.connect_timeout), local_party, kind, opts,
                   /*expect_any_party=*/false, /*is_connector=*/true);
}

std::unique_ptr<TcpTransport> TcpTransport::accept(Listener& listener, int local_party,
                                                   SessionKind kind, TransportOptions opts) {
  return handshake(listener.accept(opts.connect_timeout), local_party, kind, opts);
}

std::unique_ptr<TcpTransport> TcpTransport::handshake(Socket socket, int local_party,
                                                      SessionKind kind, TransportOptions opts,
                                                      bool expect_any_party, bool is_connector) {
  auto t = std::unique_ptr<TcpTransport>(new TcpTransport(std::move(socket), opts));
  // The connector presents the run trace id (minting one if the caller did
  // not pass an id through); the acceptor presents zero and adopts.
  obs::TraceId local_id{};
  if (is_connector) {
    local_id = opts.trace_id.is_zero() ? obs::TraceId::mint() : opts.trace_id;
  }
  // Both sides send their hello first, then validate the peer's — a
  // symmetric dance that cannot deadlock (both frames are tiny).
  t->send_frame(hello_payload(local_party, kind, local_id));
  const std::vector<std::uint8_t> peer = t->recv_frame();
  if (peer.size() < 8) throw HandshakeError("handshake: malformed hello frame");
  if (get_u32_le(peer.data()) != kMagic) {
    throw HandshakeError("handshake: bad magic (not a pasnet peer)");
  }
  // Version before shape: a v1 peer's 8-byte hello must read as skew (a
  // stale binary), not as a generically malformed frame.
  const std::uint16_t version =
      static_cast<std::uint16_t>(peer[4] | (static_cast<std::uint16_t>(peer[5]) << 8));
  if (version != kProtocolVersion) {
    throw HandshakeError("handshake: protocol version skew (peer v" + std::to_string(version) +
                         ", local v" + std::to_string(kProtocolVersion) + ")");
  }
  if (peer.size() != kHelloBytes) {
    throw HandshakeError("handshake: malformed hello frame (" + std::to_string(peer.size()) +
                         " bytes; v" + std::to_string(kProtocolVersion) + " hello is " +
                         std::to_string(kHelloBytes) + ": truncated trace id?)");
  }
  const int peer_party = peer[6];
  if (peer[7] != static_cast<std::uint8_t>(kind)) {
    throw HandshakeError("handshake: session kind mismatch (wrong port?)");
  }
  // Dealer sessions are client->service, not party->party: the daemon
  // presents itself as party 2 ("both") and learns the client's party from
  // the hello, so only validity — not complementarity — is enforced.
  if (expect_any_party || kind == SessionKind::dealer) {
    if (peer_party != 0 && peer_party != 1 && peer_party != 2) {
      throw HandshakeError("handshake: invalid peer party id " + std::to_string(peer_party));
    }
  } else if (peer_party != 1 - local_party) {
    throw HandshakeError("handshake: wrong party id on the other end (peer says party " +
                         std::to_string(peer_party) + ", expected party " +
                         std::to_string(1 - local_party) + ")");
  }
  t->peer_party_ = peer_party;
  obs::TraceId peer_id;
  peer_id.hi = get_u64_le(peer.data() + 8);
  peer_id.lo = get_u64_le(peer.data() + 16);
  if (is_connector) {
    t->trace_id_ = local_id;
  } else {
    // The connector always mints: an all-zero id here is a hand-rolled or
    // corrupted hello, and accepting it would break run correlation.
    if (peer_id.is_zero()) {
      throw HandshakeError("handshake: hello carries the zero trace id (connector must mint)");
    }
    t->trace_id_ = peer_id;
  }
  t->run_clock_sync(is_connector);
  return t;
}

void TcpTransport::run_clock_sync(bool is_connector) {
  if (is_connector) {
    // NTP-style: t0/t3 local send/recv stamps around the acceptor's echo
    // t_peer.  Assuming a symmetric path, the peer's clock read aligns
    // with the local midpoint; the minimum-RTT round gives the tightest
    // bound (offset uncertainty ±rtt/2).
    std::int64_t best_delta = 0;
    std::uint64_t best_rtt = ~0ULL;
    for (int k = 0; k < kClockSyncRounds; ++k) {
      const std::uint64_t t0 = obs::Tracer::now_us();
      send_frame(u64_frame(t0));
      const std::vector<std::uint8_t> echo = recv_frame();
      const std::uint64_t t3 = obs::Tracer::now_us();
      if (echo.size() != 8) {
        throw HandshakeError("handshake: malformed clock-sync echo frame");
      }
      const auto t_peer = static_cast<std::int64_t>(get_u64_le(echo.data()));
      const std::uint64_t rtt = t3 - t0;
      if (rtt < best_rtt) {
        best_rtt = rtt;
        best_delta = t_peer - static_cast<std::int64_t>((t0 + t3) / 2);
      }
    }
    // Chain the peer's offset back to the run reference clock: t_ref =
    // t_local + local_offset and t_local = t_peer - delta, so
    // peer_offset = local_offset - delta.
    const std::int64_t peer_offset = opts_.local_clock_offset_us - best_delta;
    std::vector<std::uint8_t> fin(16, 0);
    put_u64_le(fin.data(), static_cast<std::uint64_t>(peer_offset));
    put_u64_le(fin.data() + 8, best_rtt);
    send_frame(fin);
    clock_offset_us_ = opts_.local_clock_offset_us;
    clock_sync_rtt_us_ = best_rtt;
  } else {
    for (int k = 0; k < kClockSyncRounds; ++k) {
      const std::vector<std::uint8_t> ping = recv_frame();
      if (ping.size() != 8) {
        throw HandshakeError("handshake: malformed clock-sync ping frame");
      }
      send_frame(u64_frame(obs::Tracer::now_us()));
    }
    const std::vector<std::uint8_t> fin = recv_frame();
    if (fin.size() != 16) {
      throw HandshakeError("handshake: malformed clock-sync offset frame");
    }
    clock_offset_us_ = static_cast<std::int64_t>(get_u64_le(fin.data()));
    clock_sync_rtt_us_ = get_u64_le(fin.data() + 8);
  }
}

void TcpTransport::parse_available() {
  std::size_t off = 0;
  for (;;) {
    if (rx_buf_.size() - off < 4) break;
    const std::uint32_t len = get_u32_le(rx_buf_.data() + off);
    // Validate the prefix as soon as it is known — an oversized claim is a
    // typed error before its payload could ever accumulate.
    if (len > opts_.max_frame_bytes) {
      throw FrameError("recv_frame: oversized length prefix (" + std::to_string(len) +
                       " bytes; limit " + std::to_string(opts_.max_frame_bytes) + ")");
    }
    if (rx_buf_.size() - off - 4 < len) break;
    inbox_.emplace_back(rx_buf_.begin() + static_cast<long>(off + 4),
                        rx_buf_.begin() + static_cast<long>(off + 4 + len));
    off += 4 + len;
  }
  if (off > 0) rx_buf_.erase(rx_buf_.begin(), rx_buf_.begin() + static_cast<long>(off));
}

void TcpTransport::pump_inbound() {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const std::ptrdiff_t n = sock_.recv_some(chunk, sizeof(chunk));
    if (n == 0) break;  // would block: drained everything available
    if (n < 0) {
      // Peer hung up while we still hold outbound data; remember the EOF
      // for the recv paths and let the send fail naturally (EPIPE) if it
      // cannot complete.
      rx_eof_ = true;
      break;
    }
    rx_buf_.insert(rx_buf_.end(), chunk, chunk + n);
  }
  parse_available();
}

void TcpTransport::send_frame(const std::vector<std::uint8_t>& payload) {
  if (payload.size() > opts_.max_frame_bytes) {
    throw FrameError("send_frame: payload exceeds max_frame_bytes");
  }
  std::vector<std::uint8_t> buf(4 + payload.size());
  put_u32_le(buf.data(), static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) std::memcpy(buf.data() + 4, payload.data(), payload.size());
  // Duplex pump: push bytes while the socket accepts them; when it would
  // block, wait for writability OR readability and drain whatever inbound
  // bytes are available in the meantime.  The drain is strictly
  // non-blocking — two peers mid-symmetric-exchange whose frames exceed
  // the socket buffers each make receive progress exactly as fast as the
  // other sends, so neither can wedge.
  const auto deadline = std::chrono::steady_clock::now() + opts_.io_timeout;
  std::size_t off = 0;
  while (off < buf.size()) {
    const std::size_t n = sock_.send_some(buf.data() + off, buf.size() - off);
    if (n > 0) {
      off += n;
      continue;
    }
    const Socket::Ready ready =
        sock_.wait_ready(/*want_read=*/true, /*want_write=*/true, deadline, "send_frame");
    if (ready.readable) pump_inbound();
  }
}

std::optional<std::vector<std::uint8_t>> TcpTransport::read_frame(bool eof_ok) {
  const auto deadline = std::chrono::steady_clock::now() + opts_.io_timeout;
  for (;;) {
    if (!inbox_.empty()) {
      std::vector<std::uint8_t> frame = std::move(inbox_.front());
      inbox_.pop_front();
      return frame;
    }
    if (rx_eof_) {
      if (rx_buf_.empty() && eof_ok) return std::nullopt;
      if (rx_buf_.empty()) throw FrameError("recv_frame: peer closed the connection");
      throw FrameError("recv_frame: peer closed the stream mid-message (short read)");
    }
    (void)sock_.wait_ready(/*want_read=*/true, /*want_write=*/false, deadline, "recv");
    pump_inbound();
  }
}

std::vector<std::uint8_t> TcpTransport::recv_frame() {
  std::optional<std::vector<std::uint8_t>> frame = read_frame(/*eof_ok=*/false);
  return std::move(*frame);
}

std::optional<std::vector<std::uint8_t>> TcpTransport::try_recv_frame() {
  return read_frame(/*eof_ok=*/true);
}

}  // namespace pasnet::net
