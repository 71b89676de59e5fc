#include "net/dealer.hpp"

#include <mutex>
#include <sstream>
#include <thread>

#include "net/wire.hpp"

namespace pasnet::net {

namespace {

// Dealer-layer status and op codes.
constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusExhausted = 2;
constexpr std::uint8_t kStatusError = 3;
constexpr std::uint8_t kOpClaim = 1;
constexpr std::uint8_t kOpBye = 2;

std::vector<std::uint8_t> serialize_bundle(const offline::QueryBundle& b) {
  std::ostringstream os(std::ios::binary);
  offline::write_bundle(os, b);
  const std::string s = os.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

offline::QueryBundle deserialize_bundle(const std::vector<std::uint8_t>& bytes) {
  std::istringstream is(std::string(bytes.begin(), bytes.end()), std::ios::binary);
  try {
    return offline::read_bundle(is);
  } catch (const std::runtime_error& e) {
    // Normalize store-codec failures on the wire into the transport's
    // typed error space.
    throw WireError(std::string("dealer: malformed bundle payload: ") + e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

class DealerServer::Impl {
 public:
  std::mutex m;
  // claimed[p][q]: party p already took bundle q.
  std::vector<std::uint8_t> claimed[2];
  std::uint64_t served = 0;
  std::uint64_t bundle_bytes = 0;
  int open_sessions = 0;
};

DealerServer::DealerServer(offline::TripleStore store)
    : store_(std::move(store)), impl_(std::make_unique<Impl>()) {
  impl_->claimed[0].assign(store_.num_queries(), 0);
  impl_->claimed[1].assign(store_.num_queries(), 0);
}

DealerServer::~DealerServer() = default;

void DealerServer::serve(Listener& listener, int sessions, TransportOptions opts) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    // Accept on the caller's thread (sequential, simple); serve each
    // accepted session on its own thread so the two parties' claims
    // interleave freely.
    std::unique_ptr<TcpTransport> t;
    try {
      t = TcpTransport::handshake(listener.accept(opts.connect_timeout), /*local_party=*/2,
                                  SessionKind::dealer, opts, /*expect_any_party=*/true);
    } catch (const NetError&) {
      continue;  // a misdialed or hostile client consumed its slot
    }
    if (tracer_ != nullptr && !t->trace_id().is_zero()) {
      // Adopt the connecting party's run id and chained clock offset: the
      // daemon's trace lane aligns with the parties' without shared config.
      tracer_->set_trace_id(t->trace_id());
      tracer_->set_clock_offset_us(t->clock_offset_us());
    }
    const int session_party = t->peer_party();
    if (session_hook_) session_hook_("session_open", session_party);
    threads.emplace_back([this, t = std::move(t), session_party]() mutable {
      {
        std::lock_guard<std::mutex> lk(impl_->m);
        ++impl_->open_sessions;
      }
      try {
        serve_session(std::move(t));
      } catch (const NetError&) {
        // A client that violates the protocol mid-session only loses its
        // own session; the daemon keeps serving the other party.
      } catch (const std::runtime_error&) {
      }
      {
        std::lock_guard<std::mutex> lk(impl_->m);
        --impl_->open_sessions;
      }
      if (session_hook_) session_hook_("session_close", session_party);
    });
  }
  for (auto& th : threads) th.join();
  std::lock_guard<std::mutex> lk(impl_->m);
  bundles_served_ = impl_->served;
}

DealerStats DealerServer::stats_snapshot() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return DealerStats{impl_->served, impl_->bundle_bytes, impl_->open_sessions};
}

void DealerServer::serve_session(std::unique_ptr<TcpTransport> transport) {
  const obs::SpanGuard session_span(tracer_, "net", "dealer_session");
  // HELLO: party + plan fingerprint.
  const std::vector<std::uint8_t> hello = transport->recv_frame();
  WireReader hr(hello);
  const int party = hr.get_u8();
  const std::uint64_t fingerprint = hr.get_u64();
  hr.expect_end();

  WireWriter info;
  if (party != 0 && party != 1) {
    // A network client's party id is self-declared; handing a computing
    // party BOTH halves (party 2) would let it reconstruct every mask.
    info.put_u8(kStatusError);
    info.put_string("dealer: invalid party id in hello (both-halves claims are refused)");
    transport->send_frame(info.take());
    return;
  }
  if (fingerprint != store_.plan_fingerprint()) {
    info.put_u8(kStatusError);
    info.put_string("dealer: plan fingerprint mismatch (store was generated for a "
                    "different model/plan)");
    transport->send_frame(info.take());
    return;
  }
  info.put_u8(kStatusOk);
  info.put_u64(store_.plan_fingerprint());
  info.put_u64(static_cast<std::uint64_t>(store_.ring().bits));
  info.put_u64(static_cast<std::uint64_t>(store_.ring().frac_bits));
  info.put_u64(static_cast<std::uint64_t>(store_.ring().wire_bits));
  info.put_u64(store_.num_queries());
  transport->send_frame(info.take());

  for (;;) {
    // A clean disconnect at a frame boundary is a silent goodbye; a frame
    // cut mid-message still propagates as FrameError (hostile/broken peer).
    const std::optional<std::vector<std::uint8_t>> req = transport->try_recv_frame();
    if (!req.has_value()) return;
    WireReader rr(*req);
    const std::uint8_t op = rr.get_u8();
    if (op == kOpBye) return;
    if (op != kOpClaim) throw WireError("dealer: unknown op from client");
    const std::uint64_t index = rr.get_u64();
    rr.expect_end();
    const bool timed = tracer_ != nullptr && tracer_->enabled();
    const std::uint64_t claim_begin = timed ? obs::Tracer::now_us() : 0;

    WireWriter resp;
    if (index >= store_.num_queries()) {
      // Past the pregenerated material: the store's typed exhaustion, as
      // TripleStore::claim raises it in process.
      resp.put_u8(kStatusExhausted);
      resp.put_string("TripleStore exhausted: pregenerate more queries");
      transport->send_frame(resp.take());
      continue;
    }
    {
      // Atomic claim: each (party, index) is handed out exactly once.
      std::lock_guard<std::mutex> lk(impl_->m);
      if (impl_->claimed[party][index] != 0) {
        resp.put_u8(kStatusError);
        resp.put_string("dealer: bundle " + std::to_string(index) +
                        " already claimed for this party");
        transport->send_frame(resp.take());
        continue;
      }
      impl_->claimed[party][index] = 1;
      ++impl_->served;
    }
    resp.put_u8(kStatusOk);
    resp.put_u64(index);
    const std::vector<std::uint8_t> payload = serialize_bundle(
        offline::slice_bundle_for_party(store_.bundle(static_cast<std::size_t>(index)), party));
    resp.put_bytes(payload);
    transport->send_frame(resp.take());
    {
      std::lock_guard<std::mutex> lk(impl_->m);
      impl_->bundle_bytes += payload.size();
    }
    if (timed) {
      // Latency covers claim bookkeeping + slicing + serialization + the
      // send — what a waiting party actually experiences past its request.
      tracer_->add(obs::Counter::dealer_claims, 1);
      tracer_->add(obs::Counter::dealer_bytes, payload.size());
      tracer_->sample(obs::Sample::dealer_claim_us, obs::Tracer::now_us() - claim_begin);
    }
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

DealerClient::DealerClient(const std::string& host, std::uint16_t port, int party,
                           std::uint64_t plan_fingerprint, TransportOptions opts) {
  transport_ = TcpTransport::connect(host, port, party, SessionKind::dealer, opts);
  WireWriter hello;
  hello.put_u8(static_cast<std::uint8_t>(party));
  hello.put_u64(plan_fingerprint);
  transport_->send_frame(hello.take());

  const std::vector<std::uint8_t> info = transport_->recv_frame();
  WireReader ir(info);
  const std::uint8_t status = ir.get_u8();
  if (status != kStatusOk) throw DealerError(ir.get_string());
  info_.fingerprint = ir.get_u64();
  info_.ring.bits = static_cast<int>(ir.get_u64());
  info_.ring.frac_bits = static_cast<int>(ir.get_u64());
  info_.ring.wire_bits = static_cast<int>(ir.get_u64());
  info_.num_queries = ir.get_u64();
  ir.expect_end();
}

DealerClient::~DealerClient() { bye(); }

offline::QueryBundle DealerClient::claim(std::uint64_t index) {
  WireWriter req;
  req.put_u8(kOpClaim);
  req.put_u64(index);
  transport_->send_frame(req.take());

  const std::vector<std::uint8_t> resp = transport_->recv_frame();
  WireReader rr(resp);
  const std::uint8_t status = rr.get_u8();
  switch (status) {
    case kStatusOk: {
      const std::uint64_t got = rr.get_u64();
      if (got != index) throw DealerError("dealer: claim index mismatch in response");
      return deserialize_bundle(rr.get_bytes());
    }
    case kStatusExhausted:
      throw offline::TripleStoreExhausted(rr.get_string());
    default:
      throw DealerError(rr.get_string());
  }
}

void DealerClient::bye() noexcept {
  if (said_bye_ || transport_ == nullptr) return;
  said_bye_ = true;
  try {
    WireWriter req;
    req.put_u8(kOpBye);
    transport_->send_frame(req.take());
  } catch (...) {
  }
  transport_->close();
}

}  // namespace pasnet::net
