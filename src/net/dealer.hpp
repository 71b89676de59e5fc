#pragma once
// Networked dealer service: a daemon that loads a serialized TripleStore
// and serves bundle claims over the framed transport — the deployment
// shape the store's file format was built for (ROADMAP: "a networked
// dealer service … would complete the deployment story").
//
// Session flow (all messages are transport frames with
// SessionKind::dealer; the TCP-level handshake has already pinned magic
// and protocol version):
//
//   client HELLO   u8 party (0 / 1) | u64 plan_fingerprint
//   server INFO    u8 status | on ok: u64 fingerprint, u64 ring bits,
//                  u64 frac_bits, u64 wire_bits, u64 num_queries
//                  | on error: string reason
//   client CLAIM   u8 op=1 | u64 query_index
//   server BUNDLE  u8 status | u64 index | bundle bytes   (status ok)
//                  u8 status | string reason              (error/exhausted)
//   client BYE     u8 op=2  (or clean EOF)
//
// Claims are atomic by (party, index): each party may claim each bundle
// exactly once — party 0's k-th query and party 1's k-th query both map to
// bundle k, which is what keeps a two-process store-served run's dealer
// stream identical to the in-process TripleStore::claim order.  The served
// bytes are party-sliced (slice_bundle_for_party), so neither party ever
// receives the other's share halves; a hello declaring any other party id
// (2 would mean both halves) is refused.  A claim past the last
// pregenerated bundle is the store's typed TripleStoreExhausted.
//
// The fingerprint in HELLO is checked against the store's — a client
// compiled for a different model/plan (including the label-only classify
// plan, which fingerprints differently) is refused before any material
// moves.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "obs/tracer.hpp"
#include "offline/triple_store.hpp"

namespace pasnet::net {

/// Raised on dealer-protocol violations and refusals (fingerprint
/// mismatch, double claim, server-reported errors).
class DealerError : public NetError {
 public:
  using NetError::NetError;
};

/// What the dealer advertises after a successful hello.
struct DealerInfo {
  crypto::RingConfig ring;
  std::uint64_t fingerprint = 0;
  std::uint64_t num_queries = 0;
};

/// Live serving statistics, safe to read from any thread while serve()
/// runs (the pasnet_dealer --stats-interval printer polls this).
struct DealerStats {
  std::uint64_t claims = 0;        ///< bundles shipped so far
  std::uint64_t bundle_bytes = 0;  ///< serialized bundle payload bytes shipped
  int open_sessions = 0;           ///< sessions currently being served
};

/// Serves one TripleStore to party clients.  Thread-safe claim bookkeeping;
/// one thread per accepted session (serve() joins them all).
class DealerServer {
 public:
  explicit DealerServer(offline::TripleStore store);
  ~DealerServer();

  /// Accepts and serves exactly `sessions` client sessions (a two-party
  /// deployment is 2), then returns.  Sessions are served concurrently —
  /// the two parties interleave their claims.  A session that fails its
  /// handshake or hello still counts (the slot was consumed); the first
  /// transport-level listener error propagates.
  void serve(Listener& listener, int sessions, TransportOptions opts = TransportOptions{});

  [[nodiscard]] const offline::TripleStore& store() const noexcept { return store_; }
  /// Bundles actually shipped (post-serve reporting).
  [[nodiscard]] std::uint64_t bundles_served() const noexcept { return bundles_served_; }

  /// Point-in-time serving totals; safe while serve() is running.
  [[nodiscard]] DealerStats stats_snapshot() const;

  /// Attaches a tracer (non-owning; nullptr detaches; attach before
  /// serve()).  Each served claim adds obs::Counter::dealer_claims /
  /// dealer_bytes and one obs::Sample::dealer_claim_us latency sample
  /// (request parsed -> response on the wire); each session records a
  /// "net"/"dealer_session" span.  The run trace id and clock offset each
  /// connecting party presents at handshake are adopted into the tracer,
  /// so the daemon's exported trace correlates and aligns with the
  /// parties' without any shared configuration.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Session lifecycle hook (non-owning; set before serve()): called with
  /// "session_open" / "session_close" and the client's handshake-verified
  /// party id, from the accept loop / session threads — the callback must
  /// be thread-safe.  Drives pasnet_dealer's --log-json event lines and
  /// the /healthz sessions-served count.
  using SessionHook = std::function<void(const char* event, int party)>;
  void set_session_hook(SessionHook hook) { session_hook_ = std::move(hook); }

 private:
  class Impl;
  void serve_session(std::unique_ptr<TcpTransport> transport);

  offline::TripleStore store_;
  std::uint64_t bundles_served_ = 0;
  std::unique_ptr<Impl> impl_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
  SessionHook session_hook_;
};

/// One party's connection to the dealer daemon.
class DealerClient {
 public:
  /// Dials the daemon, runs the transport handshake and the dealer hello
  /// as party 0 or 1.  Throws DealerError if the daemon's store was
  /// generated for a different plan fingerprint.
  DealerClient(const std::string& host, std::uint16_t port, int party,
               std::uint64_t plan_fingerprint, TransportOptions opts = TransportOptions{});
  ~DealerClient();

  [[nodiscard]] const DealerInfo& info() const noexcept { return info_; }

  /// Claims bundle `index` and returns its party-sliced copy.  Exhaustion
  /// raises offline::TripleStoreExhausted; a double claim or other refusal
  /// raises DealerError.
  [[nodiscard]] offline::QueryBundle claim(std::uint64_t index);

  /// Polite goodbye (also sent by the destructor).
  void bye() noexcept;

 private:
  std::unique_ptr<TcpTransport> transport_;
  DealerInfo info_;
  bool said_bye_ = false;
};

}  // namespace pasnet::net
