#pragma once
// Two-process inference sessions: the orchestration layer both the
// examples (party_server / party_client) and the loopback self-tests
// drive, so the tested path IS the deployed path.
//
// Topology: party 1 (the model-serving side) listens, party 0 (the input-
// owning client) dials.  One TCP connection carries the whole session;
// each chunk runs on a fresh remote TwoPartyContext borrowed over it,
// seeded with the SAME canonical per-query seeds the in-process batch and
// store paths use — which is what makes two-process logits bit-identical
// to the in-process transcripts, query for query, for the fused / store /
// dealer sources.  The ot_ext source is the exception by design: its
// triple halves come from role-private entropy, so its logits match the
// canonical transcripts only up to truncation-LSB noise (see
// offline/ot_triple_source.hpp).
//
// Per chunk: party 0 sends its lanes' stream positions (party 1 refuses a
// chunk whose positions differ from its own), then computes each input
// sharing with the executor's canonical client PRG and ships party 1's
// half as a setup frame (party 1 never sees the plaintext input); the
// chunk then runs through proto::run_chunk — the runner Workload::run
// uses — which resets the channel's counter block and executes the IR
// program over the wire; the terminal opening reveals logits (or argmax
// labels) to both sides.  Setup frames ride outside the metered window, so
// the chunk's counts cover exactly what the in-process chunk counts.  With
// a tracer attached, each metered window (the chunk, and under
// TripleSourceKind::ot_ext its offline window) folds its block into the
// chunk's tracer once, when it ends; the chunk tracer then merges into the
// session tracer.

#include "ir/executor.hpp"
#include "net/dealer.hpp"
#include "net/transport_channel.hpp"
#include "obs/tracer.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"

namespace pasnet::net {

/// Party 1 side: accept the peer and wrap the connection as a channel.
[[nodiscard]] std::unique_ptr<TransportChannel> serve_party_channel(
    Listener& listener, int local_party, TransportOptions opts = TransportOptions{});

/// Party 0 side: dial the peer and wrap the connection as a channel.
[[nodiscard]] std::unique_ptr<TransportChannel> dial_party_channel(
    const std::string& host, std::uint16_t port, int local_party,
    TransportOptions opts = TransportOptions{});

/// Setup-frame transfer of one party's half of a shared tensor (shape +
/// that half; the received tensor's other half stays empty, as in every
/// share a remote context computes).  Runs over the channel BEFORE the
/// metered window.
void send_tensor_share(crypto::Channel& chan, const proto::SecureTensor& t, int for_party);
[[nodiscard]] proto::SecureTensor recv_tensor_share(crypto::Channel& chan, int local_party);

/// Where a remote session's correlated randomness comes from.
enum class TripleSourceKind {
  fused,   ///< per-query context dealer (the canonical shared-seed setup)
  store,   ///< a locally loaded TripleStore file (claim order)
  dealer,  ///< bundle claims from a pasnet_dealer daemon
  ot_ext,  ///< generated in-session by the two parties over IKNP OT
           ///< extension — no dealer daemon; triple halves are drawn from
           ///< role-private entropy (not any shared seed), so logits match
           ///< the other sources only up to truncation-LSB noise
};

/// Per-session execution knobs.
struct RemoteSessionOptions {
  proto::SecureConfig cfg;  ///< ignored (see proto::SecureConfig)
  TripleSourceKind source = TripleSourceKind::fused;
  offline::TripleStore* store = nullptr;  ///< TripleSourceKind::store (borrowed)
  DealerClient* dealer = nullptr;         ///< TripleSourceKind::dealer (borrowed)
  /// TripleSourceKind::ot_ext: the compiled preprocessing plan whose
  /// request sequence the per-lane OT-extension offline phase replays
  /// (borrowed; both processes must hold the same plan — verify_plan
  /// checks the fingerprint).
  const offline::PreprocessingPlan* plan = nullptr;
  /// TripleSourceKind::ot_ext out-param (optional, borrowed).  The offline
  /// generation runs in its OWN metered window — the block resets before
  /// and after — so the online window's counts are untouched; this
  /// receives the offline window's traffic, which tests pin against
  /// offline::ot_ext_generation_cost (the offline witness).
  crypto::TrafficStats* offline_stats_out = nullptr;
};

/// One party's side of a two-process inference session.
class PartySession {
 public:
  PartySession(int local_party, crypto::Channel& chan, crypto::RingConfig rc)
      : party_(local_party), chan_(chan), rc_(rc) {}

  /// Cross-checks that both processes compiled the same program for the
  /// same ring: exchanges the preprocessing-plan fingerprint and ring
  /// parameters and raises HandshakeError on any disagreement.  Run once
  /// before the first query.
  void verify_plan(const offline::PreprocessingPlan& plan);

  /// Runs `lanes` queries batched inside ONE remote context (the
  /// two-process face of ir::execute_batch): every round group is shared
  /// across the lanes, so the chunk pays the comparison rounds of one
  /// query.  Party 0 passes the inputs (inputs->size() == lanes); party 1
  /// passes nullptr and the agreed lane count.  Both processes derive lane
  /// j's canonical seeds from stream position q + j (store claims decide
  /// positions under TripleSourceKind::store), so batched remote logits
  /// are bit-identical to the same queries run one at a time — local or
  /// remote.  Party 1 raises HandshakeError (and hangs up) when party 0's
  /// positions differ from its own; party 0 then fails with a NetError.
  /// `stats_out`, when set, receives the chunk's metered traffic.
  [[nodiscard]] ir::BatchExecResult run_batch(const ir::SecureProgram& program,
                                              const ir::CompiledParams& params, std::size_t q,
                                              const std::vector<nn::Tensor>* inputs,
                                              std::size_t lanes,
                                              const RemoteSessionOptions& opts,
                                              crypto::TrafficStats* stats_out = nullptr);

  [[nodiscard]] int party() const noexcept { return party_; }

  /// Attaches a tracer (non-owning; nullptr detaches).  Each run_batch
  /// chunk records under its own per-chunk tracer — spans from the chunk
  /// context, counters folded from each metered window's block (setup
  /// frames stay outside) — then merges spans, samples and counters into
  /// the attached tracer.  Store and dealer claims count once per lane;
  /// dealer claims are timed as obs::Sample::dealer_claim_us.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  int party_;
  crypto::Channel& chan_;
  crypto::RingConfig rc_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
};

}  // namespace pasnet::net
