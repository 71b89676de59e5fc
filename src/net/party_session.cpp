#include "net/party_session.hpp"

#include <string>

#include "net/wire.hpp"
#include "offline/ot_triple_source.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"

namespace pasnet::net {

namespace {

/// "[0,1]": the stream positions a position-mismatch error names — at
/// most the first 8, since one of the lists comes from the peer.
std::string position_list(const std::vector<std::uint64_t>& positions) {
  constexpr std::size_t kShown = 8;
  std::string s;
  for (std::size_t i = 0; i < positions.size() && i < kShown; ++i) {
    s += (i == 0 ? "" : ",") + std::to_string(positions[i]);
  }
  return "[" + s + (positions.size() > kShown ? ",...]" : "]");
}

}  // namespace

std::unique_ptr<TransportChannel> serve_party_channel(Listener& listener, int local_party,
                                                      TransportOptions opts) {
  return std::make_unique<TransportChannel>(
      TcpTransport::accept(listener, local_party, SessionKind::party_channel, opts),
      local_party);
}

std::unique_ptr<TransportChannel> dial_party_channel(const std::string& host,
                                                     std::uint16_t port, int local_party,
                                                     TransportOptions opts) {
  return std::make_unique<TransportChannel>(
      TcpTransport::connect(host, port, local_party, SessionKind::party_channel, opts),
      local_party);
}

void send_tensor_share(crypto::Channel& chan, const proto::SecureTensor& t, int for_party) {
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(t.shape.size()));
  for (const int d : t.shape) w.put_u32(static_cast<std::uint32_t>(d));
  w.put_ring_vec(for_party == 0 ? t.shares.s0 : t.shares.s1);
  chan.send_bytes(w.take());
}

proto::SecureTensor recv_tensor_share(crypto::Channel& chan, int local_party) {
  const std::vector<std::uint8_t> msg = chan.recv_bytes();
  WireReader r(msg);
  const std::uint32_t ndims = r.get_u32();
  if (ndims > 8) throw WireError("tensor share: implausible rank");
  proto::SecureTensor t;
  std::size_t elems = 1;
  for (std::uint32_t i = 0; i < ndims; ++i) {
    const std::uint32_t d = r.get_u32();
    if (d == 0 || d > (1U << 24)) throw WireError("tensor share: implausible dimension");
    t.shape.push_back(static_cast<int>(d));
    // Cap the running product BEFORE multiplying: a hostile shape like
    // {2^24, 2^24, 2^16} must raise a typed error, not wrap std::size_t
    // around to a small value that slips past the length check below.
    if (elems > (std::size_t{1} << 28) / d) {
      throw WireError("tensor share: implausible element count");
    }
    elems *= d;
  }
  crypto::RingVec half = r.get_ring_vec();
  r.expect_end();
  if (half.size() != elems) throw WireError("tensor share: element count mismatch");
  // The peer half stays empty: a remote context computes only its own
  // party's shares, so it never reads the peer's.
  t.shares.share(local_party) = std::move(half);
  return t;
}

void PartySession::verify_plan(const offline::PreprocessingPlan& plan) {
  const obs::SpanGuard span(tracer_, "net", "verify_plan");
  WireWriter w;
  w.put_u64(plan.fingerprint());
  w.put_u32(static_cast<std::uint32_t>(rc_.bits));
  w.put_u32(static_cast<std::uint32_t>(rc_.frac_bits));
  w.put_u32(static_cast<std::uint32_t>(rc_.wire_bits));
  // Symmetric exchange: both send, both receive (the channel is duplex).
  chan_.send_bytes(w.bytes());
  const std::vector<std::uint8_t> msg = chan_.recv_bytes();
  WireReader r(msg);
  const std::uint64_t peer_fp = r.get_u64();
  const auto peer_bits = r.get_u32();
  const auto peer_frac = r.get_u32();
  const auto peer_wire = r.get_u32();
  r.expect_end();
  if (peer_fp != plan.fingerprint()) {
    throw HandshakeError("session: peer compiled a different program (plan fingerprint "
                         "mismatch)");
  }
  if (peer_bits != static_cast<std::uint32_t>(rc_.bits) ||
      peer_frac != static_cast<std::uint32_t>(rc_.frac_bits) ||
      peer_wire != static_cast<std::uint32_t>(rc_.wire_bits)) {
    throw HandshakeError("session: ring configuration mismatch between the parties");
  }
}

ir::BatchExecResult PartySession::run_batch(const ir::SecureProgram& program,
                                            const ir::CompiledParams& params, std::size_t q,
                                            const std::vector<nn::Tensor>* inputs,
                                            std::size_t lanes,
                                            const RemoteSessionOptions& opts,
                                            crypto::TrafficStats* stats_out) {
  if (lanes == 0) return ir::BatchExecResult{};
  if (party_ == 0 && (inputs == nullptr || inputs->size() != lanes)) {
    throw std::invalid_argument("PartySession::run_batch: party 0 owns one input per lane");
  }
  // Per-chunk tracer, merged into the session tracer at the end.
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  obs::Tracer chunk_tracer(tracing);
  const std::uint64_t chunk_begin = tracing ? obs::Tracer::now_us() : 0;

  // --- per-lane triple sourcing ---------------------------------------------
  // Lane j's canonical stream position follows the in-process Workload
  // path: store claims decide it under TripleSourceKind::store, the stream
  // position q + j under every other source.  When both processes derive
  // the same positions, their per-lane dealer/PRNG streams — the shared
  // trusted setup — coincide; the setup frames below check that they do.
  std::vector<proto::ChunkLane> chunk_lanes(lanes);
  std::vector<offline::QueryBundle> owned(lanes);  // dealer and ot_ext material
  std::size_t first = q;
  if (opts.source == TripleSourceKind::store) {
    if (opts.store == nullptr) {
      throw std::invalid_argument("PartySession::run_batch: store source without a store");
    }
    first = opts.store->claim(lanes);
    chunk_tracer.add(obs::Counter::store_claims, lanes);
  }
  if (opts.source == TripleSourceKind::dealer && opts.dealer == nullptr) {
    throw std::invalid_argument("PartySession::run_batch: dealer source without a client");
  }
  for (std::size_t j = 0; j < lanes; ++j) {
    chunk_lanes[j].position = first + j;
    if (opts.source == TripleSourceKind::store) {
      chunk_lanes[j].bundle = &opts.store->bundle(first + j);
    } else if (opts.source == TripleSourceKind::dealer) {
      const std::uint64_t claim_begin = tracing ? obs::Tracer::now_us() : 0;
      owned[j] = opts.dealer->claim(q + j);
      chunk_lanes[j].bundle = &owned[j];
      if (tracing) {
        chunk_tracer.add(obs::Counter::dealer_claims, 1);
        chunk_tracer.sample(obs::Sample::dealer_claim_us, obs::Tracer::now_us() - claim_begin);
      }
    }
  }

  // --- setup frames (outside the metered window) ---------------------------
  // Party 0 leads with its lanes' stream positions, then sends one
  // input-share frame per lane, each computed with the executor's canonical
  // per-lane client PRG: identical share values to the in-process batched
  // input op, so logits stay bit-identical.  Party 1 refuses positions that
  // differ from its own — the two processes would otherwise run mismatched
  // shared streams and reveal garbage without any error.
  std::vector<std::uint64_t> positions(lanes);
  for (std::size_t j = 0; j < lanes; ++j) positions[j] = chunk_lanes[j].position;
  std::vector<proto::SecureTensor> input_shares(lanes);
  if (party_ == 0) {
    WireWriter w;
    w.put_ring_vec(positions);  // the u64-vector encoding
    chan_.send_bytes(w.take());
    for (std::size_t j = 0; j < lanes; ++j) {
      crypto::Prng input_prng(0xC11E47ULL);
      input_shares[j] = proto::share_tensor((*inputs)[j], input_prng, rc_);
      send_tensor_share(chan_, input_shares[j], /*for_party=*/1);
    }
  } else {
    const std::vector<std::uint8_t> msg = chan_.recv_bytes();
    WireReader r(msg);
    const std::vector<std::uint64_t> peer = r.get_ring_vec();
    r.expect_end();
    if (peer != positions) {
      // The unread input shares leave the session out of step: hang up so
      // party 0 fails now instead of at its io timeout.
      chan_.close();
      throw HandshakeError("session: the parties disagree on the chunk's stream positions "
                           "(party 0 at " + position_list(peer) + ", party 1 at " +
                           position_list(positions) + ")");
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      input_shares[j] = recv_tensor_share(chan_, /*local_party=*/1);
    }
  }

  // --- the offline window (TripleSourceKind::ot_ext only) -------------------
  // The two endpoints generate every lane's bundle themselves over IKNP OT
  // extension: no dealer daemon, and in this remote context each process
  // draws its halves from role_prng (process-local entropy the peer cannot
  // reconstruct) — so unlike every other serving mode the triple material
  // here is NOT the canonical shared-seed stream, and logits match the
  // dealer path only up to truncation-LSB noise.  The window is metered
  // separately (the block resets on both sides of it) so the ONLINE
  // window counts exactly what the other serving modes count; the offline
  // traffic has its own analytic witness, ot_ext_generation_cost.  Its
  // block folds into the chunk tracer once, when the window ends.
  if (opts.source == TripleSourceKind::ot_ext) {
    if (opts.plan == nullptr) {
      throw std::invalid_argument("PartySession::run_batch: ot_ext source without a plan");
    }
    chan_.reset_stats();
    const std::uint64_t offline_begin = tracing ? obs::Tracer::now_us() : 0;
    crypto::TwoPartyContext gen_ctx(rc_, proto::SecureNetwork::query_context_seed(positions[0]),
                                    party_, chan_);
    if (tracing) gen_ctx.set_tracer(&chunk_tracer);
    // The per-lane seeds only size the generation in a remote context
    // (halves come from role_prng there); passing the canonical values
    // keeps the call shape identical to the simulation paths.
    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      seeds[j] = proto::SecureNetwork::query_dealer_seed(positions[j]);
    }
    offline::generate_bundles_ot_ext(*opts.plan, gen_ctx, seeds, owned.data());
    for (std::size_t j = 0; j < lanes; ++j) chunk_lanes[j].bundle = &owned[j];
    if (opts.offline_stats_out != nullptr) *opts.offline_stats_out = chan_.stats();
    if (tracing) {
      chunk_tracer.add(chan_.counters().snapshot());
      chunk_tracer.complete_span("offline", "ot_ext_generate", offline_begin,
                                 static_cast<std::int64_t>(lanes));
    }
  }

  // --- the metered chunk ----------------------------------------------------
  // One remote context for the whole chunk, seeded with lane 0's canonical
  // context seed, run by the same chunk runner as Workload::run.
  crypto::TwoPartyContext ctx(rc_, proto::SecureNetwork::query_context_seed(positions[0]),
                              party_, chan_);
  ir::BatchExecOptions bopts;
  for (const proto::SecureTensor& share : input_shares) bopts.input_shares.push_back(&share);
  proto::ChunkRun run = proto::run_chunk(ctx, program, params, chunk_lanes, {}, bopts,
                                         tracing ? &chunk_tracer : nullptr);
  if (stats_out != nullptr) *stats_out = crypto::TrafficStats::of(run.counters);
  if (tracing) {
    chunk_tracer.complete_span("net", "run_batch", chunk_begin,
                               static_cast<std::int64_t>(lanes));
    chunk_tracer.sample(obs::Sample::chunk_us, obs::Tracer::now_us() - chunk_begin);
    tracer_->merge_from(chunk_tracer);
  }
  return std::move(run.results);
}

}  // namespace pasnet::net
