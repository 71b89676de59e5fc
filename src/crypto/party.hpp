#pragma once
// Two-party execution context and the online multiplicative protocols.
//
// The simulation runs both semi-honest servers inside one process (README.md,
// "Runtime model: one in-process schedule").  A TwoPartyContext bundles the
// ring, the duplex channel pair, per-party local randomness, and the trusted
// dealer.  The protocol functions below implement the paper's §II-B
// equations verbatim, exchanging masked values over the channels so that
// traffic statistics match a real deployment message-for-message.
//
// One in-process schedule: both parties run on the caller's thread in
// protocol order over the lockstep channel pair (throw-on-empty), so an
// in-process run is bit-for-bit deterministic and its transcript is the
// one the analytical-model cross-checks pin.  Concurrency lives where it
// is real: remote endpoints on their own threads or processes, and the
// worker pools that serve independent chunks on contexts of their own.
//
// Open staging: every joint opening is staged on the context's
// OpenBuffer, and flush() opens everything pending in ONE symmetric
// exchange.  Staging never draws randomness, so where the flushes fall
// changes the round count, never the values: a program with every op in
// its own round group reveals the same bits as the scheduled one.
//
// Remote (two-process) deployment: a context constructed with a local
// party id and a single channel endpoint (src/net's TransportChannel over
// TCP) drives ONE party; the peer party runs the same program in another
// process.  Every local step is one per-party loop over the parties the
// context runs (runs(p)): both in process, only the local one remote, so a
// remote process computes only the share it owns and leaves the peer's
// half of every `Shared` it produces empty.  exchange runs only the local
// party's half, joint openings combine the local share with the received
// peer share, and the per-party PRNG and dealer streams keep advancing
// identically in both processes (they are seeded from the shared context
// seed), which is what keeps a two-process run's transcript and logits
// bit-identical to the in-process schedule.  Genuinely secret values — the
// OT-extension base secrets and the OT-extension half streams of the
// triples and random OTs — do NOT come from those shared streams: they are
// drawn from role_prng(), which in a remote process is a private
// entropy-seeded stream the peer never sees (in process it aliases the
// seed-derived ot_prng streams, keeping the historical transcripts).
//
// Honest scope of the remote mode: the share-splitting streams prng(0)/
// prng(1) and the canonical client input PRG are STILL derived from the
// shared context seed in remote contexts — both endpoints can recompute
// them, which is precisely what keeps the two processes' transcripts
// aligned without extra traffic.  A peer that logs openings can therefore
// unmask intermediate sharings, so a remote run is a transcript-faithful
// simulation of the deployment, NOT yet a confidential 2PC execution
// between mutually distrusting endpoints — even under --triples=ot-ext,
// which closes the correlated-randomness (triple) side of that gap but
// not the share-randomness side.  See README "Threat model" and ROADMAP.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "crypto/beaver.hpp"
#include "crypto/channel.hpp"
#include "crypto/prng.hpp"
#include "crypto/ring.hpp"
#include "crypto/secret_share.hpp"
#include "crypto/triple_source.hpp"

namespace pasnet::crypto {

class TwoPartyContext;
class OtBuffer;        // crypto/ot.hpp — staged (1,4)-OT batches
class BitOpenBuffer;   // crypto/compare.hpp — staged XOR-share openings

/// Ignored.  Kept only so existing callers of the mode-taking constructor
/// and mode() still compile; every in-process context runs the one
/// lockstep schedule (see file comment).
enum class ExecMode { lockstep, threaded };

/// One staged XOR-share opening: the shares and where the public bits go.
struct BitStage {
  BitShared x;
  std::vector<std::uint8_t>* out;
};

/// Party `party`'s halves of every stage packed eight bits to a byte,
/// least significant first, each stage padded to its own byte boundary:
/// the wire form of a bit opening, so merging stages never changes its
/// size.
[[nodiscard]] std::vector<std::uint8_t> pack_bit_stages(const std::vector<BitStage>& stages,
                                                        int party);

/// Writes each stage's public bits: party `party`'s own half XOR the
/// peer's packed bits.  Throws FrameLengthError(`what`) unless `peer` has
/// exactly the packed length.
void reveal_bit_stages(const std::vector<BitStage>& stages, int party,
                       const std::vector<std::uint8_t>& peer, const char* what);

/// Per-context staging area for joint openings (the round scheduler's
/// "per-round open buffer").
class OpenBuffer {
 public:
  explicit OpenBuffer(TwoPartyContext& ctx) : ctx_(ctx) {}
  OpenBuffer(const OpenBuffer&) = delete;
  OpenBuffer& operator=(const OpenBuffer&) = delete;

  /// Stages x for opening; the reconstructed public value is written to
  /// *out by the next flush(), which *out must outlive.
  void stage(Shared x, RingVec* out);
  /// Stages XOR-shared bits for opening in the same exchange as the ring
  /// stages (see open()); the next flush() writes the public bits to *out.
  void stage(BitShared x, std::vector<std::uint8_t>* out);

  /// Opens everything staged since the last flush in one symmetric
  /// exchange.  No-op when nothing is pending.  The pending stages leave
  /// the buffer before the exchange, so a throwing exchange parks nothing.
  void flush();

  /// Drops every pending stage without opening it (error-path cleanup:
  /// the staged Shared copies are destroyed and the output pointers are
  /// forgotten, so an unwound protocol step cannot leave the buffer
  /// pointing into dead stack frames).
  void discard() noexcept {
    pending_.clear();
    pending_bits_.clear();
  }
  [[nodiscard]] bool has_pending() const noexcept {
    return !pending_.empty() || !pending_bits_.empty();
  }

 private:
  struct Pending {
    Shared x;
    RingVec* out;
  };
  TwoPartyContext& ctx_;
  std::vector<Pending> pending_;
  std::vector<BitStage> pending_bits_;
};

/// Everything the online phase of a 2PC evaluation needs.
class TwoPartyContext {
 public:
  /// In-process context: both parties on the caller's thread.
  /// `round_delay` simulates wire latency per protocol round (see
  /// ChannelOptions); batched inference inherits it per query, so worker
  /// pairs overlap their modeled network waits.
  explicit TwoPartyContext(RingConfig rc = RingConfig{}, std::uint64_t seed = 42,
                           std::chrono::microseconds round_delay = std::chrono::microseconds{0});
  /// The same context; the mode is ignored (see ExecMode).
  TwoPartyContext(RingConfig rc, std::uint64_t seed, ExecMode /*mode*/,
                  std::chrono::microseconds round_delay = std::chrono::microseconds{0})
      : TwoPartyContext(rc, seed, round_delay) {}
  /// Remote (two-process) context: drives `local_party` only, over the
  /// given channel endpoint (the peer party runs in another process on the
  /// other end).  The channel is borrowed, not owned — a deployment keeps
  /// one connection per party pair and runs a fresh per-query context over
  /// it, mirroring the in-process batch path's fresh per-query contexts.
  /// Both processes must construct with the same ring and seed so their
  /// transcript-shaping PRNG/dealer streams stay aligned; role-secret
  /// draws go through role_prng(), which is private per process.
  TwoPartyContext(RingConfig rc, std::uint64_t seed, int local_party, Channel& channel);
  ~TwoPartyContext();
  TwoPartyContext(const TwoPartyContext&) = delete;
  TwoPartyContext& operator=(const TwoPartyContext&) = delete;

  [[nodiscard]] const RingConfig& ring() const noexcept { return rc_; }
  [[nodiscard]] TripleDealer& dealer() noexcept { return dealer_; }

  /// Correlated-randomness draws from the installed source (the context's
  /// own dealer by default — the fused baseline; a preprocessing layer
  /// installs a store-backed source instead).  Every draw counts one
  /// obs::Counter::triple_claims.
  [[nodiscard]] SquarePair square_pair(std::size_t n) { return claim().square_pair(n); }
  [[nodiscard]] BitTriple bit_triple(std::size_t n) { return claim().bit_triple(n); }
  [[nodiscard]] BilinearTriple bilinear_triple(const BilinearSpec& spec) {
    return claim().bilinear_triple(spec);
  }
  [[nodiscard]] RandomOt random_ot(std::size_t n, int sender) {
    return claim().random_ot(n, sender);
  }
  /// Installs an external triple source (non-owning; must outlive its use).
  /// Pass nullptr to revert to the dealer-backed default.  Not thread-safe
  /// against in-flight protocol steps — set it between queries.
  void set_triple_source(TripleSource* source) noexcept {
    triple_source_ = source != nullptr ? source : &dealer_source_;
  }
  /// The source installed via set_triple_source, or nullptr when the
  /// context serves from its own dealer (the default).  Lets a caller
  /// save/restore the installation around a scoped override — the batched
  /// executor swaps per-lane sources around each op's randomness draws.
  [[nodiscard]] TripleSource* installed_triple_source() const noexcept {
    return triple_source_ == &dealer_source_ ? nullptr : triple_source_;
  }
  [[nodiscard]] Channel& chan(int party) {
    if (remote_chan_ != nullptr) {
      if (party != local_party_) {
        throw std::logic_error("TwoPartyContext::chan: peer channel not addressable in a "
                               "remote (single-party) context");
      }
      return *remote_chan_;
    }
    return party == 0 ? *chan0_ : *chan1_;
  }
  /// The per-party share-randomness streams: every draw here lands in a
  /// secret share (millionaire leaf masks and the like), so the sequence of
  /// draws pins the share split — and with it the ±1-LSB truncation noise —
  /// of everything downstream.  The batched executor overrides these with
  /// per-lane streams (seeded exactly like a fresh per-query context) so
  /// each lane of a single-context chunk replays the draw sequence of its
  /// own independent run.
  [[nodiscard]] Prng& prng(int party) noexcept {
    Prng* const o = party == 0 ? prng_override0_ : prng_override1_;
    if (o != nullptr) return *o;
    return party == 0 ? prng0_ : prng1_;
  }
  /// Installs per-party replacement streams for prng() (non-owning; pass
  /// nullptrs to restore the context's own streams).  Not thread-safe
  /// against in-flight protocol steps — the batched executor swaps lanes
  /// between staging calls.
  void set_prng_override(Prng* p0, Prng* p1) noexcept {
    prng_override0_ = p0;
    prng_override1_ = p1;
  }
  [[nodiscard]] Prng* prng_override(int party) const noexcept {
    return party == 0 ? prng_override0_ : prng_override1_;
  }
  /// Seed-derived per-party streams that stand in for role_prng() in the
  /// in-process simulation modes.  They are kept off the share streams,
  /// so an OT-extension run can never shift a share-affecting draw.
  [[nodiscard]] Prng& ot_prng(int party) noexcept { return party == 0 ? ot_prng0_ : ot_prng1_; }
  /// The stream ROLE-SECRET values are drawn from: the OT-extension base
  /// secrets and the OT-extension half-stream seeds of the triples and
  /// random OTs — values whose secrecy against the *peer* is what the
  /// protocol's security rests on.  In the simulation modes (both parties
  /// in one process) this aliases ot_prng(party), so transcripts are
  /// unchanged there; in a remote process it is a private entropy-seeded
  /// stream, and asking for the PEER's role stream throws — the peer's
  /// secrets do not exist in this process.
  [[nodiscard]] Prng& role_prng(int party) {
    if (local_party_ < 0) return ot_prng(party);
    if (party != local_party_) {
      throw std::logic_error("TwoPartyContext::role_prng: peer role secrets are not "
                             "available in a remote (single-party) context");
    }
    return role_prng_;
  }
  /// Always lockstep (see ExecMode).
  [[nodiscard]] ExecMode mode() const noexcept { return ExecMode::lockstep; }
  [[nodiscard]] std::chrono::microseconds round_delay() const noexcept { return round_delay_; }

  /// The party this context drives: -1 when both run in-process (the
  /// simulation modes), 0 or 1 for a remote two-process context.
  [[nodiscard]] int local_party() const noexcept { return local_party_; }
  /// Whether this context executes `party`'s side of the protocol: the
  /// condition of every per-party loop.  The protocol implementations
  /// gate channel operations and all share compute on it; transcript-
  /// shaping PRNG and dealer draws stay ungated so both processes' shared
  /// randomness streams remain aligned, while role_prng() draws are gated
  /// with the compute they feed.
  [[nodiscard]] bool runs(int party) const noexcept {
    return local_party_ < 0 || local_party_ == party;
  }

  /// The context's open staging buffer (see OpenBuffer).
  [[nodiscard]] OpenBuffer& opens() noexcept { return opens_; }
  /// The context's staged-OT buffer (crypto/ot.hpp) — the comparison
  /// stack's analog of opens(): independent comparison instances stage
  /// their (1,4)-OT leaf batches here and a coalescing flush merges them
  /// into one two-message exchange.
  [[nodiscard]] OtBuffer& ots() noexcept { return *ots_; }
  /// The context's staged bit-open buffer (crypto/compare.hpp): AND-tree
  /// levels of independent comparisons open their masked (d, e) bits in
  /// one shared exchange per level.
  [[nodiscard]] BitOpenBuffer& bit_opens() noexcept { return *bit_opens_; }

  /// One symmetric communication round: every party the context runs
  /// sends (send(p)), then each receives (recv(p)) — in process party 0
  /// and 1 on the caller's thread, remote only the local party.  The whole
  /// exchange is bracketed as ONE round in the traffic stats (both
  /// directions in flight together).
  void exchange(const std::function<void(int)>& send, const std::function<void(int)>& recv);

  /// Modeled on-wire bytes per ring element (4 for the paper's 32-bit ring).
  [[nodiscard]] int wire_bytes() const noexcept { return (rc_.wire_bits + 7) / 8; }

  /// The metered endpoint's always-on counter block: the channel counts
  /// wire traffic and wait time there, and the protocol layers on this
  /// context count their events (OT batches, AND levels, openings, triple
  /// claims, kernel deliveries) there too — traced or not.
  [[nodiscard]] obs::CounterBlock& counters() const noexcept { return local_chan().counters(); }
  [[nodiscard]] TrafficStats stats() const noexcept { return local_chan().stats(); }
  /// Starts a metered window (see Channel::reset_stats).
  void reset_stats() { local_chan().reset_stats(); }

  /// Attaches a tracer for spans (nullptr detaches): exchange rounds and
  /// the executor's op and round-group spans record into it.  Non-owning;
  /// the tracer must outlive the attachment — obs::Tracer is thread-safe.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  [[nodiscard]] TripleSource& claim() {
    counters().add(obs::Counter::triple_claims, 1);
    return *triple_source_;
  }

  /// The endpoint this context meters: party 0's in process (it observes
  /// every message of both parties once), the borrowed endpoint for a
  /// remote context.
  [[nodiscard]] Channel& local_chan() const noexcept {
    return remote_chan_ != nullptr ? *remote_chan_ : *chan0_;
  }

  RingConfig rc_;
  int local_party_ = -1;
  Channel* remote_chan_ = nullptr;  // borrowed (remote contexts only)
  std::chrono::microseconds round_delay_;
  std::unique_ptr<Channel> chan0_;
  std::unique_ptr<Channel> chan1_;
  TripleDealer dealer_;
  DealerTripleSource dealer_source_;
  TripleSource* triple_source_ = &dealer_source_;
  Prng prng0_;
  Prng prng1_;
  Prng ot_prng0_;
  Prng ot_prng1_;
  Prng role_prng_{0};  // remote contexts only: entropy-seeded, peer-private
  Prng* prng_override0_ = nullptr;  // non-owning; see set_prng_override
  Prng* prng_override1_ = nullptr;
  OpenBuffer opens_;
  std::unique_ptr<OtBuffer> ots_;
  std::unique_ptr<BitOpenBuffer> bit_opens_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
};

/// Builds the Shared whose half p is f(p) for every party `ctx` runs; the
/// other half stays empty.  The per-party loop of the local share math.
template <typename F>
[[nodiscard]] Shared per_party(const TwoPartyContext& ctx, F&& f) {
  Shared out;
  for (int p = 0; p < 2; ++p) {
    if (ctx.runs(p)) out.share(p) = f(p);
  }
  return out;
}

/// Jointly reconstruct a shared vector: both parties exchange their shares
/// (one parallel round) and locally add.  Returns the public value.  Bit
/// stages, if any, open in the same exchange: their packed bits travel as
/// a second message, and each stage's public bits land in its output.
[[nodiscard]] RingVec open(TwoPartyContext& ctx, const Shared& x,
                           const std::vector<BitStage>& bits = {});

// --- Staged (two-phase) protocol rounds ------------------------------------
//
// Each *Round splits one multiplicative protocol into stage() — draw the
// correlated randomness and stage the masked openings on ctx.opens() — and
// finish() — recombine once the openings are public, for the parties the
// context runs.  The one-shot functions below are stage + flush + finish;
// the IR executor stages several independent rounds and flushes them in
// one exchange.  Both paths share the same arithmetic and the same draw
// order, which is what makes their results bit-identical.

/// Beaver elementwise multiplication (paper Eq. 2) over a hadamard
/// product triple, staged.
class MulRound {
 public:
  void stage(TwoPartyContext& ctx, Shared x, Shared y);
  [[nodiscard]] Shared finish(const TwoPartyContext& ctx);

 private:
  BilinearTriple t_;
  Shared x_, y_;
  RingVec e_, f_;
};

/// Square via a square pair (paper Eq. 3), staged.
class SquareRound {
 public:
  void stage(TwoPartyContext& ctx, const Shared& x);
  [[nodiscard]] Shared finish(const TwoPartyContext& ctx);

 private:
  SquarePair p_;
  RingVec e_;
};

/// Beaver matrix product (m×k)·(k×n) over a matmul product triple,
/// staged.  The left operand x is borrowed, not copied (the linear layer
/// passes its weight once per sample): it must outlive finish().
class MatmulRound {
 public:
  void stage(TwoPartyContext& ctx, const Shared& x, Shared y, std::size_t m, std::size_t k,
             std::size_t n);
  [[nodiscard]] Shared finish(const TwoPartyContext& ctx);

 private:
  BilinearTriple t_;
  const Shared* x_ = nullptr;
  Shared y_;
  RingVec e_, f_;
  std::size_t m_ = 0, k_ = 0, n_ = 0;
};

/// Convolution-shaped bilinear product Z = f(X, W), staged.  E = W - B
/// opens in weight space, F = X - A in input space (paper COMM_conv).
class BilinearRound {
 public:
  void stage(TwoPartyContext& ctx, const Shared& x, const Shared& weight,
             const BilinearSpec& spec);
  [[nodiscard]] Shared finish(const TwoPartyContext& ctx);

 private:
  BilinearTriple t_;
  BilinearMap map_;
  RingVec e_, f_;
};

/// Elementwise Beaver multiplication JRK = JXK ⊙ JYK (paper Eq. 2).
[[nodiscard]] Shared mul_elem(TwoPartyContext& ctx, const Shared& x, const Shared& y);

/// Elementwise square JRK = JXK ⊙ JXK using a square pair (paper Eq. 3).
[[nodiscard]] Shared square_elem(TwoPartyContext& ctx, const Shared& x);

/// Matrix product JRK = JXK · JYK with X m×k and Y k×n (row-major).
[[nodiscard]] Shared matmul(TwoPartyContext& ctx, const Shared& x, const Shared& y,
                            std::size_t m, std::size_t k, std::size_t n);

/// Fixed-point multiply: Beaver multiplication followed by local truncation
/// so the result returns to f fraction bits.
[[nodiscard]] Shared mul_fixed(TwoPartyContext& ctx, const Shared& x, const Shared& y);

}  // namespace pasnet::crypto
