#include "crypto/party.hpp"

#include "crypto/compare.hpp"
#include "crypto/ot.hpp"
#include "crypto/ring_kernels.hpp"

#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <cerrno>
#include <sys/random.h>
#elif defined(__APPLE__) || defined(__FreeBSD__) || defined(__OpenBSD__) || defined(__NetBSD__)
#include <cstdlib>  // arc4random_buf
#endif

namespace pasnet::crypto {

// ---------------------------------------------------------------------------
// TwoPartyContext
// ---------------------------------------------------------------------------

TwoPartyContext::TwoPartyContext(RingConfig rc, std::uint64_t seed,
                                 std::chrono::microseconds round_delay)
    : rc_(rc), round_delay_(round_delay), dealer_(rc, splitmix64(seed)),
      dealer_source_(dealer_), prng0_(splitmix64(seed ^ 1)), prng1_(splitmix64(seed ^ 2)),
      ot_prng0_(splitmix64(seed ^ 3)), ot_prng1_(splitmix64(seed ^ 4)),
      opens_(*this), ots_(std::make_unique<OtBuffer>(*this)),
      bit_opens_(std::make_unique<BitOpenBuffer>(*this)) {
  ChannelOptions options;
  options.round_delay = round_delay;
  auto [c0, c1] = Channel::make_pair(options);
  chan0_ = std::move(c0);
  chan1_ = std::move(c1);
}

namespace {

/// Fills `n` bytes from the OS CSPRNG.  Returns false when no OS source is
/// available (then the caller falls back to best-effort mixing).
bool os_random_bytes(void* out, std::size_t n) {
#if defined(__linux__)
  auto* p = static_cast<unsigned char*>(out);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::getrandom(p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;  // e.g. ENOSYS on pre-3.17 kernels
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
#elif defined(__APPLE__) || defined(__FreeBSD__) || defined(__OpenBSD__) || defined(__NetBSD__)
  arc4random_buf(out, n);
  return true;
#else
  (void)out;
  (void)n;
  return false;
#endif
}

/// Seed material for a remote context's role-private stream: 64 bytes of
/// OS CSPRNG output folded through splitmix64.  std::random_device alone is
/// not enough — the standard permits it to be deterministic (historically
/// true on some MinGW toolchains), and a predictable seed here would make
/// every "role-private" OT-extension secret derivable by the peer.  When no OS source
/// exists we still mix random_device with clocks, ASLR-dependent addresses
/// and the thread id, so even a deterministic random_device cannot make two
/// endpoints' streams collide or be precomputable from the binary alone.
std::uint64_t entropy_seed() {
  std::uint64_t words[8] = {};
  std::uint64_t acc = 0x9E3779B97F4A7C15ULL;
  if (!os_random_bytes(words, sizeof(words))) {
    std::random_device rd;
    for (std::uint64_t& w : words) {
      w = (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
    }
    acc ^= splitmix64(static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count()));
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count()));
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(&words)));  // stack ASLR
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(&splitmix64)));  // text/code ASLR
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id())));
  }
  for (const std::uint64_t w : words) acc = splitmix64(acc ^ w);
  return acc;
}

}  // namespace

TwoPartyContext::TwoPartyContext(RingConfig rc, std::uint64_t seed, int local_party,
                                 Channel& channel)
    : rc_(rc), local_party_(local_party), remote_chan_(&channel),
      round_delay_(0), dealer_(rc, splitmix64(seed), local_party), dealer_source_(dealer_),
      prng0_(splitmix64(seed ^ 1)), prng1_(splitmix64(seed ^ 2)),
      ot_prng0_(splitmix64(seed ^ 3)), ot_prng1_(splitmix64(seed ^ 4)),
      role_prng_(entropy_seed()), opens_(*this),
      ots_(std::make_unique<OtBuffer>(*this)), bit_opens_(std::make_unique<BitOpenBuffer>(*this)) {
  if (local_party != 0 && local_party != 1) {
    throw std::invalid_argument("TwoPartyContext: local_party must be 0 or 1");
  }
  // Only the borrowed local endpoint is addressable; chan() on the peer
  // slot throws.  Both parties' transcript-shaping PRNGs and the dealer's
  // half streams are still constructed from the shared seed so the two
  // processes' shared streams coincide (the dealer completes only the
  // local party's shares); role-secret draws come from role_prng_, which
  // only this process holds.
}

TwoPartyContext::~TwoPartyContext() = default;

void TwoPartyContext::exchange(const std::function<void(int)>& send,
                               const std::function<void(int)>& recv) {
  // Both directions are concurrently in flight: the whole exchange is one
  // latency-critical round (matching perf::OpCost::rounds), however many
  // messages it carries.  A remote context runs its own party's half; the
  // peer's executes in the other process, its messages arriving over the
  // transport.
  const obs::SpanGuard span(tracer_, "crypto", "round");
  local_chan().begin_round();
  try {
    for (int p = 0; p < 2; ++p) {
      if (runs(p)) send(p);
    }
    for (int p = 0; p < 2; ++p) {
      if (runs(p)) recv(p);
    }
  } catch (...) {
    local_chan().end_round();
    throw;
  }
  local_chan().end_round();
}

// ---------------------------------------------------------------------------
// Open buffer
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> pack_bit_stages(const std::vector<BitStage>& stages, int party) {
  std::size_t bytes = 0;
  for (const BitStage& st : stages) bytes += (st.x.size() + 7) / 8;
  std::vector<std::uint8_t> out(bytes);
  std::uint8_t* o = out.data();
  for (const BitStage& st : stages) {
    const std::size_t n = st.x.size();
    const std::uint8_t* in = st.x.share(party).data();
    for (std::size_t i = 0; i < n; i += 8) {
      std::uint8_t byte = 0;
      const std::size_t m = n - i < 8 ? n - i : 8;
      for (std::size_t k = 0; k < m; ++k) byte |= static_cast<std::uint8_t>((in[i + k] & 1) << k);
      o[i / 8] = byte;
    }
    o += (n + 7) / 8;
  }
  return out;
}

void reveal_bit_stages(const std::vector<BitStage>& stages, int party,
                       const std::vector<std::uint8_t>& peer, const char* what) {
  std::size_t bytes = 0;
  for (const BitStage& st : stages) bytes += (st.x.size() + 7) / 8;
  if (peer.size() != bytes) throw FrameLengthError(what);
  const std::uint8_t* in = peer.data();
  for (const BitStage& st : stages) {
    const std::size_t n = st.x.size();
    const std::uint8_t* own = st.x.share(party).data();
    std::vector<std::uint8_t>& out = *st.out;
    out.resize(n);
    std::uint8_t* o = out.data();
    for (std::size_t j = 0; j < n; ++j) o[j] = own[j] ^ ((in[j / 8] >> (j % 8)) & 1);
    in += (n + 7) / 8;
  }
}

void OpenBuffer::stage(Shared x, RingVec* out) {
  pending_.push_back(Pending{std::move(x), out});
}

void OpenBuffer::stage(BitShared x, std::vector<std::uint8_t>* out) {
  pending_bits_.push_back(BitStage{std::move(x), out});
}

void OpenBuffer::flush() {
  if (pending_.empty() && pending_bits_.empty()) return;
  const std::vector<Pending> batch = std::exchange(pending_, {});
  const std::vector<BitStage> bits = std::exchange(pending_bits_, {});
  ctx_.counters().add(obs::Counter::openings, batch.size() + bits.size());
  ctx_.counters().add(obs::Counter::open_flushes, 1);
  if (batch.size() == 1) {
    *batch[0].out = open(ctx_, batch[0].x, bits);
    return;
  }
  // Concatenate every staged vector and open the lot in one exchange; the
  // bytes on the wire are identical to separate opens, the rounds are not.
  std::size_t total = 0;
  for (const Pending& p : batch) total += p.x.size();
  const Shared all = per_party(ctx_, [&](int party) {
    RingVec half;
    half.reserve(total);
    for (const Pending& p : batch) {
      half.insert(half.end(), p.x.share(party).begin(), p.x.share(party).end());
    }
    return half;
  });
  const RingVec opened = open(ctx_, all, bits);
  std::size_t off = 0;
  for (const Pending& p : batch) {
    p.out->assign(opened.begin() + static_cast<long>(off),
                  opened.begin() + static_cast<long>(off + p.x.size()));
    off += p.x.size();
  }
}

// ---------------------------------------------------------------------------
// Online protocols
// ---------------------------------------------------------------------------

RingVec open(TwoPartyContext& ctx, const Shared& x, const std::vector<BitStage>& bits) {
  const int wb = ctx.wire_bytes();
  // Both directions in one parallel round: each party the context runs
  // sends its share (then its packed bits, if any) and receives the
  // peer's.  The public value is any such party's own share plus the one
  // it received — party 0's in process, the local party's in a remote
  // context.
  RingVec received[2];
  std::vector<std::uint8_t> packed[2], peer_bits[2];
  for (int p = 0; p < 2; ++p) {
    if (ctx.runs(p) && !bits.empty()) packed[p] = pack_bit_stages(bits, p);
  }
  ctx.exchange(
      [&](int p) {
        ctx.chan(p).send_ring(x.share(p), wb);
        if (!bits.empty()) ctx.chan(p).send_bytes(packed[p]);
      },
      [&](int p) {
        received[p] = ctx.chan(p).recv_ring(x.size(), wb);
        if (!bits.empty()) peer_bits[p] = ctx.chan(p).recv_bytes();
      });
  const int p = ctx.runs(0) ? 0 : 1;
  if (!bits.empty()) {
    reveal_bit_stages(bits, p, peer_bits[p], "open: bit-opening frame has the wrong length");
  }
  return add_vec(x.share(p), received[p], ctx.ring());
}

void MulRound::stage(TwoPartyContext& ctx, Shared x, Shared y) {
  if (x.size() != y.size()) throw std::invalid_argument("mul_elem: size mismatch");
  t_ = ctx.bilinear_triple(BilinearSpec::hadamard(x.size()));
  x_ = std::move(x);
  y_ = std::move(y);
  // E = X - A, F = Y - B; opened jointly.
  ctx.opens().stage(sub(ctx, x_, t_.a), &e_);
  ctx.opens().stage(sub(ctx, y_, t_.b), &f_);
}

Shared MulRound::finish(const TwoPartyContext& ctx) {
  // R_Si = -i·E⊙F + X_Si⊙F + E⊙Y_Si + Z_Si  (paper Eq. 2), one fused
  // kernel pass per share plus the E⊙F correction on party 1's.
  const std::size_t n = x_.size();
  const std::uint64_t mask = ctx.ring().mask();
  return per_party(ctx, [&](int p) {
    RingVec r(n);
    kern::beaver_combine(r.data(), x_.share(p).data(), f_.data(), e_.data(), y_.share(p).data(),
                         t_.z.share(p).data(), n, mask);
    if (p == 1) kern::mul_sub(r.data(), e_.data(), f_.data(), n, mask);
    return r;
  });
}

void SquareRound::stage(TwoPartyContext& ctx, const Shared& x) {
  p_ = ctx.square_pair(x.size());
  ctx.opens().stage(sub(ctx, x, p_.a), &e_);
}

Shared SquareRound::finish(const TwoPartyContext& ctx) {
  // R = Z + 2·E⊙A + E⊙E  (paper Eq. 3); the public E⊙E term is added by
  // exactly one party so reconstruction counts it once.
  const std::size_t n = e_.size();
  return per_party(ctx, [&](int p) {
    RingVec r(n);
    kern::square_combine(r.data(), p_.z.share(p).data(), e_.data(), p_.a.share(p).data(),
                         /*add_e2=*/p == 0, n, ctx.ring().mask());
    return r;
  });
}

void MatmulRound::stage(TwoPartyContext& ctx, const Shared& x, Shared y, std::size_t m,
                        std::size_t k, std::size_t n) {
  if (x.size() != m * k || y.size() != k * n) {
    throw std::invalid_argument("matmul: shape mismatch");
  }
  t_ = ctx.bilinear_triple(BilinearSpec::matmul(m, k, n));
  x_ = &x;
  y_ = std::move(y);
  m_ = m;
  k_ = k;
  n_ = n;
  ctx.opens().stage(sub(ctx, x, t_.a), &e_);
  ctx.opens().stage(sub(ctx, y_, t_.b), &f_);
}

Shared MatmulRound::finish(const TwoPartyContext& ctx) {
  // R_Si = Z_Si + X_Si·F + E·Y_Si [- E·F on party 1], with party 1's E·F
  // folded in by linearity as E·(Y_S1 - F): two GEMMs per share, fused
  // unreduced into the Z-seeded accumulator and masked once at the end.
  const std::uint64_t mask = ctx.ring().mask();
  return per_party(ctx, [&](int p) {
    RingVec r = t_.z.share(p);
    RingVec y_minus_f;
    const RingVec* y = &y_.share(p);
    if (p == 1) {
      y_minus_f.resize(k_ * n_);
      kern::sub(y_minus_f.data(), y->data(), f_.data(), y_minus_f.size(), mask);
      y = &y_minus_f;
    }
    kern::gemm_acc(r.data(), x_->share(p).data(), f_.data(), m_, k_, n_);
    kern::gemm_acc(r.data(), e_.data(), y->data(), m_, k_, n_);
    kern::reduce(r.data(), r.data(), r.size(), mask);
    return r;
  });
}

void BilinearRound::stage(TwoPartyContext& ctx, const Shared& x, const Shared& weight,
                          const BilinearSpec& spec) {
  map_ = build_bilinear_map(spec, ctx.ring());
  t_ = ctx.bilinear_triple(spec);
  // E = W - B opens in weight space (offline-able for a static model) and
  // F = X - A opens in *input* space — the paper's COMM_conv term.
  ctx.opens().stage(sub(ctx, weight, t_.b), &e_);
  ctx.opens().stage(sub(ctx, x, t_.a), &f_);
}

Shared BilinearRound::finish(const TwoPartyContext& ctx) {
  // R_i = [i==0]·f(F,E) + f(A_i,E) + f(F,B_i) + Z_i, with party 0's public
  // f(F,E) folded in by bilinearity as f(A_0 + F, E): two maps per share.
  const RingConfig& rc = ctx.ring();
  return per_party(ctx, [&](int p) {
    RingVec a_plus_f;
    const RingVec* a = &t_.a.share(p);
    if (p == 0) {
      a_plus_f = add_vec(*a, f_, rc);
      a = &a_plus_f;
    }
    return add_vec(add_vec(map_(*a, e_), map_(f_, t_.b.share(p)), rc), t_.z.share(p), rc);
  });
}

Shared mul_elem(TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  MulRound r;
  r.stage(ctx, x, y);
  ctx.opens().flush();
  return r.finish(ctx);
}

Shared square_elem(TwoPartyContext& ctx, const Shared& x) {
  SquareRound r;
  r.stage(ctx, x);
  ctx.opens().flush();
  return r.finish(ctx);
}

Shared matmul(TwoPartyContext& ctx, const Shared& x, const Shared& y, std::size_t m,
              std::size_t k, std::size_t n) {
  MatmulRound r;
  r.stage(ctx, x, y, m, k, n);
  ctx.opens().flush();
  return r.finish(ctx);
}

Shared mul_fixed(TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  return truncate_shares(ctx, mul_elem(ctx, x, y));
}

}  // namespace pasnet::crypto
