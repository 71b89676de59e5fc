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
      dealer_source_(dealer_, rc), prng0_(splitmix64(seed ^ 1)), prng1_(splitmix64(seed ^ 2)),
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
      round_delay_(0), dealer_(rc, splitmix64(seed)), dealer_source_(dealer_, rc),
      prng0_(splitmix64(seed ^ 1)), prng1_(splitmix64(seed ^ 2)),
      ot_prng0_(splitmix64(seed ^ 3)), ot_prng1_(splitmix64(seed ^ 4)),
      role_prng_(entropy_seed()), opens_(*this),
      ots_(std::make_unique<OtBuffer>(*this)), bit_opens_(std::make_unique<BitOpenBuffer>(*this)) {
  if (local_party != 0 && local_party != 1) {
    throw std::invalid_argument("TwoPartyContext: local_party must be 0 or 1");
  }
  // Only the borrowed local endpoint is addressable; chan() on the peer
  // slot throws.  Both parties' transcript-shaping PRNGs and the dealer
  // are still constructed from the shared seed so the two processes'
  // shared streams coincide; role-secret draws come from role_prng_,
  // which only this process holds.
}

TwoPartyContext::~TwoPartyContext() = default;

void TwoPartyContext::exchange(const std::function<void()>& send0,
                               const std::function<void()>& send1,
                               const std::function<void()>& recv0,
                               const std::function<void()>& recv1) {
  // Both directions are concurrently in flight: the whole exchange is one
  // latency-critical round (matching perf::OpCost::rounds), however many
  // messages it carries.
  const obs::SpanGuard span(tracer_, "crypto", "round");
  local_chan().begin_round();
  try {
    if (local_party_ >= 0) {
      // Remote: run the local party's half; the peer's half executes in the
      // other process, its messages arriving over the transport.
      if (local_party_ == 0) {
        send0();
        recv0();
      } else {
        send1();
        recv1();
      }
    } else {
      send0();
      send1();
      recv0();
      recv1();
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

void OpenBuffer::stage(Shared x, RingVec* out) {
  if (!coalescing_) {
    ctx_.counters().add(obs::Counter::openings, 1);
    ctx_.counters().add(obs::Counter::open_flushes, 1);
    *out = open(ctx_, x);
    return;
  }
  pending_.push_back(Pending{std::move(x), out});
}

void OpenBuffer::flush() {
  if (pending_.empty()) return;
  ctx_.counters().add(obs::Counter::openings, pending_.size());
  ctx_.counters().add(obs::Counter::open_flushes, 1);
  if (pending_.size() == 1) {
    *pending_[0].out = open(ctx_, pending_[0].x);
    pending_.clear();
    return;
  }
  // Concatenate every staged vector and open the lot in one exchange; the
  // bytes on the wire are identical to separate opens, the rounds are not.
  std::size_t total = 0;
  for (const Pending& p : pending_) total += p.x.size();
  Shared all;
  all.s0.reserve(total);
  all.s1.reserve(total);
  for (const Pending& p : pending_) {
    all.s0.insert(all.s0.end(), p.x.s0.begin(), p.x.s0.end());
    all.s1.insert(all.s1.end(), p.x.s1.begin(), p.x.s1.end());
  }
  const RingVec opened = open(ctx_, all);
  std::size_t off = 0;
  for (const Pending& p : pending_) {
    p.out->assign(opened.begin() + static_cast<long>(off),
                  opened.begin() + static_cast<long>(off + p.x.size()));
    off += p.x.size();
  }
  pending_.clear();
}

void OpenBuffer::set_coalescing(bool on) {
  if (!pending_.empty()) {
    throw std::logic_error("OpenBuffer::set_coalescing: stages pending (flush first)");
  }
  coalescing_ = on;
}

// ---------------------------------------------------------------------------
// Online protocols
// ---------------------------------------------------------------------------

RingVec open(TwoPartyContext& ctx, const Shared& x) {
  const int wb = ctx.wire_bytes();
  // Both directions in one parallel round.  In a remote context only the
  // local half runs: the local share goes out, the peer's arrives, and the
  // sum is the same public value either process computes.
  RingVec from0, from1;
  ctx.exchange([&] { ctx.chan(0).send_ring(x.s0, wb); },
               [&] { ctx.chan(1).send_ring(x.s1, wb); },
               [&] { from1 = ctx.chan(0).recv_ring(x.size(), wb); },
               [&] { from0 = ctx.chan(1).recv_ring(x.size(), wb); });
  if (ctx.local_party() == 0) return add_vec(x.s0, from1, ctx.ring());
  if (ctx.local_party() == 1) return add_vec(from0, x.s1, ctx.ring());
  return add_vec(from0, from1, ctx.ring());
}

void MulRound::stage(TwoPartyContext& ctx, Shared x, Shared y) {
  if (x.size() != y.size()) throw std::invalid_argument("mul_elem: size mismatch");
  ElemTriple t = ctx.elem_triple(x.size());
  stage(ctx, std::move(x), std::move(y), std::move(t));
}

void MulRound::stage(TwoPartyContext& ctx, Shared x, Shared y, ElemTriple t) {
  if (x.size() != y.size()) throw std::invalid_argument("mul_elem: size mismatch");
  if (t.a.size() != x.size()) throw std::invalid_argument("mul_elem: triple size mismatch");
  const RingConfig& rc = ctx.ring();
  t_ = std::move(t);
  x_ = std::move(x);
  y_ = std::move(y);
  // E = X - A, F = Y - B; opened jointly.
  ctx.opens().stage(sub(x_, t_.a, rc), &e_);
  ctx.opens().stage(sub(y_, t_.b, rc), &f_);
}

Shared MulRound::finish(const RingConfig& rc) {
  // R_Si = -i·E⊙F + X_Si⊙F + E⊙Y_Si + Z_Si  (paper Eq. 2), one fused
  // kernel pass per share plus the E⊙F correction on party 1's.
  const std::size_t n = x_.size();
  Shared r;
  r.s0.resize(n);
  r.s1.resize(n);
  kern::beaver_combine(r.s0.data(), x_.s0.data(), f_.data(), e_.data(), y_.s0.data(),
                       t_.z.s0.data(), n, rc.mask());
  kern::beaver_combine(r.s1.data(), x_.s1.data(), f_.data(), e_.data(), y_.s1.data(),
                       t_.z.s1.data(), n, rc.mask());
  kern::mul_sub(r.s1.data(), e_.data(), f_.data(), n, rc.mask());
  return r;
}

void SquareRound::stage(TwoPartyContext& ctx, const Shared& x) {
  p_ = ctx.square_pair(x.size());
  ctx.opens().stage(sub(x, p_.a, ctx.ring()), &e_);
}

Shared SquareRound::finish(const RingConfig& rc) {
  // R = Z + 2·E⊙A + E⊙E  (paper Eq. 3); the public E⊙E term is added by
  // exactly one party so reconstruction counts it once.
  const std::size_t n = e_.size();
  Shared r;
  r.s0.resize(n);
  r.s1.resize(n);
  kern::square_combine(r.s0.data(), p_.z.s0.data(), e_.data(), p_.a.s0.data(),
                       /*add_e2=*/true, n, rc.mask());
  kern::square_combine(r.s1.data(), p_.z.s1.data(), e_.data(), p_.a.s1.data(),
                       /*add_e2=*/false, n, rc.mask());
  return r;
}

void MatmulRound::stage(TwoPartyContext& ctx, Shared x, Shared y, std::size_t m,
                        std::size_t k, std::size_t n) {
  if (x.size() != m * k || y.size() != k * n) {
    throw std::invalid_argument("matmul: shape mismatch");
  }
  const RingConfig& rc = ctx.ring();
  t_ = ctx.matmul_triple(m, k, n);
  x_ = std::move(x);
  y_ = std::move(y);
  m_ = m;
  k_ = k;
  n_ = n;
  ctx.opens().stage(sub(x_, t_.a, rc), &e_);
  ctx.opens().stage(sub(y_, t_.b, rc), &f_);
}

Shared MatmulRound::finish(const RingConfig& rc) {
  // R_Si = Z_Si + X_Si·F + E·Y_Si [- E·F on party 1]: seed the accumulator
  // with Z, fuse both GEMMs unreduced into it, and mask once at the end.
  const std::size_t out = m_ * n_;
  Shared r;
  r.s0 = t_.z.s0;
  kern::gemm_acc(r.s0.data(), x_.s0.data(), f_.data(), m_, k_, n_);
  kern::gemm_acc(r.s0.data(), e_.data(), y_.s0.data(), m_, k_, n_);
  kern::reduce(r.s0.data(), r.s0.data(), out, rc.mask());
  r.s1 = t_.z.s1;
  kern::gemm_acc(r.s1.data(), x_.s1.data(), f_.data(), m_, k_, n_);
  kern::gemm_acc(r.s1.data(), e_.data(), y_.s1.data(), m_, k_, n_);
  RingVec ef(out);
  kern::gemm(ef.data(), e_.data(), f_.data(), m_, k_, n_, rc.mask());
  kern::sub(r.s1.data(), r.s1.data(), ef.data(), out, rc.mask());
  return r;
}

void BilinearRound::stage(TwoPartyContext& ctx, const Shared& x, const Shared& weight,
                          const BilinearSpec& spec) {
  const RingConfig& rc = ctx.ring();
  map_ = build_bilinear_map(spec, rc);
  t_ = ctx.bilinear_triple(spec);
  // E = W - B opens in weight space (offline-able for a static model) and
  // F = X - A opens in *input* space — the paper's COMM_conv term.
  ctx.opens().stage(sub(weight, t_.b, rc), &e_);
  ctx.opens().stage(sub(x, t_.a, rc), &f_);
}

Shared BilinearRound::finish(const RingConfig& rc) {
  // R_i = [i==0]·f(F,E) + f(A_i,E) + f(F,B_i) + Z_i.
  Shared y;
  y.s0 = map_(f_, e_);
  y.s0 = add_vec(add_vec(y.s0, map_(t_.a.s0, e_), rc),
                 add_vec(map_(f_, t_.b.s0), t_.z.s0, rc), rc);
  y.s1 = add_vec(map_(t_.a.s1, e_), add_vec(map_(f_, t_.b.s1), t_.z.s1, rc), rc);
  return y;
}

Shared mul_elem(TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  MulRound r;
  r.stage(ctx, x, y);
  ctx.opens().flush();
  return r.finish(ctx.ring());
}

Shared square_elem(TwoPartyContext& ctx, const Shared& x) {
  SquareRound r;
  r.stage(ctx, x);
  ctx.opens().flush();
  return r.finish(ctx.ring());
}

Shared matmul(TwoPartyContext& ctx, const Shared& x, const Shared& y, std::size_t m,
              std::size_t k, std::size_t n) {
  MatmulRound r;
  r.stage(ctx, x, y, m, k, n);
  ctx.opens().flush();
  return r.finish(ctx.ring());
}

Shared mul_fixed(TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  return truncate_shares(mul_elem(ctx, x, y), ctx.ring());
}

}  // namespace pasnet::crypto
