#include "crypto/compare.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "crypto/ring_kernels.hpp"

namespace pasnet::crypto {

namespace {

// memcpy-based subvector copy: iterator-range assign on an empty range makes
// GCC 12's -Wnonnull fire on the inlined memmove, and -Werror builds fail.
std::vector<std::uint8_t> slice_bytes(const std::vector<std::uint8_t>& v, std::size_t lo,
                                      std::size_t hi) {
  std::vector<std::uint8_t> out(hi - lo);
  if (hi > lo) std::memcpy(out.data(), v.data() + lo, hi - lo);
  return out;
}

}  // namespace

std::vector<std::uint8_t> reconstruct_bits(const BitShared& v) {
  std::vector<std::uint8_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v.b0[i] ^ v.b1[i];
  return out;
}

BitShared xor_bits(const TwoPartyContext& ctx, const BitShared& x, const BitShared& y) {
  if (x.size() != y.size()) throw std::invalid_argument("xor_bits: size mismatch");
  BitShared out;
  for (int p = 0; p < 2; ++p) {
    if (!ctx.runs(p)) continue;
    std::vector<std::uint8_t>& o = out.share(p);
    o.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) o[i] = x.share(p)[i] ^ y.share(p)[i];
  }
  return out;
}

BitShared not_bits(const BitShared& x) {
  BitShared out = x;
  for (auto& b : out.b0) b ^= 1;
  return out;
}

// ---------------------------------------------------------------------------
// Bit-open buffer and staged AND
// ---------------------------------------------------------------------------

void flush_compare_buffers(TwoPartyContext& ctx, CompareWait w) {
  switch (w) {
    case CompareWait::ot:
      ctx.ots().flush();
      break;
    case CompareWait::bits:
      ctx.bit_opens().flush();
      break;
    case CompareWait::opens:
      ctx.opens().flush();
      break;
    case CompareWait::done:
      break;
  }
}

void BitOpenBuffer::stage(BitShared x, std::vector<std::uint8_t>* out) {
  pending_.push_back(BitStage{std::move(x), out});
}

void BitOpenBuffer::flush() {
  if (pending_.empty()) return;
  // One symmetric exchange for every pending stage; each stage's bits pack
  // into their own byte-aligned chunk so merging never changes the
  // transcript size, only the exchange count.
  //
  // Each flush is one AND-tree level opening — the protocol event the
  // and_levels counter tracks.
  const std::vector<BitStage> batch = std::exchange(pending_, {});
  ctx_.counters().add(obs::Counter::and_levels, 1);
  std::vector<std::uint8_t> msg[2], received[2];
  for (int p = 0; p < 2; ++p) {
    if (ctx_.runs(p)) msg[p] = pack_bit_stages(batch, p);
  }
  ctx_.exchange([&](int p) { ctx_.chan(p).send_bytes(msg[p]); },
                [&](int p) { received[p] = ctx_.chan(p).recv_bytes(); });
  // Reconstruct from one party's own share and the peer's packed bits it
  // received: party 0's in process, the local party's in a remote context.
  const int p = ctx_.runs(0) ? 0 : 1;
  reveal_bit_stages(batch, p, received[p],
                    "BitOpenBuffer::flush: bit-opening frame has the wrong length");
}

void AndRound::stage(TwoPartyContext& ctx, const BitShared& x, const BitShared& y,
                     BitTriple t) {
  if (x.size() != y.size()) throw std::invalid_argument("and_bits: size mismatch");
  const std::size_t n = x.size();
  t_ = std::move(t);
  // d = x ^ a, e = y ^ b; both parties open (one parallel round once the
  // buffer flushes).  d and e concatenate into one 2n-bit stage, exactly
  // the historical and_bits message.
  BitShared de;
  for (int p = 0; p < 2; ++p) {
    if (!ctx.runs(p)) continue;
    if (t_.a(p).size() != n) throw std::invalid_argument("and_bits: triple size mismatch");
    std::vector<std::uint8_t>& half = de.share(p);
    half.resize(2 * n);
    // Raw pointers: byte stores may alias any vector's bookkeeping, so
    // indexing through the vectors would reload them every iteration.
    const std::uint8_t* xs = x.share(p).data();
    const std::uint8_t* ys = y.share(p).data();
    const std::uint8_t* a = t_.a(p).data();
    const std::uint8_t* b = t_.b(p).data();
    std::uint8_t* d = half.data();
    std::uint8_t* e = d + n;
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = xs[i] ^ a[i];
      e[i] = ys[i] ^ b[i];
    }
  }
  ctx.bit_opens().stage(std::move(de), &de_);
}

BitShared AndRound::finish(const TwoPartyContext& ctx) {
  const std::size_t n = de_.size() / 2;
  BitShared out;
  for (int p = 0; p < 2; ++p) {
    if (!ctx.runs(p)) continue;
    std::vector<std::uint8_t>& zv = out.share(p);
    zv.resize(n);
    const std::uint8_t* d = de_.data();
    const std::uint8_t* e = d + n;
    const std::uint8_t* a = t_.a(p).data();
    const std::uint8_t* b = t_.b(p).data();
    const std::uint8_t* c = t_.c(p).data();
    const std::uint8_t de_mask = p == 0 ? 1 : 0;
    std::uint8_t* z = zv.data();
    for (std::size_t i = 0; i < n; ++i) {
      // z_i = [i==0]·(d&e) ^ (d & b_i) ^ (e & a_i) ^ c_i
      z[i] = (d[i] & e[i] & de_mask) ^ (d[i] & b[i]) ^ (e[i] & a[i]) ^ c[i];
    }
  }
  return out;
}

BitShared and_bits(TwoPartyContext& ctx, const BitShared& x, const BitShared& y) {
  if (x.size() != y.size()) throw std::invalid_argument("and_bits: size mismatch");
  AndRound r;
  r.stage(ctx, x, y, ctx.bit_triple(x.size()));
  ctx.bit_opens().flush();
  return r.finish(ctx);
}

int millionaire_digits(int nbits) noexcept {
  return (nbits + 1) / 2;  // 2-bit parts (paper: U=16 for 32 bits)
}

std::vector<int> millionaire_and_level_multipliers(int nbits) {
  // Mirrors the combine loop of millionaire_gt: each level batches both
  // ANDs of every adjacent digit pair, an odd digit carrying up unpaired.
  std::vector<int> levels;
  int digits = millionaire_digits(nbits);
  while (digits > 1) {
    const int pairs = digits / 2;
    levels.push_back(2 * pairs);
    digits = pairs + digits % 2;
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Resumable millionaire / DReLU phases
// ---------------------------------------------------------------------------

MillionaireMaterial draw_millionaire_material(TwoPartyContext& ctx, std::size_t n,
                                              int nbits) {
  if (nbits < 1 || nbits > 63) throw std::invalid_argument("millionaire_gt: bad width");
  const int digits = millionaire_digits(nbits);
  MillionaireMaterial mat;
  mat.r_lt = random_bits(ctx.prng(1), n * digits);
  mat.r_eq = random_bits(ctx.prng(1), n * digits);
  mat.leaf_ots = ctx.random_ot(n * digits, /*sender=*/1);
  for (const int mult : millionaire_and_level_multipliers(nbits)) {
    mat.levels.push_back(ctx.bit_triple(static_cast<std::size_t>(mult) * n));
  }
  return mat;
}

void StagedMillionaire::begin(TwoPartyContext& ctx, const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b, int nbits,
                              MillionaireMaterial material) {
  if (nbits < 1 || nbits > 63) throw std::invalid_argument("millionaire_gt: bad width");
  digits_ = millionaire_digits(nbits);
  level_ = 0;
  mat_ = std::move(material);
  n_ = mat_.r_lt.size() / static_cast<std::size_t>(digits_);
  if ((ctx.runs(0) && a.size() != n_) || (ctx.runs(1) && b.size() != n_)) {
    throw std::invalid_argument("millionaire_gt: input/material size mismatch");
  }

  // Leaf layer: one (1,4)-OT per (element, digit).  Party 1 is the sender
  // and keeps the pre-drawn random bits (r_lt, r_eq) as its leaf shares;
  // party 0 receives the masked (lt, eq) pair for its digit value.
  std::vector<std::array<std::uint8_t, kOtFanIn>> tables;
  std::vector<std::uint8_t> choices;
  if (ctx.runs(1)) {
    tables.resize(n_ * digits_);
    for (std::size_t t = 0; t < n_; ++t) {
      for (int d = 0; d < digits_; ++d) {
        const std::size_t idx = t * digits_ + d;
        const auto b_dig = static_cast<std::uint8_t>((b[t] >> (2 * d)) & 3);
        for (std::uint8_t j = 0; j < kOtFanIn; ++j) {
          const std::uint8_t gt = (j > b_dig) ? 1 : 0;
          const std::uint8_t eq = (j == b_dig) ? 1 : 0;
          tables[idx][j] = static_cast<std::uint8_t>(
              (gt ^ mat_.r_lt[idx]) | (static_cast<std::uint8_t>(eq ^ mat_.r_eq[idx]) << 1));
        }
      }
    }
  }
  if (ctx.runs(0)) {
    choices.resize(n_ * digits_);
    for (std::size_t t = 0; t < n_; ++t) {
      for (int d = 0; d < digits_; ++d) {
        choices[t * digits_ + d] = static_cast<std::uint8_t>((a[t] >> (2 * d)) & 3);
      }
    }
  }
  ctx.ots().stage(std::move(mat_.leaf_ots), std::move(tables), std::move(choices), &leaf_);
  wait_ = CompareWait::ot;
}

void StagedMillionaire::stage_level(TwoPartyContext& ctx) {
  // Log-depth combine: for an adjacent (hi, lo) pair,
  //   gt = gt_hi ^ (eq_hi & gt_lo),  eq = eq_hi & eq_lo.
  // Both ANDs of every pair batch into a single staged AND.
  const std::size_t pairs = gts_.size() / 2;
  BitShared lhs, rhs;  // concat of [eq_hi]*2 vs [gt_lo, eq_lo] per pair
  for (int h = 0; h < 2; ++h) {
    if (!ctx.runs(h)) continue;
    std::vector<std::uint8_t>& l = lhs.share(h);
    std::vector<std::uint8_t>& r = rhs.share(h);
    l.reserve(2 * pairs * n_);
    r.reserve(2 * pairs * n_);
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::vector<std::uint8_t>& eq_hi = eqs_[2 * p + 1].share(h);
      const std::vector<std::uint8_t>& gt_lo = gts_[2 * p].share(h);
      const std::vector<std::uint8_t>& eq_lo = eqs_[2 * p].share(h);
      l.insert(l.end(), eq_hi.begin(), eq_hi.end());
      r.insert(r.end(), gt_lo.begin(), gt_lo.end());
      l.insert(l.end(), eq_hi.begin(), eq_hi.end());
      r.insert(r.end(), eq_lo.begin(), eq_lo.end());
    }
  }
  and_.stage(ctx, lhs, rhs, std::move(mat_.levels[level_]));
  wait_ = CompareWait::bits;
}

void StagedMillionaire::step(TwoPartyContext& ctx) {
  switch (wait_) {
    case CompareWait::ot: {
      // Per-digit shared (gt, eq) vectors, index 0 = least significant:
      // party 0's leaf shares are its OT outputs, party 1's the masks it
      // sent its tables under.
      gts_.assign(static_cast<std::size_t>(digits_), BitShared{});
      eqs_.assign(static_cast<std::size_t>(digits_), BitShared{});
      for (int p = 0; p < 2; ++p) {
        if (!ctx.runs(p)) continue;
        for (int d = 0; d < digits_; ++d) {
          std::vector<std::uint8_t>& gt = gts_[d].share(p);
          std::vector<std::uint8_t>& eq = eqs_[d].share(p);
          gt.resize(n_);
          eq.resize(n_);
          for (std::size_t t = 0; t < n_; ++t) {
            const std::size_t idx = t * digits_ + d;
            gt[t] = p == 0 ? leaf_[idx] & 1 : mat_.r_lt[idx];
            eq[t] = p == 0 ? (leaf_[idx] >> 1) & 1 : mat_.r_eq[idx];
          }
        }
      }
      if (gts_.size() > 1) {
        stage_level(ctx);
      } else {
        wait_ = CompareWait::done;
      }
      return;
    }
    case CompareWait::bits: {
      const BitShared prod = and_.finish(ctx);
      const std::size_t pairs = gts_.size() / 2;
      std::vector<BitShared> next_gt, next_eq;
      next_gt.reserve(pairs + 1);
      next_eq.reserve(pairs + 1);
      for (std::size_t p = 0; p < pairs; ++p) {
        BitShared gated_gt, gated_eq;
        for (int h = 0; h < 2; ++h) {
          if (!ctx.runs(h)) continue;
          gated_gt.share(h) = slice_bytes(prod.share(h), 2 * p * n_, (2 * p + 1) * n_);
          gated_eq.share(h) = slice_bytes(prod.share(h), (2 * p + 1) * n_, (2 * p + 2) * n_);
        }
        next_gt.push_back(xor_bits(ctx, gts_[2 * p + 1], gated_gt));
        next_eq.push_back(std::move(gated_eq));
      }
      if (gts_.size() % 2 == 1) {  // odd count: most-significant digit carries up
        next_gt.push_back(std::move(gts_.back()));
        next_eq.push_back(std::move(eqs_.back()));
      }
      gts_ = std::move(next_gt);
      eqs_ = std::move(next_eq);
      ++level_;
      if (gts_.size() > 1) {
        stage_level(ctx);
      } else {
        wait_ = CompareWait::done;
      }
      return;
    }
    case CompareWait::opens:
    case CompareWait::done:
      throw std::logic_error("StagedMillionaire::step: nothing to resume");
  }
}

BitShared millionaire_gt(TwoPartyContext& ctx, const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b, int nbits) {
  StagedMillionaire m;
  run_staged(ctx, m, a, b, nbits,
             draw_millionaire_material(ctx, ctx.runs(0) ? a.size() : b.size(), nbits));
  return std::move(m.result());
}

MillionaireMaterial draw_drelu_material(TwoPartyContext& ctx, std::size_t n) {
  return draw_millionaire_material(ctx, n, drelu_millionaire_bits(ctx.ring().bits));
}

void StagedDrelu::begin(TwoPartyContext& ctx, const Shared& x, MillionaireMaterial material) {
  const std::size_t n = x.size();
  const int lo_bits = drelu_millionaire_bits(ctx.ring().bits);
  const std::uint64_t lo_mask = (1ULL << lo_bits) - 1;

  // Each party reduces its share to the w = lo_bits + 1 window: lo() keeps
  // the bits below the window's sign bit, top_ holds that sign bit.
  // carry = [lo(x0) + lo(x1) >= 2^(w-1)] = [lo(x0) > 2^(w-1)-1 - lo(x1)]:
  // party 0 compares lo(x0), party 1 the complement of lo(x1).
  std::vector<std::uint64_t> in[2];
  for (int p = 0; p < 2; ++p) {
    top_[p].clear();
    if (!ctx.runs(p)) continue;
    in[p].resize(n);
    top_[p].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t lo = x.share(p)[i] & lo_mask;
      in[p][i] = p == 0 ? lo : lo_mask - lo;
      top_[p][i] = static_cast<std::uint8_t>((x.share(p)[i] >> lo_bits) & 1);
    }
  }
  folded_ = false;
  mill_ = StagedMillionaire{};
  mill_.begin(ctx, in[0], in[1], lo_bits, std::move(material));
}

CompareWait StagedDrelu::waiting() const noexcept { return mill_.waiting(); }

void StagedDrelu::step(TwoPartyContext& ctx) {
  mill_.step(ctx);
  if (mill_.waiting() == CompareWait::done && !folded_) {
    // msb_w(x) = msb_w(x0) ^ msb_w(x1) ^ carry; DReLU = NOT msb_w — each
    // party folds its own window sign bit, party 0 flips for the negation.
    BitShared& carry = mill_.result();
    for (int p = 0; p < 2; ++p) {
      if (!ctx.runs(p)) continue;
      for (std::size_t i = 0; i < carry.size(); ++i) {
        carry.share(p)[i] ^= top_[p][i] ^ (p == 0 ? 1 : 0);
      }
    }
    folded_ = true;
  }
}

DreluMuxMaterial draw_drelu_mux_material(TwoPartyContext& ctx, std::size_t n,
                                         std::size_t payloads) {
  DreluMuxMaterial mat;
  mat.mill = draw_drelu_material(ctx, n);
  mat.tail = ctx.bilinear_triple(BilinearSpec::bit_injection(n, payloads));
  return mat;
}

void MuxRound::stage(TwoPartyContext& ctx, const BitShared& sel,
                     const std::vector<Shared>& payloads, BilinearTriple t) {
  const std::size_t n = sel.size();
  if (payloads.empty() || t.spec != BilinearSpec::bit_injection(n, payloads.size())) {
    throw std::invalid_argument("mux: not a bit-injection triple of the selector's shape");
  }
  t_ = std::move(t);
  // c = sel ⊕ r opens as packed bits — r's XOR half is the low bit of its
  // additive share — and e = v − a (payload-major, like A) as ring
  // elements, in one exchange.
  const std::uint64_t mask = ctx.ring().mask();
  BitShared c;
  Shared e;
  for (int p = 0; p < 2; ++p) {
    if (!ctx.runs(p)) continue;
    const RingVec& r = t_.b.share(p);
    if (r.size() != n) throw std::invalid_argument("mux: bit-injection triple size mismatch");
    std::vector<std::uint8_t>& cp = c.share(p);
    cp.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cp[i] = sel.share(p)[i] ^ static_cast<std::uint8_t>(r[i] & 1);
    }
    RingVec& ep = e.share(p);
    ep.resize(payloads.size() * n);
    for (std::size_t j = 0; j < payloads.size(); ++j) {
      if (payloads[j].size() != n) throw std::invalid_argument("mux: payload size mismatch");
      kern::sub(ep.data() + j * n, payloads[j].share(p).data(), t_.a.share(p).data() + j * n, n,
                mask);
    }
  }
  ctx.opens().stage(std::move(c), &c_);
  ctx.opens().stage(std::move(e), &e_);
}

std::vector<Shared> MuxRound::finish(const TwoPartyContext& ctx) {
  // b = c ⊕ r = c + (1 − 2c)·r, so with v = e + a:
  //   [b·v] = [i==0]·c·e + c·[a] + (1 − 2c)·(e·[r] + [r·a]).
  // c = 0 leaves e·[r] + [r·a]; c = 1 gives [i==0]·e + [a] − e·[r] − [r·a].
  const std::size_t n = c_.size();
  const auto payloads = static_cast<std::size_t>(t_.spec.batch);
  const std::uint64_t mask = ctx.ring().mask();
  std::vector<Shared> out(payloads);
  for (int p = 0; p < 2; ++p) {
    if (!ctx.runs(p)) continue;
    const std::uint64_t* a = t_.a.share(p).data();
    const std::uint64_t* r = t_.b.share(p).data();
    const std::uint64_t* ra = t_.z.share(p).data();
    for (std::size_t j = 0; j < payloads; ++j) {
      RingVec& o = out[j].share(p);
      o.resize(n);
      const std::size_t off = j * n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t e = e_[off + i];
        const std::uint64_t gated = e * r[i] + ra[off + i];
        const std::uint64_t flipped = (p == 0 ? e : 0) + a[off + i] - gated;
        o[i] = (c_[i] != 0 ? flipped : gated) & mask;
      }
    }
  }
  return out;
}

void StagedDreluMux::begin(TwoPartyContext& ctx, std::vector<Shared> payloads,
                           DreluMuxMaterial material) {
  if (payloads.empty() || material.tail.spec.batch != static_cast<int>(payloads.size())) {
    throw std::invalid_argument("StagedDreluMux: one tail mask per payload");
  }
  v_ = std::move(payloads);
  tail_t_ = std::move(material.tail);
  tail_ = MuxRound{};
  drelu_ = StagedDrelu{};
  drelu_.begin(ctx, v_.front(), std::move(material.mill));
  phase_ = Phase::drelu;
}

CompareWait StagedDreluMux::waiting() const noexcept {
  switch (phase_) {
    case Phase::drelu:
      return drelu_.waiting();
    case Phase::mux:
      return CompareWait::opens;
    case Phase::done:
      return CompareWait::done;
  }
  return CompareWait::done;
}

void StagedDreluMux::step(TwoPartyContext& ctx) {
  switch (phase_) {
    case Phase::drelu: {
      drelu_.step(ctx);
      if (drelu_.waiting() != CompareWait::done) return;
      tail_.stage(ctx, drelu_.result(), v_, std::move(tail_t_));
      phase_ = Phase::mux;
      return;
    }
    case Phase::mux:
      out_ = tail_.finish(ctx);
      phase_ = Phase::done;
      return;
    case Phase::done:
      throw std::logic_error("StagedDreluMux::step: nothing to resume");
  }
}

BitShared drelu(TwoPartyContext& ctx, const Shared& x) {
  // One millionaire code path: the free function is the staged phase
  // machine run as a one-instance group.  The material draw order — leaf
  // masks, the leaf random OTs, then one bit triple per AND level — is the
  // request stream ir::derive_plan derives.
  StagedDrelu d;
  run_staged(ctx, d, x, draw_drelu_material(ctx, x.size()));
  return std::move(d.result());
}

BitShared msb(TwoPartyContext& ctx, const Shared& x) {
  // DReLU = NOT msb, so msb = NOT DReLU; the double negation costs one
  // local share flip and keeps a single comparison implementation.
  return not_bits(drelu(ctx, x));
}

Shared mux(TwoPartyContext& ctx, const BitShared& sel, const Shared& x) {
  MuxRound r;
  r.stage(ctx, sel, {x}, ctx.bilinear_triple(BilinearSpec::bit_injection(x.size(), 1)));
  ctx.opens().flush();
  return std::move(r.finish(ctx).front());
}

namespace {

/// Runs a one-payload gated select to completion: v ⊙ DReLU(v).
Shared drelu_mux(TwoPartyContext& ctx, Shared v) {
  StagedDreluMux m;
  DreluMuxMaterial mat = draw_drelu_mux_material(ctx, v.size(), 1);
  std::vector<Shared> payloads;
  payloads.push_back(std::move(v));
  run_staged(ctx, m, std::move(payloads), std::move(mat));
  return std::move(m.result().front());
}

}  // namespace

Shared relu(TwoPartyContext& ctx, const Shared& x) { return drelu_mux(ctx, x); }

Shared max_elem(TwoPartyContext& ctx, const Shared& a, const Shared& b) {
  return add(ctx, b, drelu_mux(ctx, sub(ctx, a, b)));
}

std::vector<std::size_t> tournament_level_pairs(std::size_t entries) {
  std::vector<std::size_t> levels;
  while (entries > 1) {
    levels.push_back(entries / 2);
    entries = entries / 2 + entries % 2;
  }
  return levels;
}

}  // namespace pasnet::crypto
