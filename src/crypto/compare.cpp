#include "crypto/compare.hpp"

#include <cstring>
#include <stdexcept>

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

std::vector<std::uint8_t> pack_bits(const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bytes[i / 8] |= static_cast<std::uint8_t>((bits[i] & 1) << (i % 8));
  }
  return bytes;
}

std::vector<std::uint8_t> unpack_bits(const std::vector<std::uint8_t>& bytes,
                                      std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (bytes[i / 8] >> (i % 8)) & 1;
  return bits;
}

}  // namespace

std::vector<std::uint8_t> reconstruct_bits(const BitShared& v) {
  std::vector<std::uint8_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v.b0[i] ^ v.b1[i];
  return out;
}

BitShared xor_bits(const BitShared& x, const BitShared& y) {
  if (x.size() != y.size()) throw std::invalid_argument("xor_bits: size mismatch");
  BitShared out;
  out.b0.resize(x.size());
  out.b1.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.b0[i] = x.b0[i] ^ y.b0[i];
    out.b1[i] = x.b1[i] ^ y.b1[i];
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
  if (!coalescing_) {
    // Immediate mode never parks the stage, so a failed exchange cannot
    // leave a dangling output pointer behind (same contract as OpenBuffer).
    const Pending p{std::move(x), out};
    open_batch(&p, 1);
    return;
  }
  pending_.push_back(Pending{std::move(x), out});
}

void BitOpenBuffer::flush() {
  if (pending_.empty()) return;
  open_batch(pending_.data(), pending_.size());
  pending_.clear();
}

void BitOpenBuffer::open_batch(const Pending* batch, std::size_t count) {
  // One symmetric exchange for every stage of the batch; each stage's bits
  // pack into their own byte-aligned chunk so coalescing never changes the
  // transcript size, only the exchange count.
  //
  // Each batch is one coalesced AND-tree level opening (or one immediate
  // bit opening) — the protocol event the and_levels counter tracks.
  ctx_.counters().add(obs::Counter::and_levels, 1);
  std::vector<std::uint8_t> msg0, msg1;
  for (std::size_t i = 0; i < count; ++i) {
    const auto p0 = pack_bits(batch[i].x.b0);
    const auto p1 = pack_bits(batch[i].x.b1);
    msg0.insert(msg0.end(), p0.begin(), p0.end());
    msg1.insert(msg1.end(), p1.begin(), p1.end());
  }
  std::vector<std::uint8_t> from0, from1;
  ctx_.exchange([&] { ctx_.chan(0).send_bytes(msg0); },
                [&] { ctx_.chan(1).send_bytes(msg1); },
                [&] { from1 = ctx_.chan(0).recv_bytes(); },
                [&] { from0 = ctx_.chan(1).recv_bytes(); });
  // Reconstruct from the local share and the peer's received packed bits.
  // In the in-process modes both closures ran, so either pairing works and
  // we keep the historical (b0, from1) one; a remote context only has its
  // own half live.
  const bool local_is_1 = ctx_.local_party() == 1;
  const std::vector<std::uint8_t>& peer_msg = local_is_1 ? from0 : from1;
  if (peer_msg.size() != msg0.size()) {
    throw FrameLengthError("BitOpenBuffer::flush: bit-opening frame has the wrong length");
  }
  std::size_t byte_off = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = batch[i].x.size();
    const std::vector<std::uint8_t> peer =
        unpack_bits(slice_bytes(peer_msg, byte_off, byte_off + (n + 7) / 8), n);
    const std::vector<std::uint8_t>& own = local_is_1 ? batch[i].x.b1 : batch[i].x.b0;
    std::vector<std::uint8_t>& out = *batch[i].out;
    out.resize(n);
    for (std::size_t j = 0; j < n; ++j) out[j] = own[j] ^ peer[j];
    byte_off += (n + 7) / 8;
  }
}

void BitOpenBuffer::set_coalescing(bool on) {
  if (!pending_.empty()) {
    throw std::logic_error("BitOpenBuffer::set_coalescing: stages pending (flush first)");
  }
  coalescing_ = on;
}

void AndRound::stage(TwoPartyContext& ctx, const BitShared& x, const BitShared& y,
                     BitTriple t) {
  if (x.size() != y.size()) throw std::invalid_argument("and_bits: size mismatch");
  const std::size_t n = x.size();
  if (t.a0.size() != n) throw std::invalid_argument("and_bits: triple size mismatch");
  t_ = std::move(t);
  // d = x ^ a, e = y ^ b; both parties open (one parallel round once the
  // buffer flushes).  d and e concatenate into one 2n-bit stage, exactly
  // the historical and_bits message.
  BitShared de;
  de.b0.resize(2 * n);
  de.b1.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    de.b0[i] = x.b0[i] ^ t_.a0[i];
    de.b0[n + i] = y.b0[i] ^ t_.b0[i];
    de.b1[i] = x.b1[i] ^ t_.a1[i];
    de.b1[n + i] = y.b1[i] ^ t_.b1[i];
  }
  ctx.bit_opens().stage(std::move(de), &de_);
}

BitShared AndRound::finish() {
  const std::size_t n = t_.a0.size();
  BitShared out;
  out.b0.resize(n);
  out.b1.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t d = de_[i];
    const std::uint8_t e = de_[n + i];
    // z_i = [i==0]·(d&e) ^ (d & b_i) ^ (e & a_i) ^ c_i
    out.b0[i] = (d & e) ^ (d & t_.b0[i]) ^ (e & t_.a0[i]) ^ t_.c0[i];
    out.b1[i] = (d & t_.b1[i]) ^ (e & t_.a1[i]) ^ t_.c1[i];
  }
  return out;
}

BitShared and_bits(TwoPartyContext& ctx, const BitShared& x, const BitShared& y) {
  if (x.size() != y.size()) throw std::invalid_argument("and_bits: size mismatch");
  AndRound r;
  r.stage(ctx, x, y, ctx.bit_triple(x.size()));
  ctx.bit_opens().flush();
  return r.finish();
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
  mat.r_lt.resize(n * digits);
  mat.r_eq.resize(n * digits);
  for (std::size_t idx = 0; idx < n * static_cast<std::size_t>(digits); ++idx) {
    const std::uint64_t rnd = ctx.prng(1).next_u64();
    mat.r_lt[idx] = rnd & 1;
    mat.r_eq[idx] = (rnd >> 1) & 1;
  }
  mat.leaf_ots = ctx.random_ot(n * digits, /*sender=*/1);
  for (const int mult : millionaire_and_level_multipliers(nbits)) {
    mat.levels.push_back(ctx.bit_triple(static_cast<std::size_t>(mult) * n));
  }
  return mat;
}

void StagedMillionaire::begin(TwoPartyContext& ctx, const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b, int nbits,
                              MillionaireMaterial material) {
  if (a.size() != b.size()) throw std::invalid_argument("millionaire_gt: size mismatch");
  if (nbits < 1 || nbits > 63) throw std::invalid_argument("millionaire_gt: bad width");
  n_ = a.size();
  digits_ = millionaire_digits(nbits);
  level_ = 0;
  mat_ = std::move(material);
  if (mat_.r_lt.size() != n_ * static_cast<std::size_t>(digits_)) {
    throw std::invalid_argument("millionaire_gt: material size mismatch");
  }

  // Leaf layer: one (1,4)-OT per (element, digit).  Party 1 is the sender
  // and keeps the pre-drawn random bits (r_lt, r_eq) as its leaf shares;
  // party 0 receives the masked (lt, eq) pair for its digit value.
  std::vector<std::array<std::uint8_t, kOtFanIn>> tables(n_ * digits_);
  std::vector<std::uint8_t> choices(n_ * digits_);
  for (std::size_t t = 0; t < n_; ++t) {
    for (int d = 0; d < digits_; ++d) {
      const std::size_t idx = t * digits_ + d;
      const auto a_dig = static_cast<std::uint8_t>((a[t] >> (2 * d)) & 3);
      const auto b_dig = static_cast<std::uint8_t>((b[t] >> (2 * d)) & 3);
      for (std::uint8_t j = 0; j < kOtFanIn; ++j) {
        const std::uint8_t gt = (j > b_dig) ? 1 : 0;
        const std::uint8_t eq = (j == b_dig) ? 1 : 0;
        tables[idx][j] = static_cast<std::uint8_t>(
            (gt ^ mat_.r_lt[idx]) |
            (static_cast<std::uint8_t>(eq ^ mat_.r_eq[idx]) << 1));
      }
      choices[idx] = a_dig;
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
  lhs.b0.reserve(2 * pairs * n_);
  lhs.b1.reserve(2 * pairs * n_);
  rhs.b0.reserve(2 * pairs * n_);
  rhs.b1.reserve(2 * pairs * n_);
  for (std::size_t p = 0; p < pairs; ++p) {
    const BitShared& eq_hi = eqs_[2 * p + 1];
    const BitShared& gt_lo = gts_[2 * p];
    const BitShared& eq_lo = eqs_[2 * p];
    lhs.b0.insert(lhs.b0.end(), eq_hi.b0.begin(), eq_hi.b0.end());
    lhs.b1.insert(lhs.b1.end(), eq_hi.b1.begin(), eq_hi.b1.end());
    rhs.b0.insert(rhs.b0.end(), gt_lo.b0.begin(), gt_lo.b0.end());
    rhs.b1.insert(rhs.b1.end(), gt_lo.b1.begin(), gt_lo.b1.end());
    lhs.b0.insert(lhs.b0.end(), eq_hi.b0.begin(), eq_hi.b0.end());
    lhs.b1.insert(lhs.b1.end(), eq_hi.b1.begin(), eq_hi.b1.end());
    rhs.b0.insert(rhs.b0.end(), eq_lo.b0.begin(), eq_lo.b0.end());
    rhs.b1.insert(rhs.b1.end(), eq_lo.b1.begin(), eq_lo.b1.end());
  }
  and_.stage(ctx, lhs, rhs, std::move(mat_.levels[level_]));
  wait_ = CompareWait::bits;
}

void StagedMillionaire::step(TwoPartyContext& ctx) {
  switch (wait_) {
    case CompareWait::ot: {
      // Per-digit shared (gt, eq) vectors, index 0 = least significant.
      gts_.assign(static_cast<std::size_t>(digits_), BitShared{});
      eqs_.assign(static_cast<std::size_t>(digits_), BitShared{});
      for (int d = 0; d < digits_; ++d) {
        gts_[d].b0.resize(n_);
        gts_[d].b1.resize(n_);
        eqs_[d].b0.resize(n_);
        eqs_[d].b1.resize(n_);
        for (std::size_t t = 0; t < n_; ++t) {
          const std::size_t idx = t * digits_ + d;
          gts_[d].b0[t] = leaf_[idx] & 1;
          gts_[d].b1[t] = mat_.r_lt[idx];
          eqs_[d].b0[t] = (leaf_[idx] >> 1) & 1;
          eqs_[d].b1[t] = mat_.r_eq[idx];
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
      const BitShared prod = and_.finish();
      const std::size_t pairs = gts_.size() / 2;
      std::vector<BitShared> next_gt, next_eq;
      next_gt.reserve(pairs + 1);
      next_eq.reserve(pairs + 1);
      for (std::size_t p = 0; p < pairs; ++p) {
        BitShared gated_gt, gated_eq;
        gated_gt.b0 = slice_bytes(prod.b0, 2 * p * n_, (2 * p + 1) * n_);
        gated_gt.b1 = slice_bytes(prod.b1, 2 * p * n_, (2 * p + 1) * n_);
        gated_eq.b0 = slice_bytes(prod.b0, (2 * p + 1) * n_, (2 * p + 2) * n_);
        gated_eq.b1 = slice_bytes(prod.b1, (2 * p + 1) * n_, (2 * p + 2) * n_);
        next_gt.push_back(xor_bits(gts_[2 * p + 1], gated_gt));
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
  if (a.size() != b.size()) throw std::invalid_argument("millionaire_gt: size mismatch");
  StagedMillionaire m;
  m.begin(ctx, a, b, nbits, draw_millionaire_material(ctx, a.size(), nbits));
  while (m.waiting() != CompareWait::done) {
    flush_compare_buffers(ctx, m.waiting());
    m.step(ctx);
  }
  return std::move(m.result());
}

MillionaireMaterial draw_drelu_material(TwoPartyContext& ctx, std::size_t n) {
  return draw_millionaire_material(ctx, n, ctx.ring().bits - 1);
}

void StagedDrelu::begin(TwoPartyContext& ctx, const Shared& x, MillionaireMaterial material) {
  const RingConfig& rc = ctx.ring();
  const std::size_t n = x.size();
  const int lo_bits = rc.bits - 1;
  const std::uint64_t lo_mask = (1ULL << lo_bits) - 1;

  // carry = [lo(x0) + lo(x1) >= 2^(b-1)] = [lo(x0) > 2^(b-1)-1 - lo(x1)]
  std::vector<std::uint64_t> a(n), b(n);
  m0_.resize(n);
  m1_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = x.s0[i] & lo_mask;
    b[i] = lo_mask - (x.s1[i] & lo_mask);
    m0_[i] = static_cast<std::uint8_t>((x.s0[i] >> lo_bits) & 1);
    m1_[i] = static_cast<std::uint8_t>((x.s1[i] >> lo_bits) & 1);
  }
  folded_ = false;
  mill_ = StagedMillionaire{};
  mill_.begin(ctx, a, b, lo_bits, std::move(material));
}

CompareWait StagedDrelu::waiting() const noexcept { return mill_.waiting(); }

void StagedDrelu::step(TwoPartyContext& ctx) {
  mill_.step(ctx);
  if (mill_.waiting() == CompareWait::done && !folded_) {
    // msb(x) = msb(x0) ^ msb(x1) ^ carry; DReLU = NOT msb — each party
    // folds its own top bit, party 0 flips for the negation.
    BitShared& carry = mill_.result();
    for (std::size_t i = 0; i < carry.size(); ++i) {
      carry.b0[i] ^= m0_[i] ^ 1;
      carry.b1[i] ^= m1_[i];
    }
    folded_ = true;
  }
}

DreluMuxMaterial draw_drelu_mux_material(TwoPartyContext& ctx, std::size_t n,
                                         std::size_t payloads) {
  DreluMuxMaterial mat;
  mat.mill = draw_drelu_material(ctx, n);
  mat.b2a = ctx.elem_triple(n);
  for (std::size_t p = 0; p < payloads; ++p) mat.mux.push_back(ctx.elem_triple(n));
  return mat;
}

void StagedDreluMux::begin(TwoPartyContext& ctx, std::vector<Shared> payloads,
                           DreluMuxMaterial material) {
  if (payloads.empty() || material.mux.size() != payloads.size()) {
    throw std::invalid_argument("StagedDreluMux: one mux triple per payload");
  }
  v_ = std::move(payloads);
  b2a_t_ = std::move(material.b2a);
  mux_t_ = std::move(material.mux);
  b2a_ = B2aRound{};
  mux_mul_.assign(v_.size(), MulRound{});
  drelu_ = StagedDrelu{};
  drelu_.begin(ctx, v_.front(), std::move(material.mill));
  phase_ = Phase::drelu;
}

CompareWait StagedDreluMux::waiting() const noexcept {
  switch (phase_) {
    case Phase::drelu:
      return drelu_.waiting();
    case Phase::b2a:
    case Phase::mux:
      return CompareWait::opens;
    case Phase::done:
      return CompareWait::done;
  }
  return CompareWait::done;
}

void StagedDreluMux::step(TwoPartyContext& ctx) {
  const RingConfig& rc = ctx.ring();
  switch (phase_) {
    case Phase::drelu: {
      drelu_.step(ctx);
      if (drelu_.waiting() != CompareWait::done) return;
      b2a_.stage(ctx, drelu_.result(), std::move(b2a_t_));
      phase_ = Phase::b2a;
      return;
    }
    case Phase::b2a: {
      const Shared bit = b2a_.finish(rc);
      // Mux: out_p = v_p ⊙ bit (same operand order as crypto::mux); every
      // payload's multiply stages before the flush, so they open together.
      for (std::size_t p = 0; p < v_.size(); ++p) {
        mux_mul_[p].stage(ctx, std::move(v_[p]), bit, std::move(mux_t_[p]));
      }
      phase_ = Phase::mux;
      return;
    }
    case Phase::mux:
      out_.clear();
      for (MulRound& m : mux_mul_) out_.push_back(m.finish(rc));
      phase_ = Phase::done;
      return;
    case Phase::done:
      throw std::logic_error("StagedDreluMux::step: nothing to resume");
  }
}

BitShared drelu(TwoPartyContext& ctx, const Shared& x) {
  // One millionaire code path: the free function is the staged phase
  // machine run as a one-instance group (begin + flush-whatever-it-waits-on
  // + step, exactly what the IR executor does for a grouped instance).
  // The material draw order — leaf masks, the leaf random OTs, then one
  // bit triple per AND level — is the request stream ir::derive_plan
  // derives.
  StagedDrelu d;
  d.begin(ctx, x, draw_drelu_material(ctx, x.size()));
  while (d.waiting() != CompareWait::done) {
    flush_compare_buffers(ctx, d.waiting());
    d.step(ctx);
  }
  return std::move(d.result());
}

BitShared msb(TwoPartyContext& ctx, const Shared& x) {
  // DReLU = NOT msb, so msb = NOT DReLU; the double negation costs one
  // local share flip and keeps a single comparison implementation.
  return not_bits(drelu(ctx, x));
}

void B2aRound::stage(TwoPartyContext& ctx, const BitShared& v, ElemTriple t) {
  const std::size_t n = v.size();
  v0_.resize(n);
  v1_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    v0_[i] = v.b0[i];
    v1_[i] = v.b1[i];
  }
  mul_.stage(ctx, trivial_share(v0_, 0), trivial_share(v1_, 1), std::move(t));
}

Shared B2aRound::finish(const RingConfig& rc) {
  // b = v0 + v1 - 2·v0·v1 (the trivial sharings add to (v0, v1)).
  const Shared p = mul_.finish(rc);
  Shared sum;
  sum.s0 = std::move(v0_);
  sum.s1 = std::move(v1_);
  return sub(sum, scale(p, 2, rc), rc);
}

Shared b2a(TwoPartyContext& ctx, const BitShared& v) {
  B2aRound r;
  r.stage(ctx, v, ctx.elem_triple(v.size()));
  ctx.opens().flush();
  return r.finish(ctx.ring());
}

Shared mux(TwoPartyContext& ctx, const BitShared& sel, const Shared& x) {
  return mul_elem(ctx, x, b2a(ctx, sel));
}

namespace {

/// Runs a one-payload gated select to completion: v ⊙ DReLU(v).
Shared drelu_mux(TwoPartyContext& ctx, Shared v) {
  StagedDreluMux m;
  DreluMuxMaterial mat = draw_drelu_mux_material(ctx, v.size(), 1);
  std::vector<Shared> payloads;
  payloads.push_back(std::move(v));
  m.begin(ctx, std::move(payloads), std::move(mat));
  while (m.waiting() != CompareWait::done) {
    flush_compare_buffers(ctx, m.waiting());
    m.step(ctx);
  }
  return std::move(m.result().front());
}

}  // namespace

Shared relu(TwoPartyContext& ctx, const Shared& x) { return drelu_mux(ctx, x); }

Shared max_elem(TwoPartyContext& ctx, const Shared& a, const Shared& b) {
  const RingConfig& rc = ctx.ring();
  return add(b, drelu_mux(ctx, sub(a, b, rc)), rc);
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
