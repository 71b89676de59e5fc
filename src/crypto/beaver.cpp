#include "crypto/beaver.hpp"

#include <stdexcept>

#include "crypto/ring_kernels.hpp"

namespace pasnet::crypto {

namespace {

RingVec random_ring_vec(Prng& prng, std::size_t n, const RingConfig& rc) {
  RingVec v(n);
  for (auto& e : v) e = prng.next_u64() & rc.mask();
  return v;
}

RingVec add_vecs(const RingVec& a, const RingVec& b, const RingConfig& rc) {
  RingVec out(a.size());
  kern::add(out.data(), a.data(), b.data(), a.size(), rc.mask());
  return out;
}

}  // namespace

RingVec TripleDealer::complete_half(const RingVec& base, const RingVec& x_own,
                                    const RingVec& x_peer) const {
  if (base.size() != x_own.size()) {
    throw std::invalid_argument("bilinear_triple: nz does not match f's output size");
  }
  RingVec out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = (base[i] + x_own[i] - x_peer[i]) & rc_.mask();
  }
  return out;
}

ElemHalf draw_elem_half(Prng& prng, std::size_t n, const RingConfig& rc) {
  ElemHalf h;
  h.a = random_ring_vec(prng, n, rc);
  h.b = random_ring_vec(prng, n, rc);
  h.x = random_ring_vec(prng, n, rc);
  return h;
}

SquareHalf draw_square_half(Prng& prng, int party, std::size_t n, const RingConfig& rc) {
  SquareHalf h;
  h.a = random_ring_vec(prng, n, rc);
  if (party == 0) h.x = random_ring_vec(prng, n, rc);
  return h;
}

MatmulHalf draw_matmul_half(Prng& prng, std::size_t m, std::size_t k, std::size_t n,
                            const RingConfig& rc) {
  MatmulHalf h;
  h.a = random_ring_vec(prng, m * k, rc);
  h.b = random_ring_vec(prng, k * n, rc);
  h.x = random_ring_vec(prng, m * n, rc);
  return h;
}

BilinearHalf draw_bilinear_half(Prng& prng, std::size_t na, std::size_t nb, std::size_t nz,
                                const RingConfig& rc) {
  BilinearHalf h;
  h.a = random_ring_vec(prng, na, rc);
  h.b = random_ring_vec(prng, nb, rc);
  h.x = random_ring_vec(prng, nz, rc);
  return h;
}

BitHalf draw_bit_half(Prng& prng, std::size_t n) {
  BitHalf h;
  h.a.resize(n);
  h.b.resize(n);
  h.x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = prng.next_u64();
    h.a[i] = r & 1;
    h.b[i] = (r >> 1) & 1;
    h.x[i] = (r >> 2) & 1;
  }
  return h;
}

RotHalf draw_rot_half(Prng& prng, bool sender, std::size_t n) {
  RotHalf h;
  if (sender) {
    h.pads.resize(4 * n);
  } else {
    h.choice.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = prng.next_u64();
    if (sender) {
      for (int j = 0; j < 4; ++j) h.pads[4 * i + j] = static_cast<std::uint8_t>(r >> (8 * j));
    } else {
      h.choice[i] = static_cast<std::uint8_t>(r & 3);
    }
  }
  return h;
}

ElemTriple TripleDealer::elem_triple(std::size_t n) {
  ElemHalf h[2] = {draw_elem_half(prng0_, n, rc_), draw_elem_half(prng1_, n, rc_)};
  const RingVec a = add_vecs(h[0].a, h[1].a, rc_);
  ElemTriple t;
  for (int p = 0; p < 2; ++p) {
    if (serves(p)) t.z.share(p) = complete_half(mul_vec(a, h[p].b, rc_), h[p].x, h[1 - p].x);
  }
  take_masks(h, t.a, t.b);
  return t;
}

SquarePair TripleDealer::square_pair(std::size_t n) {
  SquareHalf h[2] = {draw_square_half(prng0_, 0, n, rc_), draw_square_half(prng1_, 1, n, rc_)};
  // z = (a0+a1)²: party 0 keeps a0² + 2·x0, party 1 keeps
  // a1² + 2·(a0⊙a1 − x0) — a single cross term, so one OT direction
  // suffices in the 2PC generator.
  SquarePair sp;
  for (int p = 0; p < 2; ++p) {
    if (!serves(p)) continue;
    const RingVec term = p == 0 ? h[0].x : sub_vec(mul_vec(h[0].a, h[1].a, rc_), h[0].x, rc_);
    RingVec z = mul_vec(h[p].a, h[p].a, rc_);
    for (std::size_t i = 0; i < n; ++i) z[i] = (z[i] + 2 * term[i]) & rc_.mask();
    sp.z.share(p) = std::move(z);
  }
  for (int p = 0; p < 2; ++p) {
    if (serves(p)) sp.a.share(p) = std::move(h[p].a);
  }
  return sp;
}

MatmulTriple TripleDealer::matmul_triple(std::size_t m, std::size_t k, std::size_t n) {
  MatmulHalf h[2] = {draw_matmul_half(prng0_, m, k, n, rc_),
                     draw_matmul_half(prng1_, m, k, n, rc_)};
  const RingVec a = add_vecs(h[0].a, h[1].a, rc_);
  MatmulTriple t;
  t.m = m;
  t.k = k;
  t.n = n;
  for (int p = 0; p < 2; ++p) {
    if (serves(p)) {
      t.z.share(p) = complete_half(ring_matmul(a, h[p].b, m, k, n, rc_), h[p].x, h[1 - p].x);
    }
  }
  take_masks(h, t.a, t.b);
  return t;
}

BitTriple TripleDealer::bit_triple(std::size_t n) {
  BitHalf h[2] = {draw_bit_half(prng0_, n), draw_bit_half(prng1_, n)};
  BitTriple t;
  // c_p = (a_p & b_p) ^ x_p ^ (b_p & a_peer) ^ x_peer; the x's cancel in
  // c0 ^ c1 = (a0^a1) & (b0^b1).
  for (int p = 0; p < 2; ++p) {
    if (!serves(p)) continue;
    const BitHalf& own = h[p];
    const BitHalf& peer = h[1 - p];
    std::vector<std::uint8_t>& c = t.c(p);
    c.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = (own.a[i] & own.b[i]) ^ own.x[i] ^ (own.b[i] & peer.a[i]) ^ peer.x[i];
    }
  }
  for (int p = 0; p < 2; ++p) {
    if (!serves(p)) continue;
    t.a(p) = std::move(h[p].a);
    t.b(p) = std::move(h[p].b);
  }
  return t;
}

RandomOt TripleDealer::random_ot(std::size_t n, int sender) {
  if (sender != 0 && sender != 1) throw std::invalid_argument("random_ot: sender must be 0 or 1");
  RotHalf s = draw_rot_half(sender == 0 ? rot_prng0_ : rot_prng1_, true, n);
  RotHalf r = draw_rot_half(sender == 0 ? rot_prng1_ : rot_prng0_, false, n);
  RandomOt ot;
  ot.sender = sender;
  ot.chosen.resize(n);
  for (std::size_t i = 0; i < n; ++i) ot.chosen[i] = s.pads[4 * i + r.choice[i]];
  ot.pads = std::move(s.pads);
  ot.choice = std::move(r.choice);
  return ot;
}

RingVec ring_matmul(const RingVec& a, const RingVec& b, std::size_t m, std::size_t k,
                    std::size_t n, const RingConfig& rc) {
  if (a.size() != m * k || b.size() != k * n) {
    throw std::invalid_argument("ring_matmul: shape mismatch");
  }
  RingVec out(m * n);
  kern::gemm(out.data(), a.data(), b.data(), m, k, n, rc.mask());
  return out;
}

}  // namespace pasnet::crypto
