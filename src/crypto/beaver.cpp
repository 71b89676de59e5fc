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

/// z_p = base_p + x_p − x_peer (the cross-term completion shared by every
/// arithmetic triple kind).
RingVec complete_half(const RingVec& base, const RingVec& x_own, const RingVec& x_peer,
                      const RingConfig& rc) {
  RingVec out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = (base[i] + x_own[i] - x_peer[i]) & rc.mask();
  }
  return out;
}

}  // namespace

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
  const ElemHalf h0 = draw_elem_half(prng0_, n, rc_);
  const ElemHalf h1 = draw_elem_half(prng1_, n, rc_);
  const RingVec a = add_vecs(h0.a, h1.a, rc_);
  ElemTriple t;
  t.a = Shared{h0.a, h1.a};
  t.b = Shared{h0.b, h1.b};
  t.z = Shared{complete_half(mul_vec(a, h0.b, rc_), h0.x, h1.x, rc_),
               complete_half(mul_vec(a, h1.b, rc_), h1.x, h0.x, rc_)};
  return t;
}

SquarePair TripleDealer::square_pair(std::size_t n) {
  const SquareHalf h0 = draw_square_half(prng0_, 0, n, rc_);
  const SquareHalf h1 = draw_square_half(prng1_, 1, n, rc_);
  // z = (a0+a1)²: party 0 keeps a0² + 2·x0, party 1 keeps
  // a1² + 2·(a0⊙a1 − x0) — a single cross term, so one OT direction
  // suffices in the 2PC generator.
  const RingVec cross = mul_vec(h0.a, h1.a, rc_);
  RingVec z0 = mul_vec(h0.a, h0.a, rc_);
  RingVec z1 = mul_vec(h1.a, h1.a, rc_);
  for (std::size_t i = 0; i < n; ++i) {
    z0[i] = (z0[i] + 2 * h0.x[i]) & rc_.mask();
    z1[i] = (z1[i] + 2 * (cross[i] - h0.x[i])) & rc_.mask();
  }
  SquarePair p;
  p.a = Shared{h0.a, h1.a};
  p.z = Shared{std::move(z0), std::move(z1)};
  return p;
}

MatmulTriple TripleDealer::matmul_triple(std::size_t m, std::size_t k, std::size_t n) {
  const MatmulHalf h0 = draw_matmul_half(prng0_, m, k, n, rc_);
  const MatmulHalf h1 = draw_matmul_half(prng1_, m, k, n, rc_);
  const RingVec a = add_vecs(h0.a, h1.a, rc_);
  MatmulTriple t;
  t.m = m;
  t.k = k;
  t.n = n;
  t.a = Shared{h0.a, h1.a};
  t.b = Shared{h0.b, h1.b};
  t.z = Shared{complete_half(ring_matmul(a, h0.b, m, k, n, rc_), h0.x, h1.x, rc_),
               complete_half(ring_matmul(a, h1.b, m, k, n, rc_), h1.x, h0.x, rc_)};
  return t;
}

BitTriple TripleDealer::bit_triple(std::size_t n) {
  const BitHalf h0 = draw_bit_half(prng0_, n);
  const BitHalf h1 = draw_bit_half(prng1_, n);
  BitTriple t;
  t.a0 = h0.a;
  t.a1 = h1.a;
  t.b0 = h0.b;
  t.b1 = h1.b;
  t.c0.resize(n);
  t.c1.resize(n);
  // c_p = (a_p & b_p) ^ x_p ^ (b_p & a_peer) ^ x_peer; the x's cancel in
  // c0 ^ c1 = (a0^a1) & (b0^b1).
  for (std::size_t i = 0; i < n; ++i) {
    t.c0[i] = (h0.a[i] & h0.b[i]) ^ h0.x[i] ^ (h0.b[i] & h1.a[i]) ^ h1.x[i];
    t.c1[i] = (h1.a[i] & h1.b[i]) ^ h1.x[i] ^ (h1.b[i] & h0.a[i]) ^ h0.x[i];
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

BilinearTriple TripleDealer::assemble_bilinear(const BilinearHalf& h0, const BilinearHalf& h1,
                                               const RingVec& f0, const RingVec& f1,
                                               std::size_t nz) const {
  if (f0.size() != nz || f1.size() != nz) {
    throw std::invalid_argument("bilinear_triple: nz does not match f's output size");
  }
  BilinearTriple t;
  t.a = Shared{h0.a, h1.a};
  t.b = Shared{h0.b, h1.b};
  t.z = Shared{complete_half(f0, h0.x, h1.x, rc_), complete_half(f1, h1.x, h0.x, rc_)};
  return t;
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
