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

}  // namespace

std::vector<std::uint8_t> random_bits(Prng& prng, std::size_t n, int width) {
  if (width != 1 && width != 2 && width != 8) {
    throw std::invalid_argument("random_bits: width must be 1, 2 or 8");
  }
  const std::size_t per_word = 64 / static_cast<std::size_t>(width);
  const std::uint64_t field = (1ULL << width) - 1;
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; i += per_word) {
    std::uint64_t w = prng.next_u64();
    const std::size_t end = n - i < per_word ? n : i + per_word;
    for (std::size_t k = i; k < end; ++k, w >>= width) {
      v[k] = static_cast<std::uint8_t>(w & field);
    }
  }
  return v;
}

SquareHalf draw_square_half(Prng& prng, int party, std::size_t n, const RingConfig& rc) {
  SquareHalf h;
  h.a = random_ring_vec(prng, n, rc);
  if (party == 0) h.x = random_ring_vec(prng, n, rc);
  return h;
}

BilinearHalf draw_bilinear_half(Prng& prng, int party, const BilinearSpec& spec,
                                const RingConfig& rc) {
  BilinearHalf h;
  if (spec.bit_b) {
    const std::vector<std::uint8_t> bits = random_bits(prng, spec.nb());
    h.b.assign(bits.begin(), bits.end());
    h.a = random_ring_vec(prng, spec.na(), rc);
    h.x = random_ring_vec(prng, spec.nz(), rc);
    if (party == 0) h.xr = random_ring_vec(prng, spec.nb(), rc);
    return h;
  }
  h.a = random_ring_vec(prng, spec.na(), rc);
  h.b = random_ring_vec(prng, spec.nb(), rc);
  h.x = random_ring_vec(prng, spec.nz(), rc);
  return h;
}

BitHalf draw_bit_half(Prng& prng, std::size_t n) {
  BitHalf h;
  h.a = random_bits(prng, n);
  h.b = random_bits(prng, n);
  h.x = random_bits(prng, n);
  return h;
}

RotHalf draw_rot_half(Prng& prng, bool sender, std::size_t n) {
  RotHalf h;
  if (sender) {
    h.pads = random_bits(prng, 4 * n, 8);
  } else {
    h.choice = random_bits(prng, n, 2);
  }
  return h;
}

BilinearTriple TripleDealer::bilinear_triple(const BilinearSpec& spec) {
  BilinearHalf h[2] = {draw_bilinear_half(prng0_, 0, spec, rc_),
                       draw_bilinear_half(prng1_, 1, spec, rc_)};
  if (spec.bit_b) return bit_injection(spec, h);
  const RingVec a = add_vec(h[0].a, h[1].a, rc_);
  const BilinearMap f = build_bilinear_map(spec, rc_);
  BilinearTriple t;
  t.spec = spec;
  for (int p = 0; p < 2; ++p) {
    if (!serves(p)) continue;
    // z_p = f(a, b_p) + x_p − x_peer: the cross terms cancel in z0 + z1.
    RingVec z = f(a, h[p].b);
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = (z[i] + h[p].x[i] - h[1 - p].x[i]) & rc_.mask();
    }
    t.z.share(p) = std::move(z);
    t.a.share(p) = std::move(h[p].a);
    t.b.share(p) = std::move(h[p].b);
  }
  return t;
}

BilinearTriple TripleDealer::bit_injection(const BilinearSpec& spec, BilinearHalf (&h)[2]) {
  // B: r = r0 ⊕ r1 = r0 + r1 − 2·r0·r1, its one cross term split as
  // (xr0, r0·r1 − xr0), so b_p = r_p − 2·(its part) keeps r_p as its low
  // bit.  Z: r·a_q = r_q·a_q + r_peer·(1 − 2·r_q)·a_q, the second term
  // party q's cross term, split as (x_q, · − x_q) — what the OT-extension
  // generator's one-bit COTs deliver.
  const std::uint64_t mask = rc_.mask();
  const std::size_t n = spec.nb();
  BilinearTriple t;
  t.spec = spec;
  for (int p = 0; p < 2; ++p) {
    if (!serves(p)) continue;
    const BilinearHalf& own = h[p];
    const BilinearHalf& peer = h[1 - p];
    RingVec z(spec.nz());
    for (std::size_t off = 0; off < z.size(); off += n) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = off + i;
        const std::uint64_t cross = own.b[i] * (1 - 2 * peer.b[i]) * peer.a[k];
        z[k] = (own.a[k] * own.b[i] + own.x[k] + cross - peer.x[k]) & mask;
      }
    }
    RingVec b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t xr = p == 0 ? h[0].xr[i] : h[0].b[i] * h[1].b[i] - h[0].xr[i];
      b[i] = (own.b[i] - 2 * xr) & mask;
    }
    t.z.share(p) = std::move(z);
    t.b.share(p) = std::move(b);
  }
  for (int p = 0; p < 2; ++p) {
    if (serves(p)) t.a.share(p) = std::move(h[p].a);
  }
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

BilinearMap build_bilinear_map(const BilinearSpec& spec, const RingConfig& rc) {
  if (spec.kind == BilinearKind::hadamard) {
    // Each of A's `batch` vectors times the one B, elementwise.
    const auto n = static_cast<std::size_t>(spec.in_ch);
    const auto batch = static_cast<std::size_t>(spec.batch);
    return [=](const RingVec& a, const RingVec& b) {
      if (a.size() != batch * n || b.size() != n) {
        throw std::invalid_argument("hadamard: operand size mismatch");
      }
      RingVec out(batch * n);
      for (std::size_t s = 0; s < batch; ++s) {
        kern::mul(out.data() + s * n, a.data() + s * n, b.data(), n, rc.mask());
      }
      return out;
    };
  }
  if (spec.kind == BilinearKind::matmul) {
    const auto m = static_cast<std::size_t>(spec.batch);
    const auto k = static_cast<std::size_t>(spec.in_ch);
    const auto n = static_cast<std::size_t>(spec.out_ch);
    return [=](const RingVec& a, const RingVec& b) { return ring_matmul(a, b, m, k, n, rc); };
  }

  const int n = spec.batch, c = spec.in_ch, h = spec.in_h, w = spec.in_w;
  const int out_ch = spec.out_ch, kernel = spec.kernel, stride = spec.stride, pad = spec.pad;
  const int oh = spec.out_h(), ow = spec.out_w();
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  const std::size_t k2 = static_cast<std::size_t>(kernel) * kernel;

  if (spec.kind == BilinearKind::depthwise_conv2d) {
    // Per sample and channel: weight_row(ch) · im2col_channel(input, ch) —
    // a 1 × k2 × spatial GEMM over the channel's slice of the patch matrix.
    return [=](const RingVec& input, const RingVec& wmat) {
      RingVec out(static_cast<std::size_t>(n) * c * spatial);
      RingVec cols(static_cast<std::size_t>(c) * k2 * spatial);
      for (int s = 0; s < n; ++s) {
        kern::im2col(cols.data(), input.data(), c, h, w, s, kernel, stride, pad, oh, ow);
        for (int ch = 0; ch < c; ++ch) {
          kern::gemm(out.data() + (static_cast<std::size_t>(s) * c + ch) * spatial,
                     wmat.data() + ch * k2, cols.data() + ch * k2 * spatial, 1, k2, spatial,
                     rc.mask());
        }
      }
      return out;
    };
  }

  // Full convolution: per sample, wmat · im2col(input_s) as a blocked GEMM.
  const std::size_t k_dim = static_cast<std::size_t>(c) * k2;
  return [=](const RingVec& input, const RingVec& wmat) {
    RingVec out(static_cast<std::size_t>(n) * out_ch * spatial);
    RingVec cols(k_dim * spatial);
    for (int s = 0; s < n; ++s) {
      kern::im2col(cols.data(), input.data(), c, h, w, s, kernel, stride, pad, oh, ow);
      kern::gemm(out.data() + static_cast<std::size_t>(s) * out_ch * spatial, wmat.data(),
                 cols.data(), static_cast<std::size_t>(out_ch), k_dim, spatial, rc.mask());
    }
    return out;
  };
}

}  // namespace pasnet::crypto
