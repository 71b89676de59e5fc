#include "offline/ot_triple_source.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "crypto/ot_ext.hpp"
#include "crypto/ring_kernels.hpp"

namespace pasnet::offline {

namespace {

using crypto::Prng;
using crypto::RingConfig;
using crypto::RingVec;

// ---------------------------------------------------------------------------
// COT enumeration geometry
//
// Every arithmetic triple kind decomposes, per direction, into
// derandomization GROUPS: one group per output slice (element / output
// column / output channel), containing one COT per (choice element t, ring
// bit i).  Both parties must enumerate the exact same groups in the exact
// same order — lanes outermost, then plan requests, then the kind's
// canonical nesting — so product_geometry below is the single source of
// truth shared by the choice-collection, correction-building and output
// passes (and, in aggregate form, by the analytic cost model).  A square
// pair groups like a hadamard product of its size.
// ---------------------------------------------------------------------------

/// One derandomization group, fully resolved against the local party's
/// data.  Pointers are populated per the pass's needs: recv-side (choice,
/// z) only when the context runs the receiver, send-side (corr, x) only
/// when it runs the sender.
struct GroupCtx {
  std::size_t len = 1;  ///< ring elements per COT message
  std::size_t sub = 1;  ///< choice elements in the group (J = sub * nbits)
  int nbits = 0;
  int shift0 = 0;   ///< extra correlation shift (square: the folded ×2)
  int x_shift = 0;  ///< X_group scale shift (square: the folded ×2)
  // Receiver: choice element t lives at choice[choice_base + t*choice_step].
  const std::uint64_t* choice = nullptr;
  std::size_t choice_base = 0, choice_step = 0;
  // Sender: correlation slice of choice element t starts at
  // corr_base + t*corr_step and spans corr_rows × corr_len with corr_stride.
  const std::uint64_t* corr = nullptr;
  std::size_t corr_base = 0, corr_step = 0;
  std::size_t corr_rows = 1, corr_len = 1, corr_stride = 0;
  // Output/X slice (identical geometry on both sides): t_rows × t_len rows
  // starting at t_start with t_stride between rows.
  const std::uint64_t* x = nullptr;  // sender's cross-term share source
  std::uint64_t* z = nullptr;        // receiver's accumulation target
  std::size_t t_start = 0, t_rows = 1, t_len = 1, t_stride = 0;
};

/// The COT grouping of one product spec: `groups` derandomization groups,
/// group k's choice, correlation and output slices starting at
/// k·choice_group, k·corr_group and k·t_group, with the layout inside a
/// group in `layout` (its pointers and bases unset).
struct ProductGeometry {
  std::size_t groups = 0;
  std::size_t choice_group = 0, corr_group = 0, t_group = 0;
  GroupCtx layout;
  bool im2col = false;  ///< the correlation source is im2col(a_S), not a_S itself
};

ProductGeometry product_geometry(const crypto::BilinearSpec& sp) {
  ProductGeometry geo;
  GroupCtx& g = geo.layout;
  if (sp.kind == crypto::BilinearKind::matmul) {
    // (m×k)·(k×n): one group per output column j; choice t is B[t][j], its
    // correlation A's column t, its output Z's column j.
    const auto m = static_cast<std::size_t>(sp.batch);
    const auto k = static_cast<std::size_t>(sp.in_ch);
    const auto n = static_cast<std::size_t>(sp.out_ch);
    geo.groups = n;
    geo.choice_group = 1;
    geo.t_group = 1;
    g.len = m;
    g.sub = k;
    g.choice_step = n;
    g.corr_step = 1;
    g.corr_rows = m;
    g.corr_stride = k;
    g.t_rows = m;
    g.t_stride = n;
    return geo;
  }
  // Convolutions, and hadamard as a depthwise 1×1 over its n channels: one
  // group per output channel, one choice per weight of its kernel, whose
  // correlation is the matching row of the SENDER's patch matrix — exactly
  // what build_bilinear_map multiplies, so Σ_j b_j·c_j reproduces
  // f(a_S, b_R) slice for slice.  A hadamard's patch matrix is A itself.
  const auto spatial = static_cast<std::size_t>(sp.out_h()) * sp.out_w();
  const auto k2 = static_cast<std::size_t>(sp.kernel) * sp.kernel;
  const std::size_t k_dim = static_cast<std::size_t>(sp.in_ch) * k2;
  const bool cw = sp.channelwise();
  geo.groups = static_cast<std::size_t>(cw ? sp.in_ch : sp.out_ch);
  geo.choice_group = cw ? k2 : k_dim;
  geo.corr_group = cw ? k2 * spatial : 0;
  geo.t_group = spatial;
  geo.im2col = sp.kind != crypto::BilinearKind::hadamard;
  g.len = static_cast<std::size_t>(sp.batch) * spatial;
  g.sub = geo.choice_group;
  g.choice_step = 1;
  g.corr_step = spatial;
  g.corr_rows = static_cast<std::size_t>(sp.batch);
  g.corr_len = spatial;
  g.corr_stride = k_dim * spatial;
  g.t_rows = static_cast<std::size_t>(sp.batch);
  g.t_len = spatial;
  g.t_stride = geo.groups * spatial;
  return geo;
}

/// The sender's patch matrix im2col(a) of a convolution spec, laid out
/// [sample][in_ch·k²][spatial].
RingVec patch_matrix(const crypto::BilinearSpec& sp, const RingVec& a) {
  const int oh = sp.out_h(), ow = sp.out_w();
  const std::size_t block = static_cast<std::size_t>(sp.in_ch) * sp.kernel * sp.kernel * oh * ow;
  RingVec cols(static_cast<std::size_t>(sp.batch) * block);
  for (int s = 0; s < sp.batch; ++s) {
    crypto::kern::im2col(cols.data() + static_cast<std::size_t>(s) * block, a.data(), sp.in_ch,
                         sp.in_h, sp.in_w, s, sp.kernel, sp.stride, sp.pad, oh, ow);
  }
  return cols;
}

/// One run of boolean AND-triple OT instances (1 COT per instance).
struct BitCtx {
  std::size_t n = 0;
  const std::uint8_t* recv_b = nullptr;
  std::uint8_t* recv_c = nullptr;
  const std::uint8_t* send_a = nullptr;
  const std::uint8_t* send_x = nullptr;
};

/// One run of random (1,4)-OT instances (2 COTs per instance, one per
/// choice bit).
struct RotCtx {
  std::size_t n = 0;
  const std::uint8_t* recv_choice = nullptr;
  std::uint8_t* recv_chosen = nullptr;
  const std::uint8_t* send_pads = nullptr;
};

/// Party-local cross-term shares (x_p) retained per request — they enter
/// the completed z but are not part of the bundle itself.  xr is party 0's
/// −2·xr0, its share of a bit-injection B's r0·r1 term.
struct PartyLaneMat {
  std::vector<RingVec> x;
  std::vector<std::vector<std::uint8_t>> xbit;
  std::vector<RingVec> xr;
};

struct WalkIo {
  const PreprocessingPlan* plan = nullptr;
  std::size_t lanes = 0;
  int sender = 0;
  QueryBundle* bundles = nullptr;
  std::vector<PartyLaneMat>* mats = nullptr;  // [2] arrays, per lane
  bool need_recv = false;
  bool need_send = false;
};

/// Walks every COT group of one direction in canonical order.  `on_group`
/// runs once per arithmetic derandomization group, `on_bits` once per bit
/// request, `on_rot` once per random-OT request this direction sends.
template <typename FGroup, typename FBits, typename FRot>
void walk_direction(const WalkIo& io, FGroup&& on_group, FBits&& on_bits, FRot&& on_rot) {
  const PreprocessingPlan& plan = *io.plan;
  const int S = io.sender, R = 1 - io.sender;
  const std::uint64_t mask = plan.ring.mask();
  // Every group of `geo` over `nbits`-bit choices, read through g's pointers.
  const auto run_groups = [&](const ProductGeometry& geo, GroupCtx g, int nbits) {
    g.nbits = nbits;
    for (std::size_t k = 0; k < geo.groups; ++k) {
      g.choice_base = k * geo.choice_group;
      g.corr_base = k * geo.corr_group;
      g.t_start = k * geo.t_group;
      on_group(g);
    }
  };
  for (std::size_t l = 0; l < io.lanes; ++l) {
    QueryBundle& b = io.bundles[l];
    std::size_t square_i = 0, bit_i = 0, bil_i = 0, rot_i = 0;
    for (std::size_t ri = 0; ri < plan.requests.size(); ++ri) {
      const TripleRequest& r = plan.requests[ri];
      switch (r.kind) {
        case TripleKind::bilinear: {
          crypto::BilinearTriple& t = b.bilinear[bil_i++];
          const ProductGeometry geo = product_geometry(r.bilinear);
          GroupCtx g = geo.layout;
          if (r.bilinear.bit_b) {
            // Bit injection: every cross term is one COT with a one-bit
            // choice, r_p being the low bit of B's share b_p.  The payload
            // terms r_R·(1 − 2·r_S)·a_S: R chooses with r_R, S correlates
            // the P payload masks of each value.  Then, P0 -> P1 only, B's
            // r0·r1 term: P1 chooses with r1, P0 correlates −2·r0, into B.
            const std::size_t n = r.bilinear.nb();
            RingVec choice, corr;
            if (io.need_recv) {
              choice = t.b.share(R);
              for (std::uint64_t& v : choice) v &= 1;
              g.choice = choice.data();
              g.z = t.z.share(R).data();
            }
            if (io.need_send) {
              const RingVec& rs = t.b.share(S);
              const RingVec& a = t.a.share(S);
              corr.resize(a.size());
              for (std::size_t k = 0; k < a.size(); ++k) {
                corr[k] = ((1 - 2 * (rs[k % n] & 1)) * a[k]) & mask;
              }
              g.corr = corr.data();
              g.x = io.mats[S][l].x[ri].data();
            }
            run_groups(geo, g, 1);
            if (S != 0) break;
            const ProductGeometry rgeo = product_geometry(crypto::BilinearSpec::hadamard(n));
            GroupCtx rg = rgeo.layout;
            RingVec rcorr;
            if (io.need_recv) {
              rg.choice = choice.data();
              rg.z = t.b.share(1).data();
            }
            if (io.need_send) {
              rcorr.resize(n);
              for (std::size_t i = 0; i < n; ++i) rcorr[i] = (0 - 2 * (t.b.s0[i] & 1)) & mask;
              rg.corr = rcorr.data();
              rg.x = io.mats[0][l].xr[ri].data();
            }
            run_groups(rgeo, rg, 1);
            break;
          }
          if (io.need_recv) {
            g.choice = t.b.share(R).data();
            g.z = t.z.share(R).data();
          }
          RingVec cols;
          if (io.need_send) {
            if (geo.im2col) cols = patch_matrix(r.bilinear, t.a.share(S));
            g.corr = geo.im2col ? cols.data() : t.a.share(S).data();
            g.x = io.mats[S][l].x[ri].data();
          }
          run_groups(geo, g, plan.ring.bits);
          break;
        }
        case TripleKind::square: {
          crypto::SquarePair& t = b.square[square_i++];
          if (S != 0) break;  // one direction suffices: P0 sends, P1 receives
          const ProductGeometry geo = product_geometry(crypto::BilinearSpec::hadamard(r.n));
          GroupCtx g = geo.layout;
          g.shift0 = 1;
          g.x_shift = 1;
          if (io.need_recv) {
            g.choice = t.a.share(1).data();
            g.z = t.z.share(1).data();
          }
          if (io.need_send) {
            g.corr = t.a.share(0).data();
            g.x = io.mats[0][l].x[ri].data();
          }
          run_groups(geo, g, plan.ring.bits);
          break;
        }
        case TripleKind::bit: {
          crypto::BitTriple& t = b.bit[bit_i++];
          BitCtx bc;
          bc.n = r.n;
          if (io.need_recv) {
            bc.recv_b = (R == 0 ? t.b0 : t.b1).data();
            bc.recv_c = (R == 0 ? t.c0 : t.c1).data();
          }
          if (io.need_send) {
            bc.send_a = (S == 0 ? t.a0 : t.a1).data();
            bc.send_x = io.mats[S][l].xbit[ri].data();
          }
          on_bits(bc);
          break;
        }
        case TripleKind::rot: {
          crypto::RandomOt& t = b.rot[rot_i++];
          if (r.sender != S) break;  // the other direction carries it
          RotCtx rt;
          rt.n = r.n;
          if (io.need_recv) {
            rt.recv_choice = t.choice.data();
            rt.recv_chosen = t.chosen.data();
          }
          if (io.need_send) rt.send_pads = t.pads.data();
          on_rot(rt);
          break;
        }
      }
    }
  }
}

/// Per-lane COT totals of one direction — the aggregate view of the walker
/// above, shared by the protocol driver and the analytic cost model.
struct DirTotals {
  std::uint64_t arith_cots = 0;
  std::uint64_t arith_elems = 0;  ///< correction-stream ring elements: Σ (J+1)·len
  std::uint64_t bit_cots = 0;
  std::uint64_t rot_ots = 0;  ///< random (1,4)-OT instances

  [[nodiscard]] std::uint64_t cots() const noexcept { return arith_cots + bit_cots + 2 * rot_ots; }
  /// Byte-frame corrections: 2 per AND instance, 4 per random OT.
  [[nodiscard]] std::uint64_t byte_corrections() const noexcept {
    return 2 * bit_cots + 4 * rot_ots;
  }
  /// Counts the groups of one product geometry over `bits`-bit choices.
  void add_groups(const ProductGeometry& geo, std::uint64_t bits) noexcept {
    const std::uint64_t sub = geo.layout.sub;
    arith_cots += geo.groups * sub * bits;
    arith_elems += geo.groups * (sub * bits + 1) * geo.layout.len;
  }
};

DirTotals direction_totals(const PreprocessingPlan& plan, int sender) {
  const auto bits = static_cast<std::uint64_t>(plan.ring.bits);
  DirTotals t;
  for (const TripleRequest& r : plan.requests) {
    switch (r.kind) {
      case TripleKind::bilinear:
        if (r.bilinear.bit_b) {
          // One-bit choices; B's r0·r1 term runs P0 -> P1 only.
          t.add_groups(product_geometry(r.bilinear), 1);
          if (sender == 0) {
            t.add_groups(product_geometry(crypto::BilinearSpec::hadamard(r.bilinear.nb())), 1);
          }
        } else {
          t.add_groups(product_geometry(r.bilinear), bits);
        }
        break;
      case TripleKind::square:
        if (sender == 0) t.add_groups(product_geometry(crypto::BilinearSpec::hadamard(r.n)), bits);
        break;
      case TripleKind::bit:
        t.bit_cots += r.n;
        break;
      case TripleKind::rot:
        if (r.sender == sender) t.rot_ots += r.n;
        break;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Bundle shaping and half-stream fills
// ---------------------------------------------------------------------------

void shape_bundle(const PreprocessingPlan& plan, QueryBundle& b) {
  for (const TripleRequest& r : plan.requests) {
    switch (r.kind) {
      case TripleKind::bilinear: {
        crypto::BilinearTriple t;
        t.spec = r.bilinear;
        for (RingVec* v : {&t.a.s0, &t.a.s1}) v->assign(r.bilinear.na(), 0);
        for (RingVec* v : {&t.b.s0, &t.b.s1}) v->assign(r.bilinear.nb(), 0);
        for (RingVec* v : {&t.z.s0, &t.z.s1}) v->assign(r.bilinear.nz(), 0);
        b.bilinear.push_back(std::move(t));
        break;
      }
      case TripleKind::square: {
        crypto::SquarePair t;
        for (RingVec* v : {&t.a.s0, &t.a.s1, &t.z.s0, &t.z.s1}) v->assign(r.n, 0);
        b.square.push_back(std::move(t));
        break;
      }
      case TripleKind::bit: {
        crypto::BitTriple t;
        for (std::vector<std::uint8_t>* v : {&t.a0, &t.a1, &t.b0, &t.b1, &t.c0, &t.c1}) {
          v->assign(r.n, 0);
        }
        b.bit.push_back(std::move(t));
        break;
      }
      case TripleKind::rot: {
        crypto::RandomOt t;
        t.sender = r.sender;
        t.pads.assign(4 * r.n, 0);
        t.choice.assign(r.n, 0);
        t.chosen.assign(r.n, 0);
        b.rot.push_back(std::move(t));
        break;
      }
    }
  }
}

/// Draws party p's halves for every request — triples from
/// Prng(half_seed), random OTs from Prng(rot_seed) — and initializes its
/// bundle shares to the LOCAL part of each triple: masks (a_p, b_p) plus
/// the base z_p = f(a_p, b_p) + x_p — the cross terms o_p are added by the
/// direction runs — and its half of each random OT (the receiver's chosen
/// pad arrives in the direction run).  A bit-injection B starts at r_p
/// (party 0: r0 − 2·xr0), and f(a_p, r_p) seeds z_p.  x_p (and xr) are
/// retained in `mat` for the correction pass.  The caller picks the seeds:
/// canonical half_stream_seed / rot_half_stream_seed(dealer_seed, p) in the
/// simulation modes (dealer bit-identity), role_prng draws in a remote
/// process (peer-private).
void fill_halves(const PreprocessingPlan& plan, int p, std::uint64_t half_seed,
                 std::uint64_t rot_seed, QueryBundle& b, PartyLaneMat& mat) {
  const RingConfig& rc = plan.ring;
  const std::uint64_t mask = rc.mask();
  Prng prng(half_seed);
  Prng rot_prng(rot_seed);
  mat.x.assign(plan.requests.size(), RingVec{});
  mat.xbit.assign(plan.requests.size(), {});
  mat.xr.assign(plan.requests.size(), RingVec{});
  std::size_t square_i = 0, bit_i = 0, bil_i = 0, rot_i = 0;
  for (std::size_t ri = 0; ri < plan.requests.size(); ++ri) {
    const TripleRequest& r = plan.requests[ri];
    switch (r.kind) {
      case TripleKind::bilinear: {
        crypto::BilinearHalf h = crypto::draw_bilinear_half(prng, p, r.bilinear, rc);
        crypto::BilinearTriple& t = b.bilinear[bil_i++];
        RingVec z = crypto::build_bilinear_map(r.bilinear, rc)(h.a, h.b);
        for (std::size_t i = 0; i < z.size(); ++i) z[i] = (z[i] + h.x[i]) & mask;
        t.z.share(p) = std::move(z);
        t.a.share(p) = std::move(h.a);
        mat.x[ri] = std::move(h.x);
        if (!r.bilinear.bit_b) {
          t.b.share(p) = std::move(h.b);
          break;
        }
        RingVec& bp = t.b.share(p);
        for (std::size_t i = 0; i < bp.size(); ++i) {
          bp[i] = (h.b[i] - (p == 0 ? 2 * h.xr[i] : 0)) & mask;
        }
        if (p == 0) {
          for (std::uint64_t& v : h.xr) v = (0 - 2 * v) & mask;
          mat.xr[ri] = std::move(h.xr);
        }
        break;
      }
      case TripleKind::square: {
        crypto::SquareHalf h = crypto::draw_square_half(prng, p, r.n, rc);
        crypto::SquarePair& t = b.square[square_i++];
        RingVec& z = t.z.share(p);
        for (std::size_t i = 0; i < r.n; ++i) {
          z[i] = (h.a[i] * h.a[i] + (p == 0 ? 2 * h.x[i] : 0)) & mask;
        }
        t.a.share(p) = std::move(h.a);
        mat.x[ri] = std::move(h.x);
        break;
      }
      case TripleKind::bit: {
        crypto::BitHalf h = crypto::draw_bit_half(prng, r.n);
        crypto::BitTriple& t = b.bit[bit_i++];
        std::vector<std::uint8_t>& c = p == 0 ? t.c0 : t.c1;
        for (std::size_t i = 0; i < r.n; ++i) c[i] = (h.a[i] & h.b[i]) ^ h.x[i];
        (p == 0 ? t.a0 : t.a1) = std::move(h.a);
        (p == 0 ? t.b0 : t.b1) = std::move(h.b);
        mat.xbit[ri] = std::move(h.x);
        break;
      }
      case TripleKind::rot: {
        const bool sends = r.sender == p;
        crypto::RotHalf h = crypto::draw_rot_half(rot_prng, sends, r.n);
        crypto::RandomOt& t = b.rot[rot_i++];
        if (sends) {
          t.pads = std::move(h.pads);
        } else {
          t.choice = std::move(h.choice);
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The three role passes
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> collect_choices(WalkIo io) {
  io.need_recv = true;
  io.need_send = false;
  std::vector<std::uint8_t> choices;
  walk_direction(
      io,
      [&](const GroupCtx& g) {
        for (std::size_t t = 0; t < g.sub; ++t) {
          const std::uint64_t v = g.choice[g.choice_base + t * g.choice_step];
          for (int i = 0; i < g.nbits; ++i) {
            choices.push_back(static_cast<std::uint8_t>((v >> i) & 1));
          }
        }
      },
      [&](const BitCtx& bc) {
        for (std::size_t e = 0; e < bc.n; ++e) choices.push_back(bc.recv_b[e] & 1);
      },
      [&](const RotCtx& rt) {
        for (std::size_t e = 0; e < rt.n; ++e) {
          choices.push_back(rt.recv_choice[e] & 1);
          choices.push_back((rt.recv_choice[e] >> 1) & 1);
        }
      });
  return choices;
}

/// Derandomization (sender side).  Per group the x_j of all COTs but the
/// last reuse the uniform pad0_j (keeping them secret costs no traffic);
/// the last pins Σ_j x_j = −X_group so the receiver's outputs sum to
/// exactly o_R = Σ b_j·c_j − X_group.  Per COT the wire carries
/// e1_j = x_j + c_j − pad1_j, plus e0_last = x_last − pad0_last per group.
void build_corrections(WalkIo io, const crypto::otx::ExtSender& es, std::uint64_t mask,
                       RingVec* arith, std::vector<std::uint8_t>* bytecorr) {
  io.need_recv = false;
  io.need_send = true;
  std::size_t cot = 0;
  RingVec pad0, pad1, xg, run, c;
  walk_direction(
      io,
      [&](const GroupCtx& g) {
        const std::size_t J = g.sub * static_cast<std::size_t>(g.nbits);
        xg.resize(g.len);
        for (std::size_t rr = 0, u = 0; rr < g.t_rows; ++rr) {
          for (std::size_t cc = 0; cc < g.t_len; ++cc, ++u) {
            xg[u] = (g.x[g.t_start + rr * g.t_stride + cc] << g.x_shift) & mask;
          }
        }
        run.assign(g.len, 0);
        std::size_t jj = 0;
        for (std::size_t t = 0; t < g.sub; ++t) {
          const std::size_t cstart = g.corr_base + t * g.corr_step;
          for (int i = 0; i < g.nbits; ++i, ++jj, ++cot) {
            es.pads(cot, g.len, &pad0, &pad1);
            c.resize(g.len);
            // The folded scale can push the top bit's correlation past the
            // word: 2^{i+shift0} ≡ 0 then (shifting by >= 64 would be UB).
            const int shift = i + g.shift0;
            for (std::size_t rr = 0, u = 0; rr < g.corr_rows; ++rr) {
              for (std::size_t cc = 0; cc < g.corr_len; ++cc, ++u) {
                c[u] = shift < 64 ? (g.corr[cstart + rr * g.corr_stride + cc] << shift) & mask : 0;
              }
            }
            const bool last = jj + 1 == J;
            for (std::size_t u = 0; u < g.len; ++u) {
              const std::uint64_t x_j =
                  last ? (0 - (xg[u] + run[u])) & mask : pad0[u] & mask;
              if (!last) run[u] = (run[u] + x_j) & mask;
              arith->push_back((x_j + c[u] - (pad1[u] & mask)) & mask);
            }
            if (last) {
              for (std::size_t u = 0; u < g.len; ++u) {
                const std::uint64_t x_j = (0 - (xg[u] + run[u])) & mask;
                arith->push_back((x_j - (pad0[u] & mask)) & mask);
              }
            }
          }
        }
      },
      [&](const BitCtx& bc) {
        // 1-of-2 OT per AND instance: m0 = x_S, m1 = x_S ⊕ a_S, both masked
        // with the pads' low bits.  Both corrections always cross the wire
        // (the choice is what stays private, not the message count).
        for (std::size_t e = 0; e < bc.n; ++e, ++cot) {
          es.pads(cot, 1, &pad0, &pad1);
          bytecorr->push_back((bc.send_x[e] ^ static_cast<std::uint8_t>(pad0[0] & 1)) & 1);
          bytecorr->push_back(
              ((bc.send_x[e] ^ bc.send_a[e]) ^ static_cast<std::uint8_t>(pad1[0] & 1)) & 1);
        }
      },
      [&](const RotCtx& rt) {
        // Random (1,4)-OT: COT `cot` carries choice bit 0, `cot + 1` bit 1.
        // Entry v goes out under byte v of the two pads v's bits select,
        // so no two entries share a mask.
        for (std::size_t e = 0; e < rt.n; ++e, cot += 2) {
          es.pads(cot, 1, &pad0, &pad1);
          const std::uint64_t lo[2] = {pad0[0], pad1[0]};
          es.pads(cot + 1, 1, &pad0, &pad1);
          const std::uint64_t hi[2] = {pad0[0], pad1[0]};
          for (unsigned v = 0; v < 4; ++v) {
            const std::uint64_t key = lo[v & 1] ^ hi[v >> 1];
            bytecorr->push_back(rt.send_pads[4 * e + v] ^
                                static_cast<std::uint8_t>(key >> (8 * v)));
          }
        }
      });
}

void apply_outputs(WalkIo io, const crypto::otx::ExtReceiver& er, std::uint64_t mask,
                   const RingVec& arith, const std::vector<std::uint8_t>& bytecorr) {
  io.need_recv = true;
  io.need_send = false;
  std::size_t cot = 0, acur = 0, bcur = 0;
  RingVec padv;
  walk_direction(
      io,
      [&](const GroupCtx& g) {
        const std::size_t J = g.sub * static_cast<std::size_t>(g.nbits);
        const std::size_t base = acur;
        acur += (J + 1) * g.len;
        std::size_t jj = 0;
        for (std::size_t t = 0; t < g.sub; ++t) {
          const std::uint64_t v = g.choice[g.choice_base + t * g.choice_step];
          for (int i = 0; i < g.nbits; ++i, ++jj, ++cot) {
            er.pad(cot, g.len, &padv);
            const bool bsel = ((v >> i) & 1) != 0;
            const bool last = jj + 1 == J;
            for (std::size_t rr = 0, u = 0; rr < g.t_rows; ++rr) {
              for (std::size_t cc = 0; cc < g.t_len; ++cc, ++u) {
                std::uint64_t o = padv[u] & mask;
                if (bsel) o = (o + arith[base + jj * g.len + u]) & mask;
                if (last && !bsel) o = (o + arith[base + J * g.len + u]) & mask;
                std::uint64_t& zt = g.z[g.t_start + rr * g.t_stride + cc];
                zt = (zt + o) & mask;
              }
            }
          }
        }
      },
      [&](const BitCtx& bc) {
        for (std::size_t e = 0; e < bc.n; ++e, ++cot) {
          er.pad(cot, 1, &padv);
          const std::uint8_t b = bc.recv_b[e] & 1;
          const std::uint8_t d = bytecorr[bcur + 2 * e + b];
          bc.recv_c[e] ^= (d ^ static_cast<std::uint8_t>(padv[0] & 1)) & 1;
        }
        bcur += 2 * bc.n;
      },
      [&](const RotCtx& rt) {
        for (std::size_t e = 0; e < rt.n; ++e, cot += 2) {
          er.pad(cot, 1, &padv);
          const std::uint64_t lo = padv[0];
          er.pad(cot + 1, 1, &padv);
          const unsigned r = rt.recv_choice[e] & 3U;
          rt.recv_chosen[e] =
              bytecorr[bcur + 4 * e + r] ^ static_cast<std::uint8_t>((lo ^ padv[0]) >> (8 * r));
        }
        bcur += 4 * rt.n;
      });
}

// ---------------------------------------------------------------------------
// Direction driver: one IKNP dance, three rounds
// ---------------------------------------------------------------------------

void run_direction(crypto::TwoPartyContext& ctx, const WalkIo& io) {
  const PreprocessingPlan& plan = *io.plan;
  const DirTotals tot = direction_totals(plan, io.sender);
  const auto m = static_cast<std::size_t>(tot.cots() * io.lanes);
  if (m == 0) return;
  const int S = io.sender, R = 1 - io.sender;
  const int wire = (plan.ring.wire_bits + 7) / 8;
  const std::uint64_t mask = plan.ring.mask();
  ctx.counters().add(obs::Counter::ot_ext_base, crypto::otx::kBaseOts);
  ctx.counters().add(obs::Counter::ot_ext_cots, m);
  std::optional<crypto::otx::ExtSender> es;
  std::optional<crypto::otx::ExtReceiver> er;
  // Round 1: S's base-OT chooser frame (S plays base-OT chooser with its
  // role-private secret bits; R plays base-OT sender with fresh
  // role-private seed pairs — neither is derivable from the shared seeds).
  if (ctx.runs(S)) {
    es.emplace(ctx.role_prng(S));
    ctx.chan(S).send_bytes(es->make_chooser_frame(ctx.role_prng(S)));
  }
  // Round 2: R's base-OT reply + the IKNP u frame.
  if (ctx.runs(R)) {
    er.emplace();
    ctx.chan(R).send_bytes(
        er->make_setup_reply(ctx.chan(R).recv_bytes(), ctx.role_prng(R)));
    const std::vector<std::uint8_t> choices = collect_choices(io);
    if (choices.size() != m) {
      throw std::logic_error("ot_triple_source: choice enumeration disagrees with totals");
    }
    ctx.chan(R).send_bytes(er->make_u_frame(choices, ctx.role_prng(R)));
  }
  // Round 3: S extends and derandomizes.
  if (ctx.runs(S)) {
    es->take_setup_reply(ctx.chan(S).recv_bytes());
    es->extend(ctx.chan(S).recv_bytes(), m);
    RingVec arith;
    arith.reserve(static_cast<std::size_t>(tot.arith_elems * io.lanes));
    std::vector<std::uint8_t> bytecorr;
    build_corrections(io, *es, mask, &arith, &bytecorr);
    if (tot.arith_cots > 0) ctx.chan(S).send_ring(arith, wire);
    if (tot.byte_corrections() > 0) ctx.chan(S).send_bytes(bytecorr);
  }
  if (ctx.runs(R)) {
    RingVec arith;
    std::vector<std::uint8_t> bytecorr;
    if (tot.arith_cots > 0) {
      arith = ctx.chan(R).recv_ring(static_cast<std::size_t>(tot.arith_elems * io.lanes), wire);
    }
    if (tot.byte_corrections() > 0) {
      bytecorr = ctx.chan(R).recv_bytes();
      if (bytecorr.size() != tot.byte_corrections() * io.lanes) {
        throw crypto::otx::OtExtError("ot_triple_source: byte correction frame has wrong size");
      }
    }
    apply_outputs(io, *er, mask, arith, bytecorr);
  }
}

}  // namespace

OtExtCost ot_ext_generation_cost(const PreprocessingPlan& plan, std::size_t lanes) {
  OtExtCost c;
  if (lanes == 0) return c;
  const int wire = (plan.ring.wire_bits + 7) / 8;
  int last = -1;  // matches a freshly reset channel meter
  const auto bump = [&](int dir) {
    if (dir != last) {
      ++c.rounds;
      last = dir;
    }
  };
  for (int sender = 0; sender < 2; ++sender) {
    const DirTotals tot = direction_totals(plan, sender);
    const std::uint64_t m = tot.cots() * lanes;
    if (m == 0) continue;
    c.base_ots += crypto::otx::kBaseOts;
    c.ext_cots += m;
    std::uint64_t& s2r = sender == 0 ? c.bytes_p0_to_p1 : c.bytes_p1_to_p0;
    std::uint64_t& r2s = sender == 0 ? c.bytes_p1_to_p0 : c.bytes_p0_to_p1;
    s2r += crypto::otx::chooser_frame_bytes();
    r2s += crypto::otx::setup_reply_bytes() + crypto::otx::u_frame_bytes(m);
    c.messages += 3;
    if (tot.arith_cots > 0) {
      s2r += tot.arith_elems * lanes * static_cast<std::uint64_t>(wire);
      ++c.messages;
    }
    if (tot.byte_corrections() > 0) {
      s2r += tot.byte_corrections() * lanes;
      ++c.messages;
    }
    bump(sender);      // chooser frame
    bump(1 - sender);  // reply + u frame (one direction, one round)
    bump(sender);      // correction frame(s)
  }
  return c;
}

void generate_bundles_ot_ext(const PreprocessingPlan& plan, crypto::TwoPartyContext& ctx,
                             const std::vector<std::uint64_t>& dealer_seeds,
                             QueryBundle* bundles) {
  const std::size_t lanes = dealer_seeds.size();
  if (lanes == 0) return;
  for (std::size_t l = 0; l < lanes; ++l) shape_bundle(plan, bundles[l]);
  // Half-stream seeding is the trust boundary of this generator.  In the
  // in-process simulation modes both halves come from the canonical
  // half_stream_seed / rot_half_stream_seed(dealer_seed, p) so the bundles
  // stay bit-identical to TripleDealer's — the verification contract the
  // differential tests pin.
  // In a remote (two-process) context that canonical seed is PUBLIC (both
  // endpoints derive it from the query index), so using it would let the
  // peer recompute this party's halves and with them every triple in the
  // clear.  There each lane's half seed is drawn from role_prng instead:
  // process-local entropy the peer cannot reconstruct.  That deliberately
  // gives up dealer bit-identity for remote ot-ext runs — logits then agree
  // with the dealer path only up to truncation-LSB noise — in exchange for
  // triples that are genuinely secret between the two endpoints.
  const bool remote = ctx.local_party() >= 0;
  std::vector<PartyLaneMat> mats[2];
  for (int p = 0; p < 2; ++p) {
    mats[p].resize(lanes);
    if (!ctx.runs(p)) continue;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t half_seed = remote
                                          ? ctx.role_prng(p).next_u64()
                                          : crypto::half_stream_seed(dealer_seeds[l], p);
      const std::uint64_t rot_seed = remote
                                         ? ctx.role_prng(p).next_u64()
                                         : crypto::rot_half_stream_seed(dealer_seeds[l], p);
      fill_halves(plan, p, half_seed, rot_seed, bundles[l], mats[p][l]);
    }
  }
  WalkIo io;
  io.plan = &plan;
  io.lanes = lanes;
  io.bundles = bundles;
  io.mats = mats;
  io.sender = 0;
  run_direction(ctx, io);
  io.sender = 1;
  run_direction(ctx, io);
}

}  // namespace pasnet::offline
