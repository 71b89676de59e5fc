#include "proto/secure_ops.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/party.hpp"
#include "crypto/ring_kernels.hpp"

namespace pasnet::proto {

namespace {

using crypto::RingConfig;
using crypto::RingVec;
using crypto::Shared;
using crypto::TwoPartyContext;

// memcpy-based subvector copy: iterator-range assign on an empty range makes
// GCC 12's -Wnonnull fire on the inlined memmove, and -Werror builds fail
// (same workaround as crypto/compare.cpp).
RingVec slice_ring(const RingVec& v, std::size_t lo, std::size_t hi) {
  RingVec out(hi - lo);
  if (hi > lo) std::memcpy(out.data(), v.data() + lo, (hi - lo) * sizeof(std::uint64_t));
  return out;
}

/// Appends src's shares to dst's, for the parties `ctx` runs.
void append_shares(const TwoPartyContext& ctx, Shared& dst, const Shared& src) {
  for (int p = 0; p < 2; ++p) {
    if (!ctx.runs(p)) continue;
    dst.share(p).insert(dst.share(p).end(), src.share(p).begin(), src.share(p).end());
  }
}

/// Gathers a strided window tap into a flat share vector (for pooling).
/// The valid output-x range is computed once per tap so the inner copy is a
/// bounds-free strided gather (a memcpy when stride == 1).
Shared gather_window_tap(const TwoPartyContext& ctx, const SecureTensor& x, int kh, int kw,
                         int kernel, int stride, int pad) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = nn::conv_out_size(h, kernel, stride, pad);
  const int ow = nn::conv_out_size(w, kernel, stride, pad);
  const std::size_t out_n = static_cast<std::size_t>(n) * c * oh * ow;
  // Valid x range [x0, x1): 0 <= x*stride + kw - pad < w.
  const int off = kw - pad;
  const int x0 = off >= 0 ? 0 : (-off + stride - 1) / stride;
  int x1 = w - off <= 0 ? 0 : (w - off + stride - 1) / stride;
  if (x1 > ow) x1 = ow;
  return crypto::per_party(ctx, [&](int p) {
    RingVec tap(out_n, 0);
    if (x1 <= x0) return tap;
    const std::size_t run = static_cast<std::size_t>(x1 - x0);
    for (int s = 0; s < n; ++s) {
      for (int ch = 0; ch < c; ++ch) {
        const std::size_t plane = static_cast<std::size_t>(s) * c + ch;
        for (int y = 0; y < oh; ++y) {
          const int in_y = y * stride + kh - pad;
          if (in_y < 0 || in_y >= h) continue;
          const std::size_t src = (plane * h + in_y) * w + x0 * stride + off;
          const std::size_t dst = (plane * oh + y) * ow + x0;
          crypto::kern::copy_strided(tap.data() + dst, x.shares.share(p).data() + src, run,
                                     static_cast<std::size_t>(stride));
        }
      }
    }
    return tap;
  });
}

crypto::BilinearSpec conv_spec(const SecureTensor& x, int out_ch, int kernel, int stride,
                               int pad, bool depthwise) {
  crypto::BilinearSpec spec;
  spec.kind = depthwise ? crypto::BilinearKind::depthwise_conv2d : crypto::BilinearKind::conv2d;
  spec.batch = x.dim(0);
  spec.in_ch = x.dim(1);
  spec.in_h = x.dim(2);
  spec.in_w = x.dim(3);
  spec.out_ch = out_ch;
  spec.kernel = kernel;
  spec.stride = stride;
  spec.pad = pad;
  return spec;
}

}  // namespace

SecureTensor share_tensor(const nn::Tensor& x, crypto::Prng& prng, const RingConfig& rc) {
  SecureTensor st;
  st.shape = x.shape();
  st.shares = crypto::share_reals(x.to_doubles(), prng, rc);
  return st;
}

nn::Tensor reconstruct_tensor(const SecureTensor& x, const RingConfig& rc) {
  return nn::Tensor::from_doubles(crypto::reconstruct_reals(x.shares, rc),
                                  std::vector<int>(x.shape));
}

// ---------------------------------------------------------------------------
// Staged operator forms
// ---------------------------------------------------------------------------

StagedConv2d::StagedConv2d(const SecureTensor& x, const crypto::Shared& weight,
                           const crypto::Shared* bias, int out_ch, int kernel, int stride,
                           int pad, bool depthwise)
    : x_(x), weight_(weight), bias_(bias), out_ch_(out_ch), kernel_(kernel), stride_(stride),
      pad_(pad), depthwise_(depthwise) {
  const std::size_t k2 = static_cast<std::size_t>(kernel) * kernel;
  const std::size_t want = depthwise ? static_cast<std::size_t>(x.dim(1)) * k2
                                     : static_cast<std::size_t>(out_ch) * x.dim(1) * k2;
  if (weight.size() != want) {
    throw std::invalid_argument(depthwise ? "secure_depthwise_conv2d: weight shape mismatch"
                                          : "secure_conv2d: weight shape mismatch");
  }
}

void StagedConv2d::stage(TwoPartyContext& ctx) {
  // Convolution-shaped Beaver triple: A input-shaped, B weight-shaped,
  // Z = conv(A, B).  Built from a serializable spec so offline
  // preprocessing can regenerate the exact same correlation.
  round_.stage(ctx, x_.shares, weight_,
               conv_spec(x_, out_ch_, kernel_, stride_, pad_, depthwise_));
}

SecureTensor StagedConv2d::finish(TwoPartyContext& ctx) {
  const RingConfig& rc = ctx.ring();
  const int n = x_.dim(0);
  const int oh = nn::conv_out_size(x_.dim(2), kernel_, stride_, pad_);
  const int ow = nn::conv_out_size(x_.dim(3), kernel_, stride_, pad_);
  Shared y = crypto::truncate_shares(ctx, round_.finish(ctx));
  if (bias_ != nullptr) {
    // Broadcast-add the per-channel bias over the spatial output.
    const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
    for (int p = 0; p < 2; ++p) {
      if (!ctx.runs(p)) continue;
      std::uint64_t* const yp = y.share(p).data();
      for (int s = 0; s < n; ++s) {
        for (int oc = 0; oc < out_ch_; ++oc) {
          const std::size_t base = (static_cast<std::size_t>(s) * out_ch_ + oc) * spatial;
          crypto::kern::add_const(yp + base, yp + base,
                                  bias_->share(p)[static_cast<std::size_t>(oc)], spatial,
                                  rc.mask());
        }
      }
    }
  }
  SecureTensor out;
  out.shape = {n, out_ch_, oh, ow};
  out.shares = std::move(y);
  return out;
}

StagedLinear::StagedLinear(const SecureTensor& x, const crypto::Shared& weight,
                           const crypto::Shared* bias, int out_features)
    : x_(x), weight_(weight), bias_(bias), out_features_(out_features) {
  const int n = x.dim(0);
  const std::size_t in_f = x.size() / static_cast<std::size_t>(n);
  if (weight.size() != static_cast<std::size_t>(out_features) * in_f) {
    throw std::invalid_argument("secure_linear: weight shape mismatch");
  }
}

void StagedLinear::stage(TwoPartyContext& ctx) {
  // y = x·Wᵀ as per-sample W·xₛ products.  The per-sample matmul triple and
  // opening stream is part of the pinned transcript (the round/byte guards
  // assert it exactly), so the rounds stay sample-shaped; the actual share
  // arithmetic runs through the blocked GEMM kernel in MatmulRound::finish.
  const int n = x_.dim(0);
  const std::size_t in_f = x_.size() / static_cast<std::size_t>(n);
  rounds_.resize(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    Shared xs = crypto::per_party(
        ctx, [&](int p) { return slice_ring(x_.shares.share(p), s * in_f, (s + 1) * in_f); });
    rounds_[static_cast<std::size_t>(s)].stage(ctx, weight_, std::move(xs),
                                               static_cast<std::size_t>(out_features_), in_f,
                                               1);
  }
}

SecureTensor StagedLinear::finish(TwoPartyContext& ctx) {
  const RingConfig& rc = ctx.ring();
  const int n = x_.dim(0);
  SecureTensor out;
  out.shape = {n, out_features_};
  const std::size_t of = static_cast<std::size_t>(out_features_);
  out.shares =
      crypto::per_party(ctx, [&](int) { return RingVec(static_cast<std::size_t>(n) * of); });
  for (int s = 0; s < n; ++s) {
    const Shared y =
        crypto::truncate_shares(ctx, rounds_[static_cast<std::size_t>(s)].finish(ctx));
    const std::size_t base = static_cast<std::size_t>(s) * of;
    for (int p = 0; p < 2; ++p) {
      if (!ctx.runs(p)) continue;
      std::uint64_t* const dst = out.shares.share(p).data() + base;
      if (bias_ != nullptr) {
        crypto::kern::add(dst, y.share(p).data(), bias_->share(p).data(), of, rc.mask());
      } else {
        std::memcpy(dst, y.share(p).data(), of * sizeof(std::uint64_t));
      }
    }
  }
  return out;
}

StagedX2act::StagedX2act(const SecureTensor& x, double a_coeff, double w2, double b)
    : x_(x), a_(a_coeff), w2_(w2), b_(b) {}

void StagedX2act::stage(TwoPartyContext& ctx) { round_.stage(ctx, x_.shares); }

SecureTensor StagedX2act::finish(TwoPartyContext& ctx) {
  const RingConfig& rc = ctx.ring();
  // x²: the square protocol (Eq. 3) + truncation back to scale f.
  Shared sq = crypto::truncate_shares(ctx, round_.finish(ctx));
  // Public-coefficient scaling: local multiply + truncation each.
  const std::uint64_t a_enc = crypto::encode(a_, rc);
  const std::uint64_t w2_enc = crypto::encode(w2_, rc);
  Shared quad = crypto::truncate_shares(ctx, crypto::scale(ctx, sq, a_enc));
  Shared lin = crypto::truncate_shares(ctx, crypto::scale(ctx, x_.shares, w2_enc));
  Shared sum = crypto::add(ctx, quad, lin);
  const RingVec bias(x_.size(), crypto::encode(b_, rc));
  SecureTensor out;
  out.shape = x_.shape;
  out.shares = crypto::add_public(ctx, sum, bias);
  return out;
}

// ---------------------------------------------------------------------------
// Staged comparison operators
// ---------------------------------------------------------------------------

void StagedRelu::begin(TwoPartyContext& ctx) {
  crypto::DreluMuxMaterial mat = crypto::draw_drelu_mux_material(ctx, x_.shares.size(), 1);
  std::vector<Shared> payloads;
  payloads.push_back(x_.shares);
  core_.begin(ctx, std::move(payloads), std::move(mat));
}

crypto::CompareWait StagedRelu::waiting() const { return core_.waiting(); }

void StagedRelu::step(TwoPartyContext& ctx) { core_.step(ctx); }

SecureTensor StagedRelu::take(TwoPartyContext& ctx) {
  (void)ctx;
  SecureTensor out;
  out.shape = x_.shape;
  out.shares = std::move(core_.result().front());
  return out;
}

void StagedTournament::begin_tournament(TwoPartyContext& ctx,
                                        std::vector<std::vector<Shared>> entries) {
  if (entries.empty() || entries.front().empty()) {
    throw std::invalid_argument("StagedTournament: no entries");
  }
  entries_ = std::move(entries);
  // Draw every level's material up front, in level order — the request
  // stream ir::derive_plan derives from the same level shape.
  const std::size_t payloads = entries_.front().size();
  const std::size_t elems = entries_.front().front().size();
  mats_.clear();
  for (const std::size_t pairs : crypto::tournament_level_pairs(entries_.size())) {
    mats_.push_back(crypto::draw_drelu_mux_material(ctx, pairs * elems, payloads));
  }
  level_ = 0;
  done_ = entries_.size() <= 1;
  if (!done_) begin_level(ctx);
}

void StagedTournament::begin_level(TwoPartyContext& ctx) {
  // One batched gated select over all pairs of the level: per payload,
  // the a and b sides of every pair concatenate into single protocol
  // phases, and the value difference drives the one comparison.
  const std::size_t pairs = entries_.size() / 2;
  const std::size_t payloads = entries_.front().size();
  std::vector<Shared> diffs(payloads);
  level_b_.assign(payloads, Shared{});
  for (std::size_t j = 0; j < payloads; ++j) {
    Shared a;
    for (std::size_t p = 0; p < pairs; ++p) {
      append_shares(ctx, a, entries_[2 * p][j]);
      append_shares(ctx, level_b_[j], entries_[2 * p + 1][j]);
    }
    diffs[j] = crypto::sub(ctx, a, level_b_[j]);
  }
  mux_ = crypto::StagedDreluMux{};
  mux_.begin(ctx, std::move(diffs), std::move(mats_[level_]));
}

crypto::CompareWait StagedTournament::waiting() const {
  return done_ ? crypto::CompareWait::done : mux_.waiting();
}

void StagedTournament::step(TwoPartyContext& ctx) {
  mux_.step(ctx);
  if (mux_.waiting() != crypto::CompareWait::done) return;
  // Level complete: winners = b + gated, sliced back into per-pair entries.
  const std::size_t pairs = entries_.size() / 2;
  const std::size_t payloads = level_b_.size();
  const std::size_t elems = level_b_.front().size() / pairs;
  std::vector<std::vector<Shared>> next(pairs, std::vector<Shared>(payloads));
  for (std::size_t j = 0; j < payloads; ++j) {
    const Shared win = crypto::add(ctx, level_b_[j], mux_.result()[j]);
    for (std::size_t p = 0; p < pairs; ++p) {
      next[p][j] = crypto::per_party(
          ctx, [&](int h) { return slice_ring(win.share(h), p * elems, (p + 1) * elems); });
    }
  }
  if (entries_.size() % 2 == 1) next.push_back(std::move(entries_.back()));
  entries_ = std::move(next);
  ++level_;
  if (entries_.size() > 1) {
    begin_level(ctx);
  } else {
    done_ = true;
  }
}

void StagedMaxPool::begin(TwoPartyContext& ctx) {
  // One entry per window tap; padding positions hold zero shares (valid
  // for the non-negative post-activation maps our backbones pool).
  std::vector<std::vector<Shared>> taps;
  taps.reserve(static_cast<std::size_t>(kernel_) * kernel_);
  for (int kh = 0; kh < kernel_; ++kh) {
    for (int kw = 0; kw < kernel_; ++kw) {
      taps.emplace_back().push_back(gather_window_tap(ctx, x_, kh, kw, kernel_, stride_, pad_));
    }
  }
  begin_tournament(ctx, std::move(taps));
}

SecureTensor StagedMaxPool::take(TwoPartyContext& ctx) {
  (void)ctx;
  SecureTensor out;
  const int n = x_.dim(0), c = x_.dim(1);
  out.shape = {n, c, nn::conv_out_size(x_.dim(2), kernel_, stride_, pad_),
               nn::conv_out_size(x_.dim(3), kernel_, stride_, pad_)};
  out.shares = std::move(winner().front());
  return out;
}

void StagedArgmax::begin(TwoPartyContext& ctx) {
  // One (value, index) entry per class, each over the N rows.  Values
  // carry the fixed-point scale; indices are raw integers, trivially
  // shared.
  const auto n = static_cast<std::size_t>(logits_.dim(0));
  const int classes = logits_.dim(1);
  std::vector<std::vector<Shared>> entries(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    std::vector<Shared>& e = entries[static_cast<std::size_t>(c)];
    e.push_back(crypto::per_party(ctx, [&](int p) {
      RingVec column(n);
      for (std::size_t r = 0; r < n; ++r) {
        column[r] = logits_.shares.share(p)[r * static_cast<std::size_t>(classes) + c];
      }
      return column;
    }));
    e.push_back(crypto::per_party(
        ctx, [&](int p) { return RingVec(n, p == 0 ? static_cast<std::uint64_t>(c) : 0); }));
  }
  begin_tournament(ctx, std::move(entries));
}

SecureTensor StagedArgmax::take(TwoPartyContext& ctx) {
  (void)ctx;
  SecureTensor out;
  out.shape = {logits_.dim(0), 1};
  out.shares = std::move(winner()[1]);
  return out;
}

// ---------------------------------------------------------------------------
// One-shot operators (stage + flush + finish)
// ---------------------------------------------------------------------------

namespace {

/// Runs one staged comparison op as a group of one and takes its output.
SecureTensor run_compare_op(TwoPartyContext& ctx, StagedCompareOp& op) {
  crypto::run_staged(ctx, op);
  return op.take(ctx);
}

}  // namespace

SecureTensor secure_conv2d(TwoPartyContext& ctx, const SecureTensor& x, const Shared& weight,
                           const Shared* bias, int out_ch, int kernel, int stride, int pad) {
  StagedConv2d op(x, weight, bias, out_ch, kernel, stride, pad, /*depthwise=*/false);
  op.stage(ctx);
  ctx.opens().flush();
  return op.finish(ctx);
}

SecureTensor secure_depthwise_conv2d(TwoPartyContext& ctx, const SecureTensor& x,
                                     const Shared& weight, int kernel, int stride, int pad) {
  StagedConv2d op(x, weight, /*bias=*/nullptr, /*out_ch=*/x.dim(1), kernel, stride, pad,
                  /*depthwise=*/true);
  op.stage(ctx);
  ctx.opens().flush();
  return op.finish(ctx);
}

SecureTensor secure_linear(TwoPartyContext& ctx, const SecureTensor& x, const Shared& weight,
                           const Shared* bias, int out_features) {
  StagedLinear op(x, weight, bias, out_features);
  op.stage(ctx);
  ctx.opens().flush();
  return op.finish(ctx);
}

SecureTensor secure_x2act(TwoPartyContext& ctx, const SecureTensor& x, double a_coeff,
                          double w2, double b) {
  StagedX2act op(x, a_coeff, w2, b);
  op.stage(ctx);
  ctx.opens().flush();
  return op.finish(ctx);
}

SecureTensor secure_relu(TwoPartyContext& ctx, const SecureTensor& x) {
  StagedRelu op(x);
  return run_compare_op(ctx, op);
}

SecureTensor secure_maxpool(TwoPartyContext& ctx, const SecureTensor& x, int kernel,
                            int stride, int pad) {
  StagedMaxPool op(x, kernel, stride, pad);
  return run_compare_op(ctx, op);
}

SecureTensor secure_avgpool(TwoPartyContext& ctx, const SecureTensor& x, int kernel,
                            int stride, int pad) {
  const RingConfig& rc = ctx.ring();
  Shared sum = gather_window_tap(ctx, x, 0, 0, kernel, stride, pad);
  for (int t = 1; t < kernel * kernel; ++t) {
    const Shared tap = gather_window_tap(ctx, x, t / kernel, t % kernel, kernel, stride, pad);
    for (int p = 0; p < 2; ++p) {
      if (!ctx.runs(p)) continue;
      std::uint64_t* const acc = sum.share(p).data();
      crypto::kern::add(acc, acc, tap.share(p).data(), tap.size(), rc.mask());
    }
  }
  const std::uint64_t inv = crypto::encode(1.0 / (kernel * kernel), rc);
  SecureTensor out;
  const int n = x.dim(0), c = x.dim(1);
  out.shape = {n, c, nn::conv_out_size(x.dim(2), kernel, stride, pad),
               nn::conv_out_size(x.dim(3), kernel, stride, pad)};
  out.shares = crypto::truncate_shares(ctx, crypto::scale(ctx, sum, inv));
  return out;
}

SecureTensor secure_global_avgpool(TwoPartyContext& ctx, const SecureTensor& x) {
  const RingConfig& rc = ctx.ring();
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  SecureTensor out;
  out.shape = {n, c, 1, 1};
  const std::size_t planes = static_cast<std::size_t>(n) * c;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const Shared sums = crypto::per_party(ctx, [&](int p) {
    RingVec sum(planes);
    for (std::size_t i = 0; i < planes; ++i) {
      // Lazy reduction: accumulate mod 2^64 over the plane, mask once.
      const std::uint64_t* const src = x.shares.share(p).data() + i * plane;
      std::uint64_t acc = 0;
      for (std::size_t j = 0; j < plane; ++j) acc += src[j];
      sum[i] = acc & rc.mask();
    }
    return sum;
  });
  const std::uint64_t inv = crypto::encode(1.0 / (h * w), rc);
  out.shares = crypto::truncate_shares(ctx, crypto::scale(ctx, sums, inv));
  return out;
}

SecureTensor secure_add(TwoPartyContext& ctx, const SecureTensor& a, const SecureTensor& b) {
  if (a.shape != b.shape) throw std::invalid_argument("secure_add: shape mismatch");
  SecureTensor out;
  out.shape = a.shape;
  out.shares = crypto::add(ctx, a.shares, b.shares);
  return out;
}

SecureTensor secure_flatten(const SecureTensor& x) {
  SecureTensor out = x;
  const int n = x.dim(0);
  out.shape = {n, static_cast<int>(x.size()) / n};
  return out;
}

std::vector<int> secure_argmax(TwoPartyContext& ctx, const SecureTensor& logits) {
  StagedArgmax op(logits);
  const RingVec revealed = crypto::open(ctx, run_compare_op(ctx, op).shares);
  std::vector<int> out;
  out.reserve(revealed.size());
  for (const std::uint64_t v : revealed) {
    out.push_back(static_cast<int>(crypto::to_signed(v, ctx.ring())));
  }
  return out;
}

}  // namespace pasnet::proto
