#include "crypto/secret_share.hpp"

#include <stdexcept>

#include "crypto/party.hpp"
#include "crypto/ring_kernels.hpp"

namespace pasnet::crypto {

Shared share(const RingVec& x, Prng& prng, const RingConfig& rc) {
  Shared out;
  out.s0.resize(x.size());
  out.s1.resize(x.size());
  // The PRNG draw order is part of the protocol transcript — keep the
  // sequential loop, then form s1 = x - s0 in one kernel pass.
  for (std::size_t i = 0; i < x.size(); ++i) {
    out.s0[i] = prng.next_u64() & rc.mask();
  }
  kern::sub(out.s1.data(), x.data(), out.s0.data(), x.size(), rc.mask());
  return out;
}

Shared share_reals(const std::vector<double>& xs, Prng& prng, const RingConfig& rc) {
  return share(encode_vec(xs, rc), prng, rc);
}

RingVec reconstruct(const Shared& x, const RingConfig& rc) {
  return add_vec(x.s0, x.s1, rc);
}

std::vector<double> reconstruct_reals(const Shared& x, const RingConfig& rc) {
  return decode_vec(reconstruct(x, rc), rc);
}

Shared linear(const TwoPartyContext& ctx, std::uint64_t a, const Shared& x, const Shared& y) {
  if (x.size() != y.size()) throw std::invalid_argument("linear: size mismatch");
  return per_party(ctx, [&](int p) {
    return add_vec(scale_vec(x.share(p), a, ctx.ring()), y.share(p), ctx.ring());
  });
}

Shared add(const TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  return per_party(ctx, [&](int p) { return add_vec(x.share(p), y.share(p), ctx.ring()); });
}

Shared sub(const TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  return per_party(ctx, [&](int p) { return sub_vec(x.share(p), y.share(p), ctx.ring()); });
}

Shared scale(const TwoPartyContext& ctx, const Shared& x, std::uint64_t c) {
  return per_party(ctx, [&](int p) { return scale_vec(x.share(p), c, ctx.ring()); });
}

Shared add_public(const TwoPartyContext& ctx, const Shared& x, const RingVec& c) {
  if (x.size() != c.size()) throw std::invalid_argument("add_public: size mismatch");
  return per_party(ctx, [&](int p) { return p == 0 ? add_vec(x.s0, c, ctx.ring()) : x.s1; });
}

Shared truncate_shares(const TwoPartyContext& ctx, const Shared& x) {
  const RingConfig& rc = ctx.ring();
  return per_party(ctx, [&](int p) {
    RingVec out(x.size());
    if (p == 0) {
      kern::trunc(out.data(), x.s0.data(), x.size(), rc.bits, rc.frac_bits, rc.mask());
    } else {
      kern::trunc_neg(out.data(), x.s1.data(), x.size(), rc.bits, rc.frac_bits, rc.mask());
    }
    return out;
  });
}

}  // namespace pasnet::crypto
