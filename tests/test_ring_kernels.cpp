// Differential property tests for the ring-kernel layer: every kernel must
// be bit-identical to the naive per-element masked reference loops, across
// ring widths 8..64, tail sizes, random and served GEMM shapes,
// strides/paddings, and adversarial values (signed boundaries, all-ones,
// wraparound products).  Two test names still say "EveryBackend" from when
// the layer had hand-written SIMD backends; there is one implementation now.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "crypto/ring.hpp"
#include "crypto/ring_kernels.hpp"

namespace pc = pasnet::crypto;
namespace kern = pasnet::crypto::kern;

namespace {

using Vec = std::vector<std::uint64_t>;

/// Random values seeded with adversarial patterns: signed boundaries of the
/// ring, all-ones, zero, and high-bit garbage above the mask (kernels must
/// reduce, not trust their inputs' high bits on entry where the contract
/// says "already reduced" — we stay in-contract and pre-mask).
Vec random_vec(pc::Prng& prng, std::size_t n, const pc::RingConfig& rc) {
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = prng.next_u64() & rc.mask();
  if (n >= 6) {
    v[0] = 0;
    v[1] = rc.mask();                 // -1: the wraparound magnet
    v[2] = rc.sign_bit();             // most negative value
    v[3] = rc.sign_bit() - 1;         // most positive value
    v[4] = rc.sign_bit() | 1;         // min + 1
    v[5] = 1;
  }
  return v;
}

const std::vector<int> kRingBits = {8, 13, 16, 27, 32, 48, 63, 64};

}  // namespace

TEST(RingKernels, ElementwiseMatchesNaiveEveryBackendAndWidth) {
  pc::Prng prng(0xEE1);
  for (const int bits : kRingBits) {
    pc::RingConfig rc{bits, 4, 32};
    const std::uint64_t m = rc.mask();
    // Sizes straddle every vector-width tail case (0..2 vectors plus remainders).
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{7}, std::size_t{8}, std::size_t{65},
                                std::size_t{257}}) {
      const Vec a = random_vec(prng, n, rc);
      const Vec b = random_vec(prng, n, rc);
      const Vec z = random_vec(prng, n, rc);
      const std::uint64_t c = prng.next_u64() & m;
      Vec got(n), want(n);

      kern::add(got.data(), a.data(), b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] + b[i]) & m;
      EXPECT_EQ(got, want) << "add bits=" << bits;

      kern::sub(got.data(), a.data(), b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] - b[i]) & m;
      EXPECT_EQ(got, want) << "sub bits=" << bits;

      kern::mul(got.data(), a.data(), b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] * b[i]) & m;
      EXPECT_EQ(got, want) << "mul bits=" << bits;

      kern::scale(got.data(), a.data(), c, n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] * c) & m;
      EXPECT_EQ(got, want) << "scale bits=" << bits;

      kern::scale_add(got.data(), a.data(), c, b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] * c + b[i]) & m;
      EXPECT_EQ(got, want) << "scale_add bits=" << bits;

      kern::add_const(got.data(), a.data(), c, n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] + c) & m;
      EXPECT_EQ(got, want) << "add_const bits=" << bits;

      got = z;
      kern::mul_sub(got.data(), a.data(), b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (z[i] - a[i] * b[i]) & m;
      EXPECT_EQ(got, want) << "mul_sub bits=" << bits;

      kern::beaver_combine(got.data(), a.data(), b.data(), z.data(), a.data(), b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] * b[i] + z[i] * a[i] + b[i]) & m;
      EXPECT_EQ(got, want) << "beaver bits=" << bits;

      for (const bool add_e2 : {false, true}) {
        kern::square_combine(got.data(), z.data(), a.data(), b.data(), add_e2, n, m);
        for (std::size_t i = 0; i < n; ++i) {
          std::uint64_t v = z[i] + 2 * (a[i] * b[i]);
          if (add_e2) v += a[i] * a[i];
          want[i] = v & m;
        }
        EXPECT_EQ(got, want) << "square e2=" << add_e2 << " bits=" << bits;
      }

      // Aliased in-place form (dst == a), allowed by the contract.
      got = a;
      kern::add(got.data(), got.data(), b.data(), n, m);
      for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] + b[i]) & m;
      EXPECT_EQ(got, want) << "aliased add bits=" << bits;
    }
  }
}

TEST(RingKernels, TruncMatchesRingTruncateEveryBackendAndWidth) {
  pc::Prng prng(0xEE2);
  for (const int bits : kRingBits) {
    for (const int frac : {0, 1, 4, 12}) {
      if (frac >= bits) continue;
      pc::RingConfig rc{bits, frac, 32};
      const std::size_t n = 133;
      const Vec a = random_vec(prng, n, rc);
      Vec got(n);
      kern::trunc(got.data(), a.data(), n, bits, frac, rc.mask());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], pc::truncate(a[i], rc))
            << "trunc bits=" << bits << " frac=" << frac << " v=" << a[i];
      }
      kern::trunc_neg(got.data(), a.data(), n, bits, frac, rc.mask());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], pc::ring_neg(pc::truncate(pc::ring_neg(a[i], rc), rc), rc))
            << "trunc_neg bits=" << bits << " frac=" << frac << " v=" << a[i];
      }
    }
  }
}

TEST(RingKernels, GemmMatchesNaiveTripleLoopRandomShapes) {
  pc::Prng prng(0xEE3);
  const auto check = [&prng](std::size_t m, std::size_t k, std::size_t n,
                             const pc::RingConfig& rc) {
    const std::uint64_t mask = rc.mask();
    const Vec a = random_vec(prng, m * k, rc);
    const Vec b = random_vec(prng, k * n, rc);
    Vec want(m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t acc = 0;
        for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
        want[i * n + j] = acc & mask;
      }
    }
    Vec got(m * n);
    kern::gemm(got.data(), a.data(), b.data(), m, k, n, mask);
    ASSERT_EQ(got, want) << "gemm " << m << "x" << k << "x" << n << " bits=" << rc.bits;
    // gemm_acc seeds from an arbitrary base and masks lazily.
    Vec base = random_vec(prng, m * n, rc);
    Vec acc = base;
    kern::gemm_acc(acc.data(), a.data(), b.data(), m, k, n);
    kern::reduce(acc.data(), acc.data(), m * n, mask);
    for (std::size_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(acc[i], (base[i] + want[i]) & mask)
          << "gemm_acc " << m << "x" << k << "x" << n << " idx=" << i;
    }
  };
  for (const int bits : {8, 19, 32, 64}) {
    const pc::RingConfig rc{bits, 4, 32};
    // The conv GEMMs the proxies serve on 8x8 inputs (out_ch x c*k^2 x oh*ow):
    // 64, 16, 4 and 1 output columns, more rows than the random shapes reach.
    check(4, 36, 64, rc);
    check(8, 72, 16, rc);
    check(16, 144, 4, rc);
    check(32, 288, 1, rc);
    for (int trial = 0; trial < 8; ++trial) {
      // Shapes straddle the blocking constants (kc=128, nc=512).
      const std::size_t m = 1 + prng.next_u64() % 5;
      const std::size_t k = 1 + prng.next_u64() % 200;
      const std::size_t n = 1 + prng.next_u64() % 600;
      check(m, k, n, rc);
    }
  }
}

TEST(RingKernels, Im2colPlusGemmMatchesDirectConvolution) {
  pc::Prng prng(0xEE4);
  for (int trial = 0; trial < 12; ++trial) {
    const int c = 1 + static_cast<int>(prng.next_u64() % 4);
    const int h = 3 + static_cast<int>(prng.next_u64() % 8);
    const int w = 3 + static_cast<int>(prng.next_u64() % 8);
    const int kernel = 1 + static_cast<int>(prng.next_u64() % 3);
    const int stride = 1 + static_cast<int>(prng.next_u64() % 3);
    const int pad = static_cast<int>(prng.next_u64() % (kernel + 1));
    const int out_ch = 1 + static_cast<int>(prng.next_u64() % 3);
    const int oh = (h + 2 * pad - kernel) / stride + 1;
    const int ow = (w + 2 * pad - kernel) / stride + 1;
    if (oh <= 0 || ow <= 0) continue;
    pc::RingConfig rc{trial % 2 == 0 ? 32 : 64, 4, 32};
    const std::uint64_t mask = rc.mask();
    const int samples = 2;
    const Vec data = random_vec(prng, static_cast<std::size_t>(samples) * c * h * w, rc);
    const std::size_t k_dim = static_cast<std::size_t>(c) * kernel * kernel;
    const Vec wmat = random_vec(prng, static_cast<std::size_t>(out_ch) * k_dim, rc);
    const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
    // Exercise a non-zero sample index so the sample-offset math is live.
    for (int s = 0; s < samples; ++s) {
      Vec cols(k_dim * spatial);
      kern::im2col(cols.data(), data.data(), c, h, w, s, kernel, stride, pad, oh, ow);
      Vec got(static_cast<std::size_t>(out_ch) * spatial);
      kern::gemm(got.data(), wmat.data(), cols.data(), static_cast<std::size_t>(out_ch), k_dim,
                 spatial, mask);
      // Naive direct convolution, masked per output element.
      for (int oc = 0; oc < out_ch; ++oc) {
        for (int y = 0; y < oh; ++y) {
          for (int x = 0; x < ow; ++x) {
            std::uint64_t acc = 0;
            for (int ch = 0; ch < c; ++ch) {
              for (int kh = 0; kh < kernel; ++kh) {
                for (int kw = 0; kw < kernel; ++kw) {
                  const int in_y = y * stride + kh - pad;
                  const int in_x = x * stride + kw - pad;
                  if (in_y < 0 || in_y >= h || in_x < 0 || in_x >= w) continue;
                  const std::size_t didx =
                      ((static_cast<std::size_t>(s) * c + ch) * h + in_y) * w + in_x;
                  const std::size_t widx =
                      (static_cast<std::size_t>(oc) * c + ch) * kernel * kernel +
                      static_cast<std::size_t>(kh) * kernel + kw;
                  acc += wmat[widx] * data[didx];
                }
              }
            }
            const std::size_t oidx =
                static_cast<std::size_t>(oc) * spatial + static_cast<std::size_t>(y) * ow + x;
            ASSERT_EQ(got[oidx], acc & mask)
                << "conv c=" << c << " h=" << h << " w=" << w << " k=" << kernel
                << " s=" << stride << " p=" << pad << " sample=" << s << " oc=" << oc
                << " y=" << y << " x=" << x;
          }
        }
      }
    }
  }
}

TEST(RingKernels, CopyStridedMatchesGatherLoop) {
  pc::Prng prng(0xEE5);
  pc::RingConfig rc{64, 0, 32};
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                   std::size_t{7}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                                std::size_t{100}}) {
      const Vec src = random_vec(prng, n * stride + 1, rc);
      Vec got(n, 0xABAB), want(n);
      kern::copy_strided(got.data(), src.data(), n, stride);
      for (std::size_t i = 0; i < n; ++i) want[i] = src[i * stride];
      EXPECT_EQ(got, want) << "stride=" << stride << " n=" << n;
    }
  }
}

TEST(RingKernels, VecHelpersRouteThroughKernels) {
  // The crypto-layer vector helpers run through kern::* and must agree with
  // the scalar ring ops.
  pc::Prng prng(0xEE6);
  for (const int bits : {8, 32, 64}) {
    pc::RingConfig rc{bits, 4, 32};
    const std::size_t n = 37;
    const pc::RingVec a = random_vec(prng, n, rc);
    const pc::RingVec b = random_vec(prng, n, rc);
    const std::uint64_t c = prng.next_u64() & rc.mask();
    const pc::RingVec s = pc::add_vec(a, b, rc);
    const pc::RingVec d = pc::sub_vec(a, b, rc);
    const pc::RingVec p = pc::mul_vec(a, b, rc);
    const pc::RingVec sc = pc::scale_vec(a, c, rc);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s[i], pc::ring_add(a[i], b[i], rc)) << "bits=" << bits;
      EXPECT_EQ(d[i], pc::ring_sub(a[i], b[i], rc)) << "bits=" << bits;
      EXPECT_EQ(p[i], pc::ring_mul(a[i], b[i], rc)) << "bits=" << bits;
      EXPECT_EQ(sc[i], pc::ring_mul(a[i], c, rc)) << "bits=" << bits;
    }
  }
}
