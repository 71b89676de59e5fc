#include "crypto/ring_kernels.hpp"

#include <cstring>

namespace pasnet::crypto::kern {

// The loops keep the mask hoisted and reduce once per element; the compiler
// auto-vectorizes most of them at the portable baseline.

void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] + b[i]) & mask;
}

void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] - b[i]) & mask;
}

void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] * b[i]) & mask;
}

void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
            std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & mask;
}

void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
           std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] * c) & mask;
}

void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
               const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] * c + b[i]) & mask;
}

void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
               std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] + c) & mask;
}

void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (dst[i] - a[i] * b[i]) & mask;
}

void beaver_combine(std::uint64_t* dst, const std::uint64_t* x, const std::uint64_t* f,
                    const std::uint64_t* e, const std::uint64_t* y, const std::uint64_t* z,
                    std::size_t n, std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (x[i] * f[i] + e[i] * y[i] + z[i]) & mask;
}

void square_combine(std::uint64_t* dst, const std::uint64_t* z, const std::uint64_t* e,
                    const std::uint64_t* a, bool add_e2, std::size_t n,
                    std::uint64_t mask) noexcept {
  if (add_e2) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = (z[i] + 2 * (e[i] * a[i]) + e[i] * e[i]) & mask;
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = (z[i] + 2 * (e[i] * a[i])) & mask;
  }
}

void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
           std::uint64_t mask) noexcept {
  // sext_bits(v) >> frac == (int64(v << s)) >> (s + frac) with s = 64-bits:
  // sequential arithmetic shifts compose, so the sign extension and the
  // fraction shift fuse into one.
  const int s = 64 - bits;
  const int sh = s + frac;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(a[i] << s) >> sh) & mask;
  }
}

void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
               std::uint64_t mask) noexcept {
  const int s = 64 - bits;
  const int sh = s + frac;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t neg = (0 - a[i]) & mask;
    const std::uint64_t t =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(neg << s) >> sh) & mask;
    dst[i] = (0 - t) & mask;
  }
}

void copy_strided(std::uint64_t* dst, const std::uint64_t* src, std::size_t n,
                  std::size_t src_stride) noexcept {
  if (src_stride == 1) {
    if (n > 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i * src_stride];
}

namespace {

/// dst[j] += c * b[j], unreduced — the GEMM inner loop.
void axpy_acc(std::uint64_t* dst, const std::uint64_t* b, std::uint64_t c,
              std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) dst[j] += c * b[j];
}

}  // namespace

void gemm_acc(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
              std::size_t k, std::size_t n) noexcept {
  // Rank-1-update schedule blocked over k and n: for each (n-block, k-block)
  // pair, stream the B panel once across all rows of A so it stays hot in
  // L1/L2.  Wrapping addition is associative and commutative, so any
  // blocking yields the bytes the naive triple loop yields.
  constexpr std::size_t kNc = 512;   // columns of B per panel (4 KiB rows)
  constexpr std::size_t kKc = 128;   // rows of B per panel
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t jw = n - jc < kNc ? n - jc : kNc;
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t pw = k - pc < kKc ? k - pc : kKc;
      for (std::size_t i = 0; i < m; ++i) {
        std::uint64_t* const orow = out + i * n + jc;
        const std::uint64_t* const arow = a + i * k + pc;
        for (std::size_t p = 0; p < pw; ++p) {
          const std::uint64_t aip = arow[p];
          if (aip == 0) continue;  // padded im2col rows are zero-heavy
          axpy_acc(orow, b + (pc + p) * n + jc, aip, jw);
        }
      }
    }
  }
}

void gemm(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
          std::size_t k, std::size_t n, std::uint64_t mask) noexcept {
  if (m * n > 0) std::memset(out, 0, m * n * sizeof(std::uint64_t));
  gemm_acc(out, a, b, m, k, n);
  if (mask != ~0ULL) reduce(out, out, m * n, mask);
}

void im2col(std::uint64_t* cols, const std::uint64_t* data, int c, int h, int w, int sample,
            int kernel, int stride, int pad, int oh, int ow) noexcept {
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  std::size_t row = 0;
  for (int ch = 0; ch < c; ++ch) {
    const std::uint64_t* const plane =
        data + (static_cast<std::size_t>(sample) * c + ch) * h * w;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw, ++row) {
        // Valid output-x range [x0, x1): 0 <= x*stride + kw - pad < w.  The
        // inner copy is then a bounds-free strided gather per output row,
        // and only the padding fringe outside [x0, x1) is zero-filled —
        // cheaper than blanket-zeroing the whole patch matrix up front.
        const int off = kw - pad;
        const int x0 = off >= 0 ? 0 : (-off + stride - 1) / stride;
        int x1 = w - off <= 0 ? 0 : (w - off + stride - 1) / stride;
        if (x1 > ow) x1 = ow;
        const bool any_x = x1 > x0;
        std::uint64_t* const crow = cols + row * spatial;
        for (int y = 0; y < oh; ++y) {
          const int in_y = y * stride + kh - pad;
          std::uint64_t* const drow = crow + static_cast<std::size_t>(y) * ow;
          if (in_y < 0 || in_y >= h || !any_x) {
            std::memset(drow, 0, static_cast<std::size_t>(ow) * sizeof(std::uint64_t));
            continue;
          }
          if (x0 > 0) std::memset(drow, 0, static_cast<std::size_t>(x0) * sizeof(std::uint64_t));
          copy_strided(drow + x0,
                       plane + static_cast<std::size_t>(in_y) * w + x0 * stride + off,
                       static_cast<std::size_t>(x1 - x0), static_cast<std::size_t>(stride));
          if (x1 < ow) {
            std::memset(drow + x1, 0,
                        static_cast<std::size_t>(ow - x1) * sizeof(std::uint64_t));
          }
        }
      }
    }
  }
}

}  // namespace pasnet::crypto::kern
