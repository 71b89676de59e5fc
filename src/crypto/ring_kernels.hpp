#pragma once
// Ring-kernel layer: the local share-arithmetic hot path.
//
// Every multiplicative 2PC operator ends in *local* uint64 ring arithmetic —
// Beaver recombination, share truncation, im2col + matrix products for the
// convolution-shaped correlations.  Those loops live here as flat-span
// kernels with one portable implementation each (see README "Performance:
// the ring-kernel layer" for why there is no hand-written SIMD path).
//
// Bit-identity contract: Z_{2^k} arithmetic is the image of native uint64
// (mod 2^64) arithmetic under masking, and wrapping addition is associative
// and commutative — so lazy reduction, re-blocking, and vectorization are
// all transcript-invariant.  Every kernel here returns exactly the bytes
// the naive per-element masked loop returns, for every ring width 8..64;
// tests/test_ring_kernels.cpp sweeps that property.
//
// All kernels accept raw spans; `dst` may alias `a`/`b` element-for-element
// (in-place update), never partially overlap.

#include <cstddef>
#include <cstdint>

namespace pasnet::crypto::kern {

// --- element-wise kernels ---------------------------------------------------
// `mask` is RingConfig::mask(): kernels reduce once per element on the way
// out instead of once per intermediate term.

/// dst = (a + b) & mask
void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept;
/// dst = (a - b) & mask
void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept;
/// dst = (a ⊙ b) & mask
void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept;
/// dst = a & mask
void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
            std::uint64_t mask) noexcept;
/// dst = (a · c) & mask  (public-scalar multiply)
void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
           std::uint64_t mask) noexcept;
/// dst = (a · c + b) & mask  (fused axpy)
void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
               const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept;
/// dst = (a + c) & mask  (broadcast-add a ring constant, e.g. a bias lane)
void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
               std::uint64_t mask) noexcept;
/// dst = (dst - a ⊙ b) & mask  (fused mask-and-accumulate, subtractive)
void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             std::uint64_t mask) noexcept;

/// Beaver recombination (paper Eq. 2), fused:
///   dst = (x ⊙ f + e ⊙ y + z) & mask
void beaver_combine(std::uint64_t* dst, const std::uint64_t* x, const std::uint64_t* f,
                    const std::uint64_t* e, const std::uint64_t* y, const std::uint64_t* z,
                    std::size_t n, std::uint64_t mask) noexcept;

/// Square recombination (paper Eq. 3), fused:
///   dst = (z + 2·e ⊙ a [+ e ⊙ e]) & mask   (the e² term is party 0's only)
void square_combine(std::uint64_t* dst, const std::uint64_t* z, const std::uint64_t* e,
                    const std::uint64_t* a, bool add_e2, std::size_t n,
                    std::uint64_t mask) noexcept;

/// SecureML local truncation, party-0 form: two's-complement arithmetic
/// shift of the masked value by `frac` inside a `bits`-wide ring.
///   dst = (sext_bits(a) >> frac) & mask
void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
           std::uint64_t mask) noexcept;
/// Party-1 form: dst = (-((sext_bits(-a)) >> frac)) & mask.
void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
               std::uint64_t mask) noexcept;

/// Strided gather: dst[i] = src[i * src_stride]  (stride 1 == memcpy).
/// The pooling/im2col tap loops use this instead of per-element bounds math.
void copy_strided(std::uint64_t* dst, const std::uint64_t* src, std::size_t n,
                  std::size_t src_stride) noexcept;

// --- blocked GEMM + im2col lowering ----------------------------------------

/// out = A · B & mask with A m×k, B k×n, out m×n, all row-major.  Blocked
/// and tiled over k and n; accumulation is lazy (mod 2^64) with one masked
/// pass at the end — bit-identical to the naive masked triple loop.
void gemm(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
          std::size_t k, std::size_t n, std::uint64_t mask) noexcept;

/// out += A · B, UNREDUCED (mod 2^64): callers fuse several products into
/// one accumulator and apply reduce() once.  Beaver matrix recombination
/// (Z + X·F + E·Y) is three of these plus one masked pass.
void gemm_acc(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
              std::size_t k, std::size_t n) noexcept;

/// im2col gather for one sample of an NCHW tensor: writes the
/// (c·kernel·kernel) × (oh·ow) patch matrix (row-major) into `cols`,
/// zero-filling padding taps.  A pure data movement, hence share-local.
void im2col(std::uint64_t* cols, const std::uint64_t* data, int c, int h, int w, int sample,
            int kernel, int stride, int pad, int oh, int ow) noexcept;

}  // namespace pasnet::crypto::kern
