// Micro-benchmarks of the 2PC protocol stack: throughput of the simulator
// itself (not the modeled FPGA).  Useful for spotting regressions in the
// cryptographic substrate.  Run with --json=PATH to record the numbers in
// google-benchmark's JSON schema (items_per_second == elements/sec,
// bytes_per_second over the 8-byte ring elements produced).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/compare.hpp"
#include "crypto/ring_kernels.hpp"
#include "nn/layers.hpp"
#include "proto/secure_ops.hpp"

namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace kern = pasnet::crypto::kern;
namespace proto = pasnet::proto;

namespace {

void bm_share_reconstruct(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(1);
  pc::RingVec x(static_cast<std::size_t>(state.range(0)));
  for (auto& e : x) e = prng.next_u64() & rc.mask();
  for (auto _ : state) {
    const auto sh = pc::share(x, prng, rc);
    benchmark::DoNotOptimize(pc::reconstruct(sh, rc)[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_share_reconstruct)->Arg(1024)->Arg(16384);

void bm_beaver_mul(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(2);
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto x = pc::share_reals(std::vector<double>(len, 1.5), prng, ctx.ring());
  const auto y = pc::share_reals(std::vector<double>(len, -2.0), prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::mul_elem(ctx, x, y).s0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_beaver_mul)->Arg(1024)->Arg(16384);

void bm_square(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(3);
  const auto x = pc::share_reals(std::vector<double>(static_cast<std::size_t>(state.range(0)), 1.5),
                                 prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::square_elem(ctx, x).s0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_square)->Arg(16384);

void bm_drelu(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(4);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const auto x = pc::share_reals(xs, prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::drelu(ctx, x).b0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_drelu)->Arg(256)->Arg(4096);

void bm_secure_relu(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(6);
  nn::Tensor x = nn::Tensor::randn({1, 16, 16, 16}, prng, 1.0f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::secure_relu(ctx, sx).size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(x.size()));
}
BENCHMARK(bm_secure_relu)->Unit(benchmark::kMillisecond);

void bm_secure_conv(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(7), wprng(8);
  nn::Conv2d conv(8, 8, 3, 1, 1, wprng);
  nn::Tensor x = nn::Tensor::randn({1, 8, 16, 16}, prng, 0.5f);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto sw = pc::share_reals(conv.weight().to_doubles(), prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::secure_conv2d(ctx, sx, sw, nullptr, 8, 3, 1, 1).size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(ctx.stats().total_bytes()));
}
BENCHMARK(bm_secure_conv)->Unit(benchmark::kMillisecond);

// -- ring-kernel layer (element-wise kernels and the GEMM lowering) ----------
// The conv pair compares the naive 4-deep masked loop with the im2col +
// blocked-GEMM lowering on the same shapes.

pc::RingVec random_ring(pc::Prng& prng, std::size_t n, const pc::RingConfig& rc) {
  pc::RingVec v(n);
  for (auto& e : v) e = prng.next_u64() & rc.mask();
  return v;
}

void bm_kern_add(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec a = random_ring(prng, n, rc), b = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::add(out.data(), a.data(), b.data(), n, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(bm_kern_add)->Arg(16384);

void bm_kern_mul(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(12);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec a = random_ring(prng, n, rc), b = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::mul(out.data(), a.data(), b.data(), n, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(bm_kern_mul)->Arg(16384);

void bm_kern_beaver_combine(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(13);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec x = random_ring(prng, n, rc), f = random_ring(prng, n, rc);
  const pc::RingVec e = random_ring(prng, n, rc), y = random_ring(prng, n, rc);
  const pc::RingVec z = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::beaver_combine(out.data(), x.data(), f.data(), e.data(), y.data(), z.data(), n,
                         rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(bm_kern_beaver_combine)->Arg(16384);

void bm_kern_trunc(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(14);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec a = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::trunc(out.data(), a.data(), n, rc.bits, rc.frac_bits, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(bm_kern_trunc)->Arg(16384);

void bm_kern_gemm(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(15);
  // The conv-shaped product: (out_ch x c*k^2) . (c*k^2 x oh*ow).
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const pc::RingVec a = random_ring(prng, m * k, rc), b = random_ring(prng, k * n, rc);
  pc::RingVec out(m * n);
  for (auto _ : state) {
    kern::gemm(out.data(), a.data(), b.data(), m, k, n, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(m * n));
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(m * n) * 8);
}
// 16x72x256 is a 16x16-input conv; the other four are the conv GEMMs the
// proxies serve on 8x8 inputs, with 64, 16, 4 and 1 output columns.
BENCHMARK(bm_kern_gemm)
    ->Args({16, 72, 256})
    ->Args({4, 36, 64})
    ->Args({8, 72, 16})
    ->Args({16, 144, 4})
    ->Args({32, 288, 1});

/// The scalar baseline the tentpole is measured against: a transcription of
/// the seed's Conv2d share-product path (triple_source.cpp's per-element
/// bounds-checked im2col_ring gather plus beaver.cpp's scalar row-axpy
/// ring_matmul, fresh vectors per call) before the kernel layer replaced it.
void bm_conv_share_naive(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(16);
  const int c = 8, h = 16, w = 16, out_ch = 16, kernel = 3, stride = 1, pad = 1;
  const int oh = nn::conv_out_size(h, kernel, stride, pad);
  const int ow = nn::conv_out_size(w, kernel, stride, pad);
  const pc::RingVec data = random_ring(prng, static_cast<std::size_t>(c) * h * w, rc);
  const pc::RingVec wmat =
      random_ring(prng, static_cast<std::size_t>(out_ch) * c * kernel * kernel, rc);
  const std::size_t k_dim = static_cast<std::size_t>(c) * kernel * kernel;
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  pc::RingVec sink;
  for (auto _ : state) {
    pc::RingVec cols(k_dim * spatial, 0);
    std::size_t row = 0;
    for (int ch = 0; ch < c; ++ch) {
      for (int kh = 0; kh < kernel; ++kh) {
        for (int kw = 0; kw < kernel; ++kw, ++row) {
          std::size_t col = 0;
          for (int y = 0; y < oh; ++y) {
            const int in_y = y * stride + kh - pad;
            for (int x = 0; x < ow; ++x, ++col) {
              const int in_x = x * stride + kw - pad;
              if (in_y >= 0 && in_y < h && in_x >= 0 && in_x < w) {
                cols[row * spatial + col] =
                    data[(static_cast<std::size_t>(ch) * h + in_y) * w + in_x];
              }
            }
          }
        }
      }
    }
    pc::RingVec out(static_cast<std::size_t>(out_ch) * spatial, 0);
    for (std::size_t i = 0; i < static_cast<std::size_t>(out_ch); ++i) {
      for (std::size_t p = 0; p < k_dim; ++p) {
        const std::uint64_t aip = wmat[i * k_dim + p];
        if (aip == 0) continue;
        const std::uint64_t* brow = &cols[p * spatial];
        std::uint64_t* orow = &out[i * spatial];
        for (std::size_t j = 0; j < spatial; ++j) {
          orow[j] += aip * brow[j];  // lazy reduction; masked below
        }
      }
      std::uint64_t* orow = &out[i * spatial];
      for (std::size_t j = 0; j < spatial; ++j) orow[j] &= rc.mask();
    }
    sink = std::move(out);
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(out_ch) * static_cast<long long>(spatial));
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(out_ch) *
                          static_cast<long long>(spatial) * 8);
}
BENCHMARK(bm_conv_share_naive);

/// The kernelized path on the same shapes: im2col + blocked GEMM.
void bm_conv_share_kernel(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(16);  // same seed/shapes as the naive baseline
  const int c = 8, h = 16, w = 16, out_ch = 16, kernel = 3, stride = 1, pad = 1;
  const int oh = nn::conv_out_size(h, kernel, stride, pad);
  const int ow = nn::conv_out_size(w, kernel, stride, pad);
  const pc::RingVec data = random_ring(prng, static_cast<std::size_t>(c) * h * w, rc);
  const pc::RingVec wmat =
      random_ring(prng, static_cast<std::size_t>(out_ch) * c * kernel * kernel, rc);
  const std::size_t k_dim = static_cast<std::size_t>(c) * kernel * kernel;
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  pc::RingVec cols(k_dim * spatial);
  pc::RingVec out(static_cast<std::size_t>(out_ch) * spatial);
  for (auto _ : state) {
    kern::im2col(cols.data(), data.data(), c, h, w, /*sample=*/0, kernel, stride, pad, oh, ow);
    kern::gemm(out.data(), wmat.data(), cols.data(), static_cast<std::size_t>(out_ch), k_dim,
               spatial, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(out.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(out.size()) * 8);
}
BENCHMARK(bm_conv_share_kernel);

// One precomputed (1,4)-OT batch per iteration: the random-OT draw from
// the context's dealer plus the two messages.
void bm_ot_1of4(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::array<std::uint8_t, 4>> tables(n, {1, 2, 3, 4});
  std::vector<std::uint8_t> choices(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::ot_1of4(ctx, 1, tables, choices)[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["bytes_per_ot"] = static_cast<double>(ctx.stats().total_bytes()) /
                                   static_cast<double>(state.iterations() * state.range(0));
}
BENCHMARK(bm_ot_1of4)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return pasnet::benchutil::run_benchmarks_with_json_flag(argc, argv);
}
