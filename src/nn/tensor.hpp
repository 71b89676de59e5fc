#pragma once
// Minimal dense float tensor for the plaintext NN substrate.
//
// The NAS training loop (src/core) and the secure executor's reference path
// (src/proto) both run on this tensor.  Layout is row-major; 4-D tensors
// use NCHW.  It deliberately has no autograd — layers implement explicit
// forward/backward.

#include <cstddef>
#include <vector>

#include "crypto/prng.hpp"

namespace pasnet::nn {

/// Dense float tensor, row-major, NCHW for 4-D data.
class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  [[nodiscard]] static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(std::vector<int> shape, float value);
  /// Gaussian init with the given standard deviation.
  [[nodiscard]] static Tensor randn(std::vector<int> shape, crypto::Prng& prng, float stddev);
  /// Kaiming/He initialization for a fan-in of `fan_in`.
  [[nodiscard]] static Tensor kaiming(std::vector<int> shape, crypto::Prng& prng, int fan_in);

  [[nodiscard]] const std::vector<int>& shape() const noexcept { return shape_; }
  [[nodiscard]] int dim(int i) const { return shape_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int rank() const noexcept { return static_cast<int>(shape_.size()); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// NCHW accessor (rank-4 only; bounds unchecked in release builds).
  [[nodiscard]] float& at4(int n, int c, int h, int w);
  [[nodiscard]] float at4(int n, int c, int h, int w) const;
  /// Matrix accessor (rank-2 only).
  [[nodiscard]] float& at2(int r, int c);
  [[nodiscard]] float at2(int r, int c) const;

  /// Returns a tensor with identical data and a new compatible shape.
  [[nodiscard]] Tensor reshaped(std::vector<int> new_shape) const;

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Flat std::vector copies, for interop with the crypto layer.
  [[nodiscard]] std::vector<double> to_doubles() const;
  [[nodiscard]] static Tensor from_doubles(const std::vector<double>& v, std::vector<int> shape);

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

// --- Elementwise / BLAS-ish free functions --------------------------------

/// c = a + b (shapes must match).
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b.
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
/// c = a ⊙ b.
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
/// c = s·a.
[[nodiscard]] Tensor scale(const Tensor& a, float s);
/// In-place a += s·b.
void axpy(Tensor& a, float s, const Tensor& b);

/// Row-major matrix product: a is m×k, b is k×n.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// Row-major m×n -> n×m transpose.
[[nodiscard]] Tensor transpose(const Tensor& a);

/// im2col for NCHW convolution: per sample, produces a (C·K·K) × (OH·OW)
/// matrix; `sample` selects the batch element.
[[nodiscard]] Tensor im2col(const Tensor& input, int sample, int kernel, int stride, int pad);
/// Adjoint of im2col: scatters a (C·K·K) × (OH·OW) matrix back into a
/// zero-initialized [C,H,W] gradient for `sample` of `grad_input`.
void col2im_accumulate(const Tensor& cols, Tensor& grad_input, int sample, int kernel,
                       int stride, int pad);

/// Output spatial size of a convolution/pool window.
[[nodiscard]] int conv_out_size(int in, int kernel, int stride, int pad) noexcept;

}  // namespace pasnet::nn
