#pragma once
// Synthetic class-conditional image datasets, standing in for CIFAR-10 and
// ImageNet.
//
// CIFAR-10/ImageNet are unavailable offline, so experiments train on
// generated images: each class k owns a spatial-frequency/orientation
// template (oriented sinusoid gratings with class-dependent channel
// phases) plus an XOR-style quadrant sign flip that defeats purely linear
// models; samples add amplitude jitter, random shifts and Gaussian noise.
// The property the PASNet experiments rely on — accuracy degrades smoothly
// as network capacity/non-linearity is removed — is preserved; absolute
// accuracies are not comparable to the paper's CIFAR numbers and are
// labelled "synthetic" wherever they are reported.

#include <vector>

#include "crypto/prng.hpp"
#include "nn/tensor.hpp"

namespace pasnet::data {

/// Generation parameters.
struct SyntheticSpec {
  int num_classes = 10;
  int channels = 3;
  int size = 32;        ///< square image side
  int train_count = 512;
  int val_count = 128;
  float noise = 0.4f;   ///< additive Gaussian noise stddev
  std::uint64_t seed = 1234;
};

/// An in-memory labelled image set.
struct Dataset {
  nn::Tensor images;        ///< [N, C, H, W]
  std::vector<int> labels;  ///< N entries in [0, num_classes)

  [[nodiscard]] int count() const { return images.empty() ? 0 : images.dim(0); }

  /// Copies `batch_size` uniformly sampled examples into a fresh batch.
  [[nodiscard]] std::pair<nn::Tensor, std::vector<int>> sample_batch(
      crypto::Prng& prng, int batch_size) const;

  /// Copies examples [begin, begin+count) into a batch (for evaluation).
  [[nodiscard]] std::pair<nn::Tensor, std::vector<int>> slice(int begin, int count) const;
};

/// Train/validation split generated from the spec.
struct SyntheticData {
  Dataset train;
  Dataset val;
  SyntheticSpec spec;
};

/// Generates the dataset deterministically from spec.seed.
[[nodiscard]] SyntheticData make_synthetic(const SyntheticSpec& spec);

}  // namespace pasnet::data
