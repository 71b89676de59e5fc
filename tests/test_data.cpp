#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"

namespace data = pasnet::data;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;

TEST(Synthetic, DeterministicForSameSeed) {
  data::SyntheticSpec spec;
  spec.train_count = 16;
  spec.val_count = 4;
  spec.size = 8;
  const auto a = data::make_synthetic(spec);
  const auto b = data::make_synthetic(spec);
  for (std::size_t i = 0; i < a.train.images.size(); ++i) {
    ASSERT_EQ(a.train.images[i], b.train.images[i]);
  }
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(Synthetic, DifferentSeedsDiffer) {
  data::SyntheticSpec spec;
  spec.train_count = 16;
  spec.val_count = 4;
  spec.size = 8;
  auto a = data::make_synthetic(spec);
  spec.seed = 999;
  auto b = data::make_synthetic(spec);
  float diff = 0.0f;
  for (std::size_t i = 0; i < a.train.images.size(); ++i) {
    diff += std::abs(a.train.images[i] - b.train.images[i]);
  }
  EXPECT_GT(diff, 1.0f);
}

TEST(Synthetic, ShapesAndLabelRange) {
  data::SyntheticSpec spec;
  spec.train_count = 32;
  spec.val_count = 8;
  spec.num_classes = 5;
  spec.size = 16;
  const auto ds = data::make_synthetic(spec);
  EXPECT_EQ(ds.train.images.shape(), (std::vector<int>{32, 3, 16, 16}));
  EXPECT_EQ(ds.val.count(), 8);
  for (const int y : ds.train.labels) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 5);
  }
}

TEST(Synthetic, BatchSamplingShapes) {
  data::SyntheticSpec spec;
  spec.train_count = 64;
  spec.val_count = 8;
  spec.size = 8;
  const auto ds = data::make_synthetic(spec);
  pc::Prng prng(1);
  const auto [x, y] = ds.train.sample_batch(prng, 12);
  EXPECT_EQ(x.shape(), (std::vector<int>{12, 3, 8, 8}));
  EXPECT_EQ(y.size(), 12u);
}

TEST(Synthetic, SliceRangeChecks) {
  data::SyntheticSpec spec;
  spec.train_count = 10;
  spec.val_count = 4;
  spec.size = 8;
  const auto ds = data::make_synthetic(spec);
  EXPECT_NO_THROW((void)ds.val.slice(0, 4));
  EXPECT_THROW((void)ds.val.slice(2, 4), std::invalid_argument);
}

TEST(Synthetic, ClassesAreLearnableBySmallCnn) {
  // The synthetic data may stand in for CIFAR-10 only if a modest conv net
  // beats chance clearly, i.e. the generated classes carry real signal.
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.size = 8;
  spec.train_count = 384;
  spec.val_count = 96;
  spec.noise = 0.3f;
  spec.seed = 5;
  const auto ds = data::make_synthetic(spec);

  pc::Prng wprng(2);
  nn::Graph g;
  const int in = g.add_input();
  const int c1 = g.add_module(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, wprng), in);
  const int r1 = g.add_module(std::make_unique<nn::Relu>(), c1);
  const int p1 = g.add_module(std::make_unique<nn::MaxPool2d>(2, 2), r1);
  const int fl = g.add_module(std::make_unique<nn::Flatten>(), p1);
  g.add_module(std::make_unique<nn::Linear>(8 * 4 * 4, 4, wprng), fl);

  nn::Sgd opt(g.params(), 0.03f, 0.9f);
  nn::SoftmaxCrossEntropy ce;
  pc::Prng bprng(3);
  for (int step = 0; step < 150; ++step) {
    const auto [x, y] = ds.train.sample_batch(bprng, 16);
    g.zero_grad();
    (void)ce.forward(g.forward(x, true), y);
    g.backward(ce.backward());
    opt.step();
  }
  const auto [vx, vy] = ds.val.slice(0, 96);
  EXPECT_GT(nn::accuracy(g.forward(vx, false), vy), 0.45f);  // chance = 0.25
}

TEST(Synthetic, NoiseKnobDegradesSeparability) {
  // More noise -> larger pixel variance relative to the class template.
  data::SyntheticSpec lo;
  lo.train_count = 64;
  lo.val_count = 4;
  lo.size = 8;
  lo.noise = 0.05f;
  data::SyntheticSpec hi = lo;
  hi.noise = 2.0f;
  const auto a = data::make_synthetic(lo);
  const auto b = data::make_synthetic(hi);
  double va = 0, vb = 0;
  for (std::size_t i = 0; i < a.train.images.size(); ++i) {
    va += a.train.images[i] * a.train.images[i];
    vb += b.train.images[i] * b.train.images[i];
  }
  EXPECT_GT(vb, va);
}
