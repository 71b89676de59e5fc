#pragma once
// Backbone model zoo and the layer-descriptor format shared by the latency
// model (src/perf), the secure executor (src/proto), and the NAS search
// space (src/core).
//
// A ModelDescriptor is a topologically ordered list of LayerSpecs with
// explicit graph edges; activation and pooling sites are marked
// `searchable`, which is where the supernet places its gated operators
// (paper §III-B).  `build_graph` materializes a trainable plaintext network
// from a descriptor; `propagate_shapes` fills every layer's input/output
// geometry, which the analytic latency model consumes directly.

#include <memory>
#include <string>
#include <vector>

#include "crypto/prng.hpp"
#include "nn/graph.hpp"

namespace pasnet::nn {

/// Operator kinds appearing in a descriptor.
enum class OpKind {
  input,
  conv,
  linear,
  batchnorm,
  relu,
  x2act,
  maxpool,
  avgpool,
  global_avgpool,
  flatten,
  add,
};

/// One layer of a network, with graph edges and (propagated) geometry.
struct LayerSpec {
  OpKind kind = OpKind::input;
  int in0 = -1;  ///< producer node index (all kinds except input)
  int in1 = -1;  ///< second producer (add only)

  // Convolution / linear / pool parameters (kind-dependent).
  int in_ch = 0, out_ch = 0;
  int kernel = 1, stride = 1, pad = 0;
  bool depthwise = false;  ///< conv with groups == channels (MobileNetV2)
  int in_features = 0, out_features = 0;

  /// Marked on activation/pool sites eligible for NAS gating.
  bool searchable = false;

  // Filled by propagate_shapes(); h=w=1 for flattened/linear stages.
  int in_h = 0, in_w = 0, out_h = 0, out_w = 0;

  /// Elements of the layer output (out_ch·out_h·out_w).
  [[nodiscard]] long long output_elems() const noexcept {
    return static_cast<long long>(out_ch) * out_h * out_w;
  }
  /// Elements of the layer input (in_ch·in_h·in_w).
  [[nodiscard]] long long input_elems() const noexcept {
    return static_cast<long long>(in_ch) * in_h * in_w;
  }
};

/// A whole network: input geometry plus a topological layer list.
struct ModelDescriptor {
  std::string name;
  int input_ch = 3, input_h = 32, input_w = 32;
  int num_classes = 10;
  std::vector<LayerSpec> layers;
  int output = -1;
};

/// Supported backbones (paper §III-B: "VGG family, MobileNetV3, ResNet
/// family"; the evaluation uses VGG-16, ResNet-18/34/50, MobileNetV2).
enum class Backbone { vgg16, resnet18, resnet34, resnet50, mobilenet_v2 };

[[nodiscard]] const char* backbone_name(Backbone b) noexcept;

/// Construction options: geometry, classes, and a width multiplier used to
/// build CPU-trainable scaled variants: accuracy experiments train them on
/// synthetic data in place of the full-size backbones, whose descriptors
/// still give every latency.
struct BackboneOptions {
  int input_size = 32;
  int input_ch = 3;
  int num_classes = 10;
  float width_mult = 1.0f;
  bool imagenet_stem = false;  ///< 7x7/s2 stem + 3x3/s2 maxpool (ResNet), s2 stems elsewhere
};

/// Builds the descriptor for one backbone.
[[nodiscard]] ModelDescriptor make_backbone(Backbone b, const BackboneOptions& opt);
[[nodiscard]] ModelDescriptor make_vgg16(const BackboneOptions& opt);
[[nodiscard]] ModelDescriptor make_resnet(int depth, const BackboneOptions& opt);  // 18/34/50
[[nodiscard]] ModelDescriptor make_mobilenet_v2(const BackboneOptions& opt);

/// Fills in_h/in_w/out_h/out_w/in_ch/out_ch of every layer by propagating
/// the input geometry through the graph.  Throws on malformed descriptors.
void propagate_shapes(ModelDescriptor& md);

/// Indices of searchable activation sites / pooling sites.
[[nodiscard]] std::vector<int> act_sites(const ModelDescriptor& md);
[[nodiscard]] std::vector<int> pool_sites(const ModelDescriptor& md);

/// Per-site operator choices for a derived architecture.
enum class ActKind { relu, x2act };
enum class PoolKind { maxpool, avgpool };
struct ArchChoices {
  std::vector<ActKind> acts;    ///< one per act_sites() entry
  std::vector<PoolKind> pools;  ///< one per pool_sites() entry
};

/// Returns a copy of `md` with the chosen operators substituted in.
[[nodiscard]] ModelDescriptor apply_choices(const ModelDescriptor& md, const ArchChoices& choices);

/// Uniform choices helper (all-ReLU baseline / all-polynomial model).
[[nodiscard]] ArchChoices uniform_choices(const ModelDescriptor& md, ActKind act, PoolKind pool);

/// Total ReLU activation count of the network (elements flowing through
/// relu layers) — the x-axis of the paper's Fig. 6/7, reported in units.
[[nodiscard]] long long relu_count(const ModelDescriptor& md);

/// Builds a trainable plaintext Graph realizing the descriptor.  Node i of
/// the graph corresponds to layers[i-? ...]: the mapping is returned via
/// `node_of_layer` when non-null (graph node id per descriptor layer).
[[nodiscard]] std::unique_ptr<Graph> build_graph(const ModelDescriptor& md, crypto::Prng& prng,
                                                 std::vector<int>* node_of_layer = nullptr);

}  // namespace pasnet::nn
