#pragma once
// The secure-inference IR (intermediate representation).
//
// A SecureProgram is a topologically ordered list of typed 2PC operators
// lowered from a trained nn::ModelDescriptor + nn::Graph.  Lowering copies
// the plaintext parameters (conv/linear weights, batch-norm statistics,
// x2act coefficients) into the ops, so the pass pipeline (src/ir/passes)
// can rewrite the program — fold batch-norm into producer convolutions,
// resolve x2act coefficients against producer geometry, schedule open
// coalescing rounds — before anything is secret-shared.
//
// Three consumers execute or analyze the same program object:
//  - ir::execute (src/ir/executor) runs it under the 2PC protocol stack,
//  - ir::derive_plan (src/ir/plan) statically derives the offline
//    preprocessing requirements one query consumes,
//  - perf::profile_program (src/perf/ir_cost) prices it with the analytic
//    latency model, round-for-round comparable with the executor's
//    measured statistics.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "nn/models.hpp"

namespace pasnet::ir {

/// Operator kinds of the secure IR.  batchnorm only appears before the
/// folding pass runs; a scheduled program contains none.
enum class OpKind {
  input,
  conv,
  depthwise_conv,
  linear,
  batchnorm,
  relu,
  x2act,
  maxpool,
  avgpool,
  global_avgpool,
  flatten,
  add,
  argmax,
};

[[nodiscard]] const char* op_kind_name(OpKind kind) noexcept;

/// See Op::compare_levels.
struct CompareLevels {
  std::vector<std::uint64_t> values;  ///< values compared, one entry per level
  int payloads = 0;                   ///< gated mux multiplies per comparison
};

/// One typed IR operator with explicit graph edges, geometry (batch-1,
/// propagated from the descriptor) and plaintext parameters.
struct Op {
  OpKind kind = OpKind::input;
  int in0 = -1;  ///< producer op index (all kinds except input)
  int in1 = -1;  ///< second producer (add only)

  /// Descriptor layer index this op lowered from (-1 for ops the pipeline
  /// synthesized, e.g. an appended argmax).  Preprocessing-plan requests
  /// and per-layer statistics are tagged with it.
  int layer = -1;

  // Geometry (batch-1 shapes; h=w=1 for flattened/linear stages).
  int in_ch = 0, in_h = 0, in_w = 0;
  int out_ch = 0, out_h = 0, out_w = 0;
  int kernel = 1, stride = 1, pad = 0;
  int in_features = 0, out_features = 0;

  // Plaintext parameters (conv/linear).  `bias` is meaningful when
  // has_bias; the batch-norm folding pass writes into it.
  std::vector<double> weight;
  std::vector<double> bias;
  bool has_bias = false;

  // Batch-norm statistics (batchnorm ops only; consumed by the fold pass).
  std::vector<double> bn_gamma, bn_beta, bn_mean, bn_var;
  float bn_eps = 0.0f;

  // X2act raw parameters (float, as trained) and the fused effective
  // quadratic coefficient a = (c/√Nx)·w1 resolved by the coefficient
  // fusion pass from the producer's output geometry.
  float act_w1 = 0.0f, act_c = 1.0f;
  double act_w2 = 1.0, act_b = 0.0;
  double a_coeff = 0.0;
  bool coeff_fused = false;

  /// Round group assigned by the schedule_rounds pass (append_argmax for
  /// the argmax terminal).  Single-round ops sharing a group id flush their
  /// openings in one exchange; staged comparison ops (relu/maxpool/argmax)
  /// in the group advance their resumable phases in lockstep, sharing the
  /// OT leaf round, each AND-tree level and the mux tail's opening across
  /// instances.  -1 for local ops.
  int round_group = -1;

  [[nodiscard]] long long input_elems() const noexcept {
    return static_cast<long long>(in_ch) * in_h * in_w;
  }
  [[nodiscard]] long long output_elems() const noexcept {
    return static_cast<long long>(out_ch) * out_h * out_w;
  }

  /// Single-round multiplicative op whose openings the scheduler may
  /// coalesce across ops (conv / depthwise / linear / x2act).
  [[nodiscard]] bool stages_opens() const noexcept {
    return kind == OpKind::conv || kind == OpKind::depthwise_conv || kind == OpKind::linear ||
           kind == OpKind::x2act;
  }
  /// Resumable multi-round comparison op (relu / maxpool / argmax): joins
  /// round groups and advances phase by phase so independent instances
  /// share OT and AND rounds.
  [[nodiscard]] bool stages_compare() const noexcept {
    return kind == OpKind::relu || kind == OpKind::maxpool || kind == OpKind::argmax;
  }
  /// The comparison shape of a stages_compare() op (empty otherwise): the
  /// values compared per level — one DReLU and mux tail each — and the
  /// payloads every comparison bit gates.  ReLU is one level over
  /// its input with one payload; max-pool reduces its k² taps and argmax
  /// its classes pairwise, with one payload (the max) and two (value and
  /// index).  The single definition derive_plan and the analytic cost
  /// model read, as crypto::millionaire_and_level_multipliers is for the
  /// AND tree.
  [[nodiscard]] CompareLevels compare_levels() const;
};

/// A whole lowered network.
struct SecureProgram {
  std::string name;
  int input_ch = 0, input_h = 0, input_w = 0;
  int num_classes = 0;
  std::vector<Op> ops;
  int output = -1;
  /// Names of the passes that ran, in order (introspection/reporting).
  std::vector<std::string> passes_run;
};

/// Lowers a trained model into an unoptimized SecureProgram: one op per
/// descriptor layer with plaintext parameters attached and batch-norm still
/// explicit.  `node_of_layer` is the graph-node mapping nn::build_graph
/// returned for the descriptor.
[[nodiscard]] SecureProgram lower(const nn::ModelDescriptor& md, nn::Graph& trained,
                                  const std::vector<int>& node_of_layer);

/// Appends a secure-argmax terminal consuming the current output (label-only
/// revelation; paper-level output privacy) in a round group of its own.
/// The argmax op becomes the new program output.
void append_argmax(SecureProgram& program);

/// Releases every op's plaintext parameters (weights, biases, batch-norm
/// statistics).  Call once the pass pipeline has run and the parameters
/// are secret-shared — execution, plan derivation and analytic costing
/// only need the op shapes, and a real model's double-precision weights
/// are not worth keeping a third copy of.
void release_parameters(SecureProgram& program);

}  // namespace pasnet::ir
