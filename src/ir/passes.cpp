#include "ir/passes.hpp"

#include <cmath>
#include <stdexcept>

namespace pasnet::ir {

namespace {

/// Removes every op flagged in `dead`, remapping edges and the output.
void compact(SecureProgram& p, const std::vector<char>& dead) {
  std::vector<int> remap(p.ops.size(), -1);
  std::vector<Op> kept;
  kept.reserve(p.ops.size());
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    if (dead[i]) continue;
    remap[i] = static_cast<int>(kept.size());
    kept.push_back(std::move(p.ops[i]));
  }
  const auto follow = [&](int idx) {
    if (idx < 0) return idx;
    if (remap[static_cast<std::size_t>(idx)] < 0) {
      throw std::logic_error("ir::compact: edge into a removed op");
    }
    return remap[static_cast<std::size_t>(idx)];
  };
  for (Op& op : kept) {
    op.in0 = follow(op.in0);
    op.in1 = follow(op.in1);
  }
  p.output = follow(p.output);
  p.ops = std::move(kept);
}

}  // namespace

int fold_batchnorm(SecureProgram& p) {
  std::vector<char> dead(p.ops.size(), 0);
  int folded = 0;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    Op& bn = p.ops[i];
    if (bn.kind != OpKind::batchnorm) continue;
    Op& prod = p.ops[static_cast<std::size_t>(bn.in0)];
    if (prod.kind != OpKind::conv && prod.kind != OpKind::depthwise_conv) {
      throw std::logic_error("ir::fold_batchnorm: batch-norm after a non-conv producer");
    }
    const int out_rows = prod.out_ch;
    const std::size_t row_w = prod.weight.size() / static_cast<std::size_t>(out_rows);
    for (int oc = 0; oc < out_rows; ++oc) {
      const double invstd =
          1.0 / std::sqrt(bn.bn_var[static_cast<std::size_t>(oc)] + bn.bn_eps);
      const double g = bn.bn_gamma[static_cast<std::size_t>(oc)] * invstd;
      for (std::size_t j = 0; j < row_w; ++j) prod.weight[oc * row_w + j] *= g;
      prod.bias[static_cast<std::size_t>(oc)] =
          (prod.bias[static_cast<std::size_t>(oc)] -
           bn.bn_mean[static_cast<std::size_t>(oc)]) * g +
          bn.bn_beta[static_cast<std::size_t>(oc)];
    }
    prod.has_bias = true;
    // Rewire every consumer of the bn straight to the (folded) producer.
    const int bn_idx = static_cast<int>(i);
    for (Op& op : p.ops) {
      if (op.in0 == bn_idx) op.in0 = bn.in0;
      if (op.in1 == bn_idx) op.in1 = bn.in0;
    }
    if (p.output == bn_idx) p.output = bn.in0;
    dead[i] = 1;
    ++folded;
  }
  if (folded > 0) compact(p, dead);
  p.passes_run.emplace_back("fold_batchnorm");
  return folded;
}

int fuse_x2act_coeffs(SecureProgram& p) {
  int fused = 0;
  for (Op& op : p.ops) {
    if (op.kind != OpKind::x2act) continue;
    // The effective coefficient depends on the producer's output feature
    // count Nx (paper Eq. 4: a = (c/√Nx)·w1).  Computed in float exactly as
    // the trained X2Act module evaluates it, then widened.
    const Op& prod = p.ops[static_cast<std::size_t>(op.in0)];
    long long feature_count = prod.output_elems();
    if (feature_count <= 0) feature_count = op.input_elems();
    const float scale =
        op.act_c / std::sqrt(static_cast<float>(feature_count > 0 ? feature_count : 1));
    op.a_coeff = static_cast<double>(scale * op.act_w1);
    op.coeff_fused = true;
    ++fused;
  }
  p.passes_run.emplace_back("fuse_x2act_coeffs");
  return fused;
}

int schedule_rounds(SecureProgram& p) {
  // Greedy forward walk mirroring the executor's flush points.  `pending`
  // marks ops staged in the currently open group (outputs not yet public);
  // an op can join the group only if none of its inputs are pending.
  std::vector<char> pending(p.ops.size(), 0);
  bool open = false;
  int group = -1;
  int groups = 0;
  const auto close = [&] {
    if (!open) return;
    std::fill(pending.begin(), pending.end(), 0);
    open = false;
  };
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    Op& op = p.ops[i];
    if (op.kind == OpKind::batchnorm) {
      throw std::logic_error("ir::schedule_rounds: run fold_batchnorm first");
    }
    const bool in_pending =
        (op.in0 >= 0 && pending[static_cast<std::size_t>(op.in0)]) ||
        (op.in1 >= 0 && pending[static_cast<std::size_t>(op.in1)]);
    if (op.stages_opens() || op.stages_compare()) {
      // Both single-round ops (deferred openings) and staged comparisons
      // (resumable millionaire/AND-tree phases) join the group: the
      // executor advances every comparison in lockstep and the
      // single-round openings ride the group's first open flush.
      if (!open || in_pending) {
        close();
        group = groups++;
        open = true;
      }
      op.round_group = group;
      pending[i] = 1;
    } else {
      op.round_group = -1;
      // Local ops only flush when they consume a pending output.
      if (in_pending) close();
    }
  }
  p.passes_run.emplace_back("schedule_rounds");
  return groups;
}

int parallelize_instances(SecureProgram& p) {
  // List-scheduling reorder: repeatedly emit every ready local op (they
  // stage nothing, so hoisting them costs no rounds), then emit
  // ALL currently-ready stageable ops as one contiguous wave.  Ops on
  // parallel branches that program order separated (the ResNet
  // downsample-skip conv vs the main path's first conv, a skip x2act vs a
  // main-path relu) become adjacent, so schedule_rounds afterwards grows
  // one round group per wave and their openings/comparison phases share
  // exchanges.  The reorder is purely topological — every edge still
  // points backwards — so transcript values are unchanged op for op.
  const std::size_t n = p.ops.size();
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<char> placed(n, 0);
  const auto ready = [&](const Op& op) {
    return (op.in0 < 0 || placed[static_cast<std::size_t>(op.in0)]) &&
           (op.in1 < 0 || placed[static_cast<std::size_t>(op.in1)]);
  };
  const auto stageable = [](const Op& op) {
    return op.stages_opens() || op.stages_compare();
  };
  while (order.size() < n) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!placed[i] && !stageable(p.ops[i]) && ready(p.ops[i])) {
          placed[i] = 1;
          order.push_back(i);
          progress = true;
        }
      }
    }
    std::vector<std::size_t> wave;
    for (std::size_t i = 0; i < n; ++i) {
      if (!placed[i] && stageable(p.ops[i]) && ready(p.ops[i])) wave.push_back(i);
    }
    if (wave.empty()) {
      if (order.size() < n) {
        throw std::logic_error("ir::parallelize_instances: cyclic program edges");
      }
      break;
    }
    for (std::size_t i : wave) {
      placed[i] = 1;
      order.push_back(i);
    }
  }
  // Count the hoists: ops now scheduled ahead of some originally-earlier
  // op (i.e. positions whose original index exceeds a later position's).
  int hoisted = 0;
  std::size_t suffix_min = n;
  for (std::size_t pos = n; pos-- > 0;) {
    if (order[pos] > suffix_min) ++hoisted;
    suffix_min = std::min(suffix_min, order[pos]);
  }
  if (hoisted > 0) {
    std::vector<int> new_index(n, -1);
    for (std::size_t pos = 0; pos < n; ++pos) {
      new_index[order[pos]] = static_cast<int>(pos);
    }
    std::vector<Op> reordered;
    reordered.reserve(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      reordered.push_back(std::move(p.ops[order[pos]]));
    }
    const auto follow = [&](int idx) {
      return idx < 0 ? idx : new_index[static_cast<std::size_t>(idx)];
    };
    for (Op& op : reordered) {
      op.in0 = follow(op.in0);
      op.in1 = follow(op.in1);
    }
    p.output = follow(p.output);
    p.ops = std::move(reordered);
  }
  p.passes_run.emplace_back("parallelize_instances");
  return hoisted;
}

void run_standard_passes(SecureProgram& p) {
  (void)fold_batchnorm(p);
  (void)fuse_x2act_coeffs(p);
  (void)parallelize_instances(p);
  (void)schedule_rounds(p);
}

}  // namespace pasnet::ir
