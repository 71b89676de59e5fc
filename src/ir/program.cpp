#include "ir/program.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/compare.hpp"
#include "nn/layers.hpp"

namespace pasnet::ir {

const char* op_kind_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::input: return "input";
    case OpKind::conv: return "conv";
    case OpKind::depthwise_conv: return "depthwise_conv";
    case OpKind::linear: return "linear";
    case OpKind::batchnorm: return "batchnorm";
    case OpKind::relu: return "relu";
    case OpKind::x2act: return "x2act";
    case OpKind::maxpool: return "maxpool";
    case OpKind::avgpool: return "avgpool";
    case OpKind::global_avgpool: return "global_avgpool";
    case OpKind::flatten: return "flatten";
    case OpKind::add: return "add";
    case OpKind::argmax: return "argmax";
  }
  return "?";
}

CompareLevels Op::compare_levels() const {
  CompareLevels c;
  switch (kind) {
    case OpKind::relu:
      c.values.push_back(static_cast<std::uint64_t>(input_elems()));
      c.payloads = 1;
      break;
    case OpKind::maxpool:
      for (const std::size_t pairs : crypto::tournament_level_pairs(kernel * kernel)) {
        c.values.push_back(pairs * static_cast<std::uint64_t>(output_elems()));
      }
      c.payloads = 1;
      break;
    case OpKind::argmax:
      // One row per query: programs describe a single query.
      for (const std::size_t pairs : crypto::tournament_level_pairs(in_features)) {
        c.values.push_back(pairs);
      }
      c.payloads = 2;
      break;
    default:
      break;
  }
  return c;
}

namespace {

OpKind lower_kind(const nn::LayerSpec& spec) {
  switch (spec.kind) {
    case nn::OpKind::input: return OpKind::input;
    case nn::OpKind::conv: return spec.depthwise ? OpKind::depthwise_conv : OpKind::conv;
    case nn::OpKind::linear: return OpKind::linear;
    case nn::OpKind::batchnorm: return OpKind::batchnorm;
    case nn::OpKind::relu: return OpKind::relu;
    case nn::OpKind::x2act: return OpKind::x2act;
    case nn::OpKind::maxpool: return OpKind::maxpool;
    case nn::OpKind::avgpool: return OpKind::avgpool;
    case nn::OpKind::global_avgpool: return OpKind::global_avgpool;
    case nn::OpKind::flatten: return OpKind::flatten;
    case nn::OpKind::add: return OpKind::add;
  }
  throw std::invalid_argument("ir::lower: unknown layer kind");
}

}  // namespace

SecureProgram lower(const nn::ModelDescriptor& md, nn::Graph& trained,
                    const std::vector<int>& node_of_layer) {
  if (node_of_layer.size() != md.layers.size()) {
    throw std::invalid_argument("ir::lower: node mapping size mismatch");
  }
  SecureProgram p;
  p.name = md.name;
  p.input_ch = md.input_ch;
  p.input_h = md.input_h;
  p.input_w = md.input_w;
  p.num_classes = md.num_classes;
  p.output = md.output;
  p.ops.resize(md.layers.size());

  for (std::size_t i = 0; i < md.layers.size(); ++i) {
    const nn::LayerSpec& spec = md.layers[i];
    Op& op = p.ops[i];
    op.kind = lower_kind(spec);
    op.in0 = spec.in0;
    op.in1 = spec.in1;
    op.layer = static_cast<int>(i);
    op.in_ch = spec.in_ch;
    op.in_h = spec.in_h;
    op.in_w = spec.in_w;
    op.out_ch = spec.out_ch;
    op.out_h = spec.out_h;
    op.out_w = spec.out_w;
    op.kernel = spec.kernel;
    op.stride = spec.stride;
    op.pad = spec.pad;
    op.in_features = spec.in_features;
    op.out_features = spec.out_features;

    nn::Module* mod = trained.module_at(node_of_layer[i]);
    switch (op.kind) {
      case OpKind::conv: {
        auto* conv = dynamic_cast<nn::Conv2d*>(mod);
        if (conv == nullptr) throw std::logic_error("ir::lower: expected Conv2d");
        op.weight = conv->weight().to_doubles();
        op.bias.assign(static_cast<std::size_t>(spec.out_ch), 0.0);
        if (conv->has_bias()) {
          const auto bd = conv->bias().to_doubles();
          for (int oc = 0; oc < spec.out_ch; ++oc) {
            op.bias[static_cast<std::size_t>(oc)] = bd[static_cast<std::size_t>(oc)];
          }
        }
        // A plain conv always carries a (possibly zero) shared bias — the
        // historical executor contract; depthwise only gains one from a
        // batch-norm fold.
        op.has_bias = true;
        break;
      }
      case OpKind::depthwise_conv: {
        auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(mod);
        if (dw == nullptr) throw std::logic_error("ir::lower: expected DepthwiseConv2d");
        op.weight = dw->weight().to_doubles();
        op.bias.assign(static_cast<std::size_t>(spec.out_ch), 0.0);
        op.has_bias = false;
        break;
      }
      case OpKind::linear: {
        auto* fc = dynamic_cast<nn::Linear*>(mod);
        if (fc == nullptr) throw std::logic_error("ir::lower: expected Linear");
        op.weight = fc->weight().to_doubles();
        op.bias = fc->bias().to_doubles();
        op.has_bias = true;
        break;
      }
      case OpKind::batchnorm: {
        auto* bn = dynamic_cast<nn::BatchNorm2d*>(mod);
        if (bn == nullptr) throw std::logic_error("ir::lower: expected BatchNorm2d");
        op.bn_gamma = bn->gamma().to_doubles();
        op.bn_beta = bn->beta().to_doubles();
        op.bn_mean = bn->running_mean().to_doubles();
        op.bn_var = bn->running_var().to_doubles();
        op.bn_eps = bn->eps();
        break;
      }
      case OpKind::x2act: {
        auto* act = dynamic_cast<nn::X2Act*>(mod);
        if (act == nullptr) throw std::logic_error("ir::lower: expected X2Act");
        op.act_w1 = act->w1();
        op.act_c = act->c();
        op.act_w2 = act->w2();
        op.act_b = act->b();
        break;
      }
      default:
        break;  // protocol-only ops carry no parameters
    }
  }
  return p;
}

void append_argmax(SecureProgram& program) {
  if (program.output < 0) throw std::logic_error("ir::append_argmax: program has no output");
  const Op& logits = program.ops[static_cast<std::size_t>(program.output)];
  Op op;
  op.kind = OpKind::argmax;
  op.in0 = program.output;
  op.layer = -1;  // synthesized; not a descriptor layer
  // The logits producer is a linear op in every backbone; its output width
  // is the class count of the tournament.
  op.in_features = logits.out_features > 0 ? logits.out_features
                                           : static_cast<int>(logits.output_elems());
  op.in_ch = op.in_features;
  op.in_h = op.in_w = 1;
  op.out_ch = 1;
  op.out_h = op.out_w = 1;
  for (const Op& o : program.ops) op.round_group = std::max(op.round_group, o.round_group + 1);
  program.ops.push_back(op);
  program.output = static_cast<int>(program.ops.size()) - 1;
}

void release_parameters(SecureProgram& program) {
  for (Op& op : program.ops) {
    std::vector<double>().swap(op.weight);
    std::vector<double>().swap(op.bias);
    std::vector<double>().swap(op.bn_gamma);
    std::vector<double>().swap(op.bn_beta);
    std::vector<double>().swap(op.bn_mean);
    std::vector<double>().swap(op.bn_var);
  }
}

}  // namespace pasnet::ir
