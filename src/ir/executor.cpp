#include "ir/executor.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/tracer.hpp"

namespace pasnet::ir {

namespace {

using crypto::RingConfig;
using crypto::Shared;
using proto::SecureTensor;

/// Discards the context buffers' pending stages on scope exit
/// (exception-safe).  An exception mid-round-group leaves stages pending
/// whose output pointers refer to ops this frame owns — discarding them
/// keeps the reused context from writing through dangling pointers.
class DiscardScope {
 public:
  explicit DiscardScope(crypto::TwoPartyContext& ctx) : ctx_(ctx) {}
  ~DiscardScope() {
    ctx_.opens().discard();
    ctx_.ots().discard();
    ctx_.bit_opens().discard();
  }
  DiscardScope(const DiscardScope&) = delete;
  DiscardScope& operator=(const DiscardScope&) = delete;

 private:
  crypto::TwoPartyContext& ctx_;
};

/// Restores the context's installed triple source on scope exit — a lane
/// switch interrupted by an exception (store exhaustion mid-group) must not
/// leave a dangling per-lane source installed on a longer-lived context.
class SourceScope {
 public:
  SourceScope(crypto::TwoPartyContext& ctx, bool active)
      : ctx_(ctx), active_(active), prev_(active ? ctx.installed_triple_source() : nullptr) {}
  ~SourceScope() {
    if (active_) ctx_.set_triple_source(prev_);
  }
  SourceScope(const SourceScope&) = delete;
  SourceScope& operator=(const SourceScope&) = delete;

 private:
  crypto::TwoPartyContext& ctx_;
  bool active_;
  crypto::TripleSource* prev_;
};

/// Restores the context's prng() override on scope exit — the per-lane
/// share-randomness streams are owned by the caller's frame, so a thrown
/// group must not leave them installed on a longer-lived context.
class PrngScope {
 public:
  PrngScope(crypto::TwoPartyContext& ctx, bool active)
      : ctx_(ctx), active_(active),
        prev0_(active ? ctx.prng_override(0) : nullptr),
        prev1_(active ? ctx.prng_override(1) : nullptr) {}
  ~PrngScope() {
    if (active_) ctx_.set_prng_override(prev0_, prev1_);
  }
  PrngScope(const PrngScope&) = delete;
  PrngScope& operator=(const PrngScope&) = delete;

 private:
  crypto::TwoPartyContext& ctx_;
  bool active_;
  crypto::Prng* prev0_;
  crypto::Prng* prev1_;
};

}  // namespace

CompiledParams share_parameters(const SecureProgram& p, crypto::Prng& prng,
                                const RingConfig& rc) {
  CompiledParams cp;
  cp.weight.resize(p.ops.size());
  cp.bias.resize(p.ops.size());
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    if (op.kind == OpKind::batchnorm) {
      throw std::logic_error("ir::share_parameters: fold batch-norm before sharing");
    }
    if (op.kind == OpKind::conv || op.kind == OpKind::depthwise_conv ||
        op.kind == OpKind::linear) {
      cp.weight[i] = crypto::share_reals(op.weight, prng, rc);
      if (op.has_bias) cp.bias[i] = crypto::share_reals(op.bias, prng, rc);
    }
  }
  return cp;
}

BatchExecResult execute_batch(const SecureProgram& p, const CompiledParams& params,
                              crypto::TwoPartyContext& ctx, const std::vector<nn::Tensor>& inputs,
                              const BatchExecOptions& opts) {
  const std::size_t lanes = opts.input_shares.empty() ? inputs.size() : opts.input_shares.size();
  if (lanes == 0) return BatchExecResult{};
  if (!opts.input_shares.empty() && !inputs.empty() && inputs.size() != lanes) {
    throw std::invalid_argument("ir::execute_batch: inputs/input_shares lane count mismatch");
  }
  if (!opts.lane_sources.empty() && opts.lane_sources.size() != lanes) {
    throw std::invalid_argument("ir::execute_batch: lane_sources must cover every lane");
  }
  if (!opts.lane_prngs.empty() && opts.lane_prngs.size() != lanes) {
    throw std::invalid_argument("ir::execute_batch: lane_prngs must cover every lane");
  }

  const RingConfig& rc = ctx.ring();
  obs::Tracer* const tracer = ctx.tracer();
  const obs::SpanGuard run_span(tracer, "ir", "execute_batch",
                                static_cast<std::int64_t>(lanes));
  crypto::OpenBuffer& opens = ctx.opens();
  DiscardScope discard_guard(ctx);
  SourceScope source_guard(ctx, !opts.lane_sources.empty());
  PrngScope prng_guard(ctx, !opts.lane_prngs.empty());
  const auto use_lane = [&](std::size_t q) {
    if (!opts.lane_sources.empty()) ctx.set_triple_source(opts.lane_sources[q]);
    if (!opts.lane_prngs.empty()) {
      ctx.set_prng_override(opts.lane_prngs[q].first, opts.lane_prngs[q].second);
    }
  };

  // One canonical client share-generation PRG per lane: lane q's input
  // sharing (and therefore its truncation-noise trajectory) matches the
  // independent single-query run of the same query exactly.
  std::vector<crypto::Prng> input_prngs;
  input_prngs.reserve(lanes);
  for (std::size_t q = 0; q < lanes; ++q) input_prngs.emplace_back(0xC11E47ULL);

  std::vector<std::vector<SecureTensor>> acts(lanes,
                                              std::vector<SecureTensor>(p.ops.size()));
  BatchExecResult result;

  // The currently open round group: single-round staged instances whose
  // openings flush in one exchange, plus staged comparison instances whose
  // resumable phases advance in lockstep so every instance — across ops
  // AND lanes — shares the group's OT, AND-level and open rounds.
  struct StagedInst {
    std::unique_ptr<proto::StagedSecureOp> op;
    std::size_t idx;
    std::size_t lane;
  };
  struct CompInst {
    std::unique_ptr<proto::StagedCompareOp> op;
    std::size_t idx;
    std::size_t lane;
  };
  std::vector<StagedInst> staged;
  std::vector<CompInst> comps;
  std::vector<char> pending(p.ops.size(), 0);
  int staged_group = -1;
  const auto deliver = [&](std::size_t lane, std::size_t idx, SecureTensor t) {
    acts[lane][idx] = std::move(t);
    pending[idx] = 0;
    // Output elements produced by the op's kernelized share arithmetic — a
    // pure function of (program, lane count), so the counter is identical
    // in process and remote and sums exactly across chunks.
    ctx.counters().add(obs::Counter::kernel_elems, acts[lane][idx].size());
    if (opts.op_hook) opts.op_hook(lane, idx, acts[lane][idx]);
  };
  const auto flush_group = [&] {
    if (staged.empty() && comps.empty()) return;
    // One span per round-group flush: OT exchanges, AND levels and the
    // merged openings of the whole group — across ops AND lanes — land
    // inside it, which is where a latency profile shows the round
    // structure the scheduler bought.
    const obs::SpanGuard flush_span(tracer, "ir", "flush_group",
                                    static_cast<std::int64_t>(lanes));
    if (comps.empty()) {
      opens.flush();
    } else {
      // Lockstep phase walk: each iteration flushes every buffer some
      // comparison waits on (2 rounds for the OT messages, 1 per bit-open or
      // ring-open exchange), then advances every unfinished comparison one
      // phase.  Pending single-round openings ride the first open flush.
      for (;;) {
        bool want_ot = false, want_bits = false, want_opens = false;
        for (const auto& c : comps) {
          switch (c.op->waiting()) {
            case crypto::CompareWait::ot:
              want_ot = true;
              break;
            case crypto::CompareWait::bits:
              want_bits = true;
              break;
            case crypto::CompareWait::opens:
              want_opens = true;
              break;
            case crypto::CompareWait::done:
              break;
          }
        }
        if (!want_ot && !want_bits && !want_opens) break;
        if (want_ot) ctx.ots().flush();
        if (want_bits) ctx.bit_opens().flush();
        if (want_opens) opens.flush();
        for (auto& c : comps) {
          if (c.op->waiting() != crypto::CompareWait::done) {
            use_lane(c.lane);
            c.op->step(ctx);
          }
        }
      }
      // Single-round stragglers whose group had no open phase to ride
      // (possible only when every comparison degenerates, e.g. 1x1 pools).
      opens.flush();
    }
    // Deliver outputs in (op, lane) order — both instance lists were
    // staged op-major, lane-minor, so each is already ascending.
    std::size_t si = 0, ci = 0;
    while (si < staged.size() || ci < comps.size()) {
      const bool take_staged =
          ci >= comps.size() ||
          (si < staged.size() &&
           std::make_pair(staged[si].idx, staged[si].lane) <
               std::make_pair(comps[ci].idx, comps[ci].lane));
      if (take_staged) {
        use_lane(staged[si].lane);
        deliver(staged[si].lane, staged[si].idx, staged[si].op->finish(ctx));
        ++si;
      } else {
        use_lane(comps[ci].lane);
        deliver(comps[ci].lane, comps[ci].idx, comps[ci].op->take(ctx));
        ++ci;
      }
    }
    staged.clear();
    comps.clear();
    staged_group = -1;
  };
  const auto input_pending = [&](const Op& op) {
    return (op.in0 >= 0 && pending[static_cast<std::size_t>(op.in0)]) ||
           (op.in1 >= 0 && pending[static_cast<std::size_t>(op.in1)]);
  };

  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const Op& op = p.ops[i];
    // Any pending group finishes before the op's span opens — so the
    // group's flush is charged to its own span, not to this op — when the
    // op reads a pending output or (if staged) belongs to another group.
    if (input_pending(op) ||
        ((op.stages_opens() || op.stages_compare()) && staged_group != op.round_group)) {
      flush_group();
    }
    // Per-op span covering the staging of all K lanes' instances of this
    // op (a local op's whole work).
    const obs::SpanGuard op_span(tracer, "ir", op_kind_name(op.kind),
                                 static_cast<std::int64_t>(lanes));
    const auto in = [&](std::size_t q) -> const SecureTensor& {
      return acts[q][static_cast<std::size_t>(op.in0)];
    };
    if (op.stages_opens()) {
      for (std::size_t q = 0; q < lanes; ++q) {
        if (opts.layer_hook) opts.layer_hook(q, op.layer);
        use_lane(q);
        std::unique_ptr<proto::StagedSecureOp> sop;
        switch (op.kind) {
          case OpKind::conv:
            sop = std::make_unique<proto::StagedConv2d>(
                in(q), params.weight[i], op.has_bias ? &params.bias[i] : nullptr, op.out_ch,
                op.kernel, op.stride, op.pad, /*depthwise=*/false);
            break;
          case OpKind::depthwise_conv:
            sop = std::make_unique<proto::StagedConv2d>(
                in(q), params.weight[i], op.has_bias ? &params.bias[i] : nullptr, op.out_ch,
                op.kernel, op.stride, op.pad, /*depthwise=*/true);
            break;
          case OpKind::linear:
            sop = std::make_unique<proto::StagedLinear>(
                in(q), params.weight[i], op.has_bias ? &params.bias[i] : nullptr,
                op.out_features);
            break;
          case OpKind::x2act:
            sop = std::make_unique<proto::StagedX2act>(in(q), op.a_coeff, op.act_w2, op.act_b);
            break;
          default:
            throw std::logic_error("ir::execute: unreachable staged kind");
        }
        sop->stage(ctx);
        staged.push_back(StagedInst{std::move(sop), i, q});
      }
      staged_group = op.round_group;
      pending[i] = 1;
      continue;
    }

    if (op.stages_compare()) {
      for (std::size_t q = 0; q < lanes; ++q) {
        if (opts.layer_hook) opts.layer_hook(q, op.layer);
        use_lane(q);
        std::unique_ptr<proto::StagedCompareOp> cop;
        switch (op.kind) {
          case OpKind::relu:
            cop = std::make_unique<proto::StagedRelu>(in(q));
            break;
          case OpKind::maxpool:
            cop = std::make_unique<proto::StagedMaxPool>(in(q), op.kernel, op.stride, op.pad);
            break;
          case OpKind::argmax:
            cop = std::make_unique<proto::StagedArgmax>(in(q));
            break;
          default:
            throw std::logic_error("ir::execute: unreachable compare kind");
        }
        cop->begin(ctx);
        comps.push_back(CompInst{std::move(cop), i, q});
      }
      staged_group = op.round_group;
      pending[i] = 1;
      continue;
    }

    for (std::size_t q = 0; q < lanes; ++q) {
      if (opts.layer_hook) opts.layer_hook(q, op.layer);
      use_lane(q);
      switch (op.kind) {
        case OpKind::input:
          deliver(q, i,
                  !opts.input_shares.empty()
                      ? *opts.input_shares[q]
                      : proto::share_tensor(inputs[q], input_prngs[q], rc));
          break;
        case OpKind::avgpool:
          deliver(q, i, proto::secure_avgpool(ctx, in(q), op.kernel, op.stride, op.pad));
          break;
        case OpKind::global_avgpool:
          deliver(q, i, proto::secure_global_avgpool(ctx, in(q)));
          break;
        case OpKind::flatten:
          deliver(q, i, proto::secure_flatten(in(q)));
          break;
        case OpKind::add:
          deliver(q, i,
                  proto::secure_add(ctx, acts[q][static_cast<std::size_t>(op.in0)],
                                    acts[q][static_cast<std::size_t>(op.in1)]));
          break;
        case OpKind::batchnorm:
          throw std::logic_error("ir::execute: unfolded batch-norm (run the pass pipeline)");
        default:
          throw std::logic_error("ir::execute: unreachable local kind");
      }
    }
  }
  flush_group();

  // Reveal the terminal output to the client — logits, or an argmax
  // terminal's winning class indices: every lane's opening stages on the
  // open buffer, so the whole batch reveals in ONE joint exchange.
  const obs::SpanGuard reveal_span(tracer, "ir", "reveal", static_cast<std::int64_t>(lanes));
  std::vector<crypto::RingVec> revealed(lanes);
  for (std::size_t q = 0; q < lanes; ++q) {
    opens.stage(acts[q][static_cast<std::size_t>(p.output)].shares, &revealed[q]);
  }
  opens.flush();
  const bool labels = p.ops[static_cast<std::size_t>(p.output)].kind == OpKind::argmax;
  for (std::size_t q = 0; q < lanes; ++q) {
    if (labels) {
      std::vector<int>& lane_labels = result.labels.emplace_back();
      for (const std::uint64_t v : revealed[q]) {
        lane_labels.push_back(static_cast<int>(crypto::to_signed(v, rc)));
      }
    } else {
      const SecureTensor& final_act = acts[q][static_cast<std::size_t>(p.output)];
      result.logits.push_back(nn::Tensor::from_doubles(crypto::decode_vec(revealed[q], rc),
                                                       std::vector<int>(final_act.shape)));
    }
  }
  return result;
}

ExecResult execute(const SecureProgram& p, const CompiledParams& params,
                   crypto::TwoPartyContext& ctx, const nn::Tensor& input,
                   const ExecOptions& opts) {
  BatchExecOptions bopts;
  if (opts.layer_hook) {
    const auto& hook = opts.layer_hook;
    bopts.layer_hook = [&hook](std::size_t, int layer) { hook(layer); };
  }
  if (opts.op_hook) {
    const auto& hook = opts.op_hook;
    bopts.op_hook = [&hook](std::size_t, std::size_t idx, const SecureTensor& t) {
      hook(idx, t);
    };
  }
  BatchExecResult batch = execute_batch(p, params, ctx, {input}, bopts);
  ExecResult result;
  if (!batch.logits.empty()) result.logits = std::move(batch.logits[0]);
  if (!batch.labels.empty()) result.labels = std::move(batch.labels[0]);
  return result;
}

}  // namespace pasnet::ir
