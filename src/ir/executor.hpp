#pragma once
// The IR interpreter: runs a scheduled SecureProgram under the 2PC
// protocol stack.
//
// Parameters are secret-shared once (share_parameters) and reused across
// queries; execute() walks the program in order, staging the openings of
// every round group on the context's buffers and flushing each group in
// one exchange per phase.  Staging preserves the program-order dealer and
// PRNG draw sequence, so the round groups a program carries decide its
// round and message counts, never its bits: the same ops with every
// stageable op in a group of its own reveal bit-identical logits.
//
// execute_batch() generalizes the walk to K queries inside ONE context:
// every op stages all K lanes' instances into the same round group, so
// each group's OT exchange, AND levels and openings are shared across the
// whole batch and the group rounds are independent of K.  Each lane draws
// correlated randomness from its own TripleSource and shares its input
// with its own canonical client PRG, which makes the batched logits
// bit-identical to K independent single-query runs on canonically seeded
// per-query contexts.

#include <functional>

#include "ir/program.hpp"
#include "proto/secure_ops.hpp"

namespace pasnet::ir {

/// Secret-shared program parameters, aligned with SecureProgram::ops.
struct CompiledParams {
  std::vector<crypto::Shared> weight;
  std::vector<crypto::Shared> bias;
};

/// Fixed-point encodes and secret-shares every op's parameters, in program
/// order (weight, then bias when present) — the draw order the historical
/// compiler used, so shared weights are reproducible from the same seed.
[[nodiscard]] CompiledParams share_parameters(const SecureProgram& program, crypto::Prng& prng,
                                              const crypto::RingConfig& rc);

/// Execution knobs.
struct ExecOptions {
  /// Invoked with each op's descriptor-layer tag right before the op draws
  /// its correlated randomness (the preprocessing-plan oracle hook).
  std::function<void(int)> layer_hook;
  /// Invoked with (op index, output tensor) as each op's secret-shared
  /// output lands — after its round group delivers; an argmax terminal
  /// reports its winning indices' shares.  The differential test harness
  /// compares these shares request-for-request between groupings.
  std::function<void(std::size_t, const proto::SecureTensor&)> op_hook;
};

/// What a program run reveals to the client.
struct ExecResult {
  nn::Tensor logits;        ///< reconstructed logits (empty for argmax programs)
  std::vector<int> labels;  ///< revealed labels (argmax-terminated programs only)
};

/// Runs one query.  The input is shared with the canonical client PRG, the
/// program executes group by group, and the terminal op's value (logits or
/// argmax labels) is jointly opened.
[[nodiscard]] ExecResult execute(const SecureProgram& program, const CompiledParams& params,
                                 crypto::TwoPartyContext& ctx, const nn::Tensor& input,
                                 const ExecOptions& opts = ExecOptions{});

/// Knobs of a K-lane batched run.  All hooks receive the lane index first.
struct BatchExecOptions {
  /// (lane, descriptor-layer tag), right before that lane's instance draws
  /// its correlated randomness.
  std::function<void(std::size_t, int)> layer_hook;
  /// (lane, op index, output tensor) as each lane's op output lands.
  std::function<void(std::size_t, std::size_t, const proto::SecureTensor&)> op_hook;
  /// Per-lane correlated-randomness sources (non-owning; must outlive the
  /// call).  When set (size K), the executor installs lane q's source on
  /// the context around every draw of lane q's instances and restores the
  /// context's own installation on return — this is what pins lane q's
  /// dealer stream to the stream an independent single-query run of query
  /// q would consume.  When empty, every lane draws from the context's
  /// currently installed source (single-lane callers).
  std::vector<crypto::TripleSource*> lane_sources;
  /// Per-lane share-randomness streams (non-owning; must outlive the
  /// call).  When set (size K), the executor installs lane q's pair as the
  /// context's prng() override around every draw of lane q's instances —
  /// the PRNG analog of lane_sources.  Seed the pair exactly like a fresh
  /// per-query context (splitmix64(context_seed ^ 1) / (context_seed ^ 2))
  /// and lane q's share-affecting draws — millionaire leaf masks, hence
  /// share splits and truncation noise — replay its independent run's.
  /// When empty, every lane draws from the context's own streams.
  std::vector<std::pair<crypto::Prng*, crypto::Prng*>> lane_prngs;
  /// Per-lane pre-shared inputs (non-owning; must outlive the call).  When
  /// set (size K), lane q's input op delivers a copy of *input_shares[q]
  /// instead of sharing inputs[q] — the remote (two-process) path, where
  /// the model-serving party never sees the plaintext.  The client shares
  /// with the same canonical PRG, so both paths give bit-identical logits.
  std::vector<const proto::SecureTensor*> input_shares;
};

/// Per-lane outcomes of a batched run.
struct BatchExecResult {
  std::vector<nn::Tensor> logits;        ///< per lane (empty for argmax programs)
  std::vector<std::vector<int>> labels;  ///< per lane (argmax programs only)
};

/// Runs K queries in lockstep inside one context.  Each op stages all K
/// lanes' instances into the same round group before the group flushes, so
/// comparison rounds — the argmax tournament's included — are shared
/// batch-wide (a group costs the rounds of ONE comparison stack regardless
/// of K), and the terminal logits or labels of all lanes reveal in one
/// joint opening.  Lane q shares its input with its own canonical client
/// PRG and draws from lane_sources[q] (when given), making each lane's
/// transcript values bit-identical to an independent single-query run.
[[nodiscard]] BatchExecResult execute_batch(const SecureProgram& program,
                                            const CompiledParams& params,
                                            crypto::TwoPartyContext& ctx,
                                            const std::vector<nn::Tensor>& inputs,
                                            const BatchExecOptions& opts = BatchExecOptions{});

}  // namespace pasnet::ir
