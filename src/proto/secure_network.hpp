#pragma once
// Secure inference compiler: lowers a trained plaintext network into a 2PC
// program via the secure-inference IR (src/ir) — lowering, batch-norm
// folding, x2act coefficient fusion and open-coalescing round scheduling
// all run as IR passes — and secret-shares its parameters once.  Serving
// (batched execution, preprocessing, stores) lives in proto::Workload; the
// old infer/classify/preprocess method matrix on this class is gone.

#include <memory>
#include <vector>

#include "ir/executor.hpp"
#include "ir/program.hpp"
#include "nn/models.hpp"
#include "proto/secure_ops.hpp"

namespace pasnet::proto {

/// Per-inference protocol statistics: a value projection of a counter
/// block.
struct InferenceStats {
  std::uint64_t comm_bytes = 0;
  /// Bytes spent opening weight-shaped E = W - B values.  Every query
  /// re-sends them (no fixed-weight-mask preprocessing yet); online
  /// traffic is comm_bytes - weight_open_bytes.
  std::uint64_t weight_open_bytes = 0;
  std::uint64_t messages = 0;
  /// Latency-critical message exchanges.  A merged multi-open exchange
  /// counts as ONE round (both directions, all staged openings together) —
  /// the same unit perf::OpCost::rounds models, so measured and analytic
  /// counts are directly comparable.
  std::uint64_t rounds = 0;

  [[nodiscard]] std::uint64_t online_bytes() const noexcept {
    return comm_bytes - weight_open_bytes;
  }

  /// The one place an InferenceStats is filled: the block `c` of a window
  /// that served `queries` queries, each opening `weight_open_bytes` of
  /// weight-shaped E.
  [[nodiscard]] static InferenceStats of(const obs::CounterSnapshot& c, std::size_t queries,
                                         std::uint64_t weight_open_bytes) noexcept {
    return {c.total_bytes(), weight_open_bytes * queries, c[obs::Counter::messages],
            c[obs::Counter::rounds]};
  }
};

/// A network compiled for 2PC evaluation.
class SecureNetwork {
 public:
  /// Compiles from a descriptor and the trained plaintext graph built by
  /// nn::build_graph (node_of_layer is the mapping that builder returned).
  /// Lowering + the standard IR pass pipeline run here; weights are
  /// fixed-point encoded and secret-shared once.  The SecureConfig is
  /// ignored (see SecureConfig).
  SecureNetwork(const nn::ModelDescriptor& md, nn::Graph& trained,
                const std::vector<int>& node_of_layer, crypto::TwoPartyContext& ctx,
                SecureConfig /*ignored*/ = SecureConfig{});

  [[nodiscard]] const nn::ModelDescriptor& descriptor() const noexcept { return md_; }

  /// The scheduled IR program this network executes (post pass pipeline).
  /// Plaintext parameters are released after sharing — ops carry shapes,
  /// edges and round groups only.
  [[nodiscard]] const ir::SecureProgram& program() const noexcept { return program_; }

  /// The label-only variant: program() with a secure-argmax terminal
  /// appended.  Built lazily; the argmax op carries no parameters, so
  /// params() applies to both programs unchanged.
  [[nodiscard]] const ir::SecureProgram& classify_program();

  /// The secret-shared parameters, aligned with program().ops — what a
  /// remote party session (net::PartySession) executes against.
  [[nodiscard]] const ir::CompiledParams& params() const noexcept { return params_; }

  // --- Offline preprocessing (paper §II-B offline/online split) -----------

  /// Canonical seed of the fresh per-query context that serves the query at
  /// stream position q (infer_batch position q, or the q-th store-backed
  /// infer()).  Public so the offline generator and the serving path agree.
  [[nodiscard]] static std::uint64_t query_context_seed(std::size_t q) noexcept;
  /// Seed of the dealer inside that context — the seed the offline
  /// generator must use for query q's bundle to replay the dealer path.
  [[nodiscard]] static std::uint64_t query_dealer_seed(std::size_t q) noexcept;

  // --- Accessors the Workload serving layer builds on ----------------------

  [[nodiscard]] const crypto::RingConfig& ring() const noexcept { return ctx_.ring(); }
  [[nodiscard]] std::chrono::microseconds round_delay() const noexcept {
    return ctx_.round_delay();
  }
  /// Bytes of one query's weight-shaped E openings — a model constant
  /// (see InferenceStats).
  [[nodiscard]] std::uint64_t weight_open_bytes() const noexcept { return weight_open_bytes_; }

 private:
  /// Builds the lazy argmax program (idempotent).
  void ensure_classify_compiled();

  nn::ModelDescriptor md_;
  crypto::TwoPartyContext& ctx_;
  ir::SecureProgram program_;
  ir::CompiledParams params_;
  std::uint64_t weight_open_bytes_ = 0;  // model constant, computed once
  std::unique_ptr<ir::SecureProgram> argmax_program_;  // lazy (classify)
};

}  // namespace pasnet::proto
