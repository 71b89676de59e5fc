#pragma once
// The unified serving API: one Workload = one compiled model + one output
// kind (logits or labels) + one batch width K, yielding ONE plan, ONE
// preprocess entry point, ONE store fingerprint family and ONE run()
// method.  SecureNetwork is compile-and-share only; serving always goes
// through a Workload.
//
// run() executes queries in K-lane chunks inside single contexts
// (ir::execute_batch): all K lanes of a chunk advance each round group in
// lockstep, so comparison rounds are shared batch-wide and a K-query chunk
// costs the rounds of ONE query.  Chunk contexts and per-lane triple
// streams follow the canonical per-query seeding
// (SecureNetwork::query_context_seed / query_dealer_seed of the query's
// stream position), which makes every lane's output bit-identical to an
// independent single-query run of the same stream position — batched,
// worker-sharded, store-backed and dealer-backed serving all produce the
// same bits.
//
// run_chunk() is the one chunk runner: Workload::run drives it in process
// and net::PartySession::run_batch drives it for one party of a
// two-process session, so both execute the same lane setup and the same
// metered window, whose counter block folds into the chunk's tracer once
// when the window ends.

#include <cstddef>
#include <vector>

#include "ir/executor.hpp"
#include "obs/tracer.hpp"
#include "offline/offline_generator.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"
#include "proto/secure_network.hpp"

namespace pasnet::proto {

/// What a workload reveals per query.
enum class WorkloadKind {
  logits,    ///< reconstructed logit tensors
  classify,  ///< argmax labels only (label-only serving)
};

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::logits;
  /// Lanes per chunk context (K): run() executes ceil(n/K) chunks, each a
  /// single-context batched execution of up to K queries.  A trailing
  /// partial chunk runs with fewer lanes (heterogeneous K) — per-query
  /// results do not depend on the chunking.
  int batch = 1;
  /// Concurrent chunk workers; chunks are independent (own context, own
  /// per-lane triple streams), so any worker count produces the same bits.
  int worker_pairs = 1;
};

/// Per-query outcomes of one run() call.
struct WorkloadResult {
  std::vector<nn::Tensor> logits;        ///< one per query (logits workloads)
  std::vector<std::vector<int>> labels;  ///< one per query (classify workloads)
};

/// One lane of a chunk, as the caller decided it.
struct ChunkLane {
  /// Canonical stream position: seeds the lane's dealer stream and its
  /// share-randomness PRNG pair, which pins the lane's output to an
  /// independent single-query run of the same position.
  std::size_t position = 0;
  /// Pregenerated material serving the lane (a store, dealer-daemon or
  /// ot-ext bundle), or nullptr to draw from the position's dealer stream.
  offline::QueryBundle* bundle = nullptr;
};

/// What one chunk produced.
struct ChunkRun {
  ir::BatchExecResult results;
  obs::CounterSnapshot counters;  ///< the chunk's metered window, traced or not
};

/// Runs one chunk on a context the caller built (in process, or one party
/// of a remote pair) and seeded with lane 0's canonical context seed.
/// Builds each lane's triple source and PRNG pair, resets the counter
/// block (the metered window starts), runs ir::execute_batch with
/// `tracer` (nullable; the caller's per-chunk tracer) attached for spans,
/// and folds the window's block into `tracer` once at the end.  `opts`
/// carries, on the remote path, the per-lane input shares (with `inputs`
/// empty); its lane sources and PRNGs are filled in here.
[[nodiscard]] ChunkRun run_chunk(crypto::TwoPartyContext& ctx, const ir::SecureProgram& program,
                                 const ir::CompiledParams& params,
                                 const std::vector<ChunkLane>& lanes,
                                 const std::vector<nn::Tensor>& inputs, ir::BatchExecOptions opts,
                                 obs::Tracer* tracer);

/// Per-chunk statistics: the totals are chunk-level (the chunk's lanes
/// share every exchange — that is the point).
struct ChunkStats {
  std::size_t first_query = 0;  ///< canonical stream position of lane 0
  std::size_t queries = 0;      ///< lanes in this chunk
  /// The chunk's counter block, traced or not: its metered window plus
  /// one store claim per lane when store-served.
  obs::CounterSnapshot counters;
};

class Workload {
 public:
  /// Binds a compiled network to an output kind and batch width.  The
  /// classify kind compiles the argmax-terminated program on first use;
  /// the plan is derived here from that program, so logits and classify
  /// workloads of the same model carry distinct fingerprints (they consume
  /// different triple streams).
  explicit Workload(SecureNetwork& net, WorkloadOptions opts = WorkloadOptions{});

  [[nodiscard]] WorkloadKind kind() const noexcept { return opts_.kind; }
  [[nodiscard]] int batch() const noexcept { return opts_.batch; }
  [[nodiscard]] int worker_pairs() const noexcept { return opts_.worker_pairs; }
  [[nodiscard]] SecureNetwork& network() const noexcept { return net_; }

  /// The program this workload executes (argmax-terminated for classify).
  [[nodiscard]] const ir::SecureProgram& program() const noexcept { return *program_; }

  /// The workload's ONE preprocessing plan: what one query consumes, with
  /// the fingerprint its stores must match.
  [[nodiscard]] const offline::PreprocessingPlan& plan() const noexcept { return plan_; }

  /// Pregenerates `queries` queries' worth of correlated randomness on
  /// `threads` workers, canonically seeded so serving from the store is
  /// bit-identical to the dealer path.
  [[nodiscard]] offline::TripleStore preprocess(
      std::size_t queries, int threads = 1,
      offline::GenerationReport* report = nullptr) const;

  /// Serves subsequent run() calls from pregenerated material (non-owning;
  /// the store must outlive serving).  The store fingerprint must match
  /// plan() — there is exactly one fingerprint family per workload.  A
  /// run() needing more queries than the store has left raises
  /// offline::TripleStoreExhausted before any chunk runs, having claimed
  /// nothing and advanced no stream position.  Pass nullptr to detach and
  /// serve the dealer path again.
  void use_store(offline::TripleStore* store);
  [[nodiscard]] offline::TripleStore* store() const noexcept { return store_; }

  /// Runs the queries in K-lane batched chunks, sharded across
  /// worker_pairs.  Query stream positions continue across run() calls
  /// (the q-th query ever submitted uses the canonical seeds of position
  /// q), so splitting a query list over several run() calls returns the
  /// same bits as one call.
  [[nodiscard]] WorkloadResult run(const std::vector<nn::Tensor>& inputs);

  /// Totals across the last run() call's chunks.
  [[nodiscard]] const InferenceStats& stats() const noexcept { return stats_; }
  /// Per-chunk breakdown of the last run() call.
  [[nodiscard]] const std::vector<ChunkStats>& chunk_stats() const noexcept {
    return chunk_stats_;
  }
  /// Queries submitted so far (the next query's canonical stream position).
  [[nodiscard]] std::size_t queries_served() const noexcept { return next_query_; }

  /// Attaches a tracer (non-owning; nullptr detaches).  Each chunk runs
  /// under its own per-chunk tracer (attached to the chunk context for
  /// spans; its counters are the chunk's block, folded in at the end of
  /// the window); spans, samples and counters are then merged into the
  /// attached tracer, so concurrent chunk workers aggregate into one
  /// timeline.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  SecureNetwork& net_;
  WorkloadOptions opts_;
  const ir::SecureProgram* program_;  // owned by net_
  offline::PreprocessingPlan plan_;
  offline::TripleStore* store_ = nullptr;  // non-owning; see use_store
  std::size_t next_query_ = 0;
  InferenceStats stats_;
  std::vector<ChunkStats> chunk_stats_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
};

}  // namespace pasnet::proto
