#include "proto/workload.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ir/plan.hpp"

namespace pasnet::proto {

Workload::Workload(SecureNetwork& net, WorkloadOptions opts) : net_(net), opts_(opts) {
  if (opts_.batch < 1) {
    throw std::invalid_argument("Workload: batch must be >= 1");
  }
  if (opts_.worker_pairs < 1) {
    throw std::invalid_argument("Workload: worker_pairs must be >= 1");
  }
  program_ = opts_.kind == WorkloadKind::classify ? &net_.classify_program() : &net_.program();
  plan_ = ir::derive_plan(*program_, net_.ring());
}

offline::TripleStore Workload::preprocess(std::size_t queries, int threads,
                                          offline::GenerationReport* report) const {
  offline::OfflineGenerator gen(threads);
  gen.set_tracer(tracer_);  // the offline phase shares the workload timeline
  return gen.generate(
      plan_, queries, [](std::size_t q) { return SecureNetwork::query_dealer_seed(q); },
      report);
}

void Workload::use_store(offline::TripleStore* store) {
  if (store != nullptr && store->plan_fingerprint() != plan_.fingerprint()) {
    throw std::invalid_argument(
        "Workload::use_store: store fingerprint does not match this workload's plan "
        "(different model, or a logits store offered to a classify workload / vice versa)");
  }
  store_ = store;
}

ChunkRun run_chunk(crypto::TwoPartyContext& ctx, const ir::SecureProgram& program,
                   const ir::CompiledParams& params, const std::vector<ChunkLane>& lanes,
                   const std::vector<nn::Tensor>& inputs, ir::BatchExecOptions opts,
                   obs::Tracer* tracer) {
  const crypto::RingConfig& rc = ctx.ring();
  // Every lane draws correlated randomness from its OWN stream — its
  // bundle, or its position's canonical dealer — and share randomness from
  // a PRNG pair seeded exactly like the fresh per-query context an
  // independent run of that position constructs.  That is what pins each
  // lane's share splits (and truncation noise) to that run's.
  std::vector<std::unique_ptr<crypto::TripleDealer>> dealers;
  std::vector<std::unique_ptr<crypto::TripleSource>> sources;
  std::vector<crypto::Prng> prngs;
  prngs.reserve(2 * lanes.size());
  for (const ChunkLane& lane : lanes) {
    if (lane.bundle != nullptr) {
      sources.push_back(std::make_unique<offline::StoreTripleSource>(*lane.bundle));
    } else {
      dealers.push_back(std::make_unique<crypto::TripleDealer>(
          rc, SecureNetwork::query_dealer_seed(lane.position), ctx.local_party()));
      sources.push_back(std::make_unique<crypto::DealerTripleSource>(*dealers.back()));
    }
    opts.lane_sources.push_back(sources.back().get());
    const std::uint64_t cseed = SecureNetwork::query_context_seed(lane.position);
    crypto::Prng& share0 = prngs.emplace_back(crypto::splitmix64(cseed ^ 1));
    crypto::Prng& share1 = prngs.emplace_back(crypto::splitmix64(cseed ^ 2));
    opts.lane_prngs.emplace_back(&share0, &share1);  // stable: reserved above
  }

  // The metered window: everything the chunk counts lands in the block,
  // which folds into the tracer once, when the window ends.
  ctx.reset_stats();
  ctx.set_tracer(tracer);
  ChunkRun run;
  run.results = ir::execute_batch(program, params, ctx, inputs, opts);
  run.counters = ctx.counters().snapshot();
  if (tracer != nullptr) tracer->add(run.counters);
  return run;
}

WorkloadResult Workload::run(const std::vector<nn::Tensor>& inputs) {
  const std::size_t n = inputs.size();
  WorkloadResult out;
  stats_ = InferenceStats{};
  chunk_stats_.clear();
  if (n == 0) return out;
  const auto lanes_per_chunk = static_cast<std::size_t>(opts_.batch);
  const std::size_t num_chunks = (n + lanes_per_chunk - 1) / lanes_per_chunk;

  // Store-backed serving claims this call's bundles up front, all or none.
  // Claims are ordered, so query q of this call is served by bundle
  // first + q — on a fresh store exactly the canonical stream position the
  // dealer path would use.
  std::vector<ChunkLane> lanes(n);
  const std::size_t first = store_ != nullptr ? store_->claim(n) : next_query_;
  for (std::size_t q = 0; q < n; ++q) {
    lanes[q].position = first + q;
    if (store_ != nullptr) lanes[q].bundle = &store_->bundle(first + q);
  }
  next_query_ += n;

  if (opts_.kind == WorkloadKind::logits) {
    out.logits.resize(n);
  } else {
    out.labels.resize(n);
  }
  chunk_stats_.resize(num_chunks);

  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const auto run_one = [&](std::size_t c) {
    const std::size_t lo = c * lanes_per_chunk;
    const std::size_t hi = std::min(n, lo + lanes_per_chunk);
    const std::vector<ChunkLane> chunk(lanes.begin() + static_cast<long>(lo),
                                       lanes.begin() + static_cast<long>(hi));
    // Per-chunk tracer, merged into the workload tracer at the end
    // (concurrent chunk workers each own their tracer, so there is no
    // cross-chunk tearing).  It outlives the context it is attached to.
    obs::Tracer chunk_tracer(tracing);
    // One fresh context per chunk, seeded with lane 0's canonical context
    // seed.
    crypto::TwoPartyContext cctx(
        net_.ring(), SecureNetwork::query_context_seed(chunk[0].position), net_.round_delay());
    const std::uint64_t chunk_begin = tracing ? obs::Tracer::now_us() : 0;
    ChunkRun run = run_chunk(cctx, program(), net_.params(), chunk,
                             {inputs.begin() + static_cast<long>(lo),
                              inputs.begin() + static_cast<long>(hi)},
                             {}, tracing ? &chunk_tracer : nullptr);
    for (std::size_t j = 0; j < chunk.size(); ++j) {
      if (opts_.kind == WorkloadKind::logits) {
        out.logits[lo + j] = std::move(run.results.logits[j]);
      } else {
        out.labels[lo + j] = std::move(run.results.labels[j]);
      }
    }

    ChunkStats& cs = chunk_stats_[c];
    cs.first_query = chunk[0].position;
    cs.queries = chunk.size();
    cs.counters = run.counters;
    if (store_ != nullptr) {
      // Claimed up front, outside the metered window: one per lane.
      cs.counters.values[static_cast<int>(obs::Counter::store_claims)] = chunk.size();
      chunk_tracer.add(obs::Counter::store_claims, chunk.size());
    }
    if (tracing) {
      chunk_tracer.complete_span("proto", "chunk", chunk_begin,
                                 static_cast<std::int64_t>(chunk.size()));
      chunk_tracer.sample(obs::Sample::chunk_us, obs::Tracer::now_us() - chunk_begin);
      tracer_->merge_from(chunk_tracer);
    }
  };

  const int workers = std::max(
      1, std::min(opts_.worker_pairs, static_cast<int>(num_chunks)));
  std::atomic<std::size_t> next{0};
  std::mutex err_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= num_chunks) break;
      try {
        run_one(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(num_chunks);  // drain the queue so other workers stop
        break;
      }
    }
  };
  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  obs::CounterSnapshot total;
  for (const ChunkStats& cs : chunk_stats_) total += cs.counters;
  stats_ = InferenceStats::of(total, n, net_.weight_open_bytes());
  return out;
}

}  // namespace pasnet::proto
