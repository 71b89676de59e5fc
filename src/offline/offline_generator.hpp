#pragma once
// Offline-phase generator: fills a TripleStore with N queries' worth of a
// PreprocessingPlan's material across a worker-thread pool.
//
// Each query's material is generated by a dedicated dealer seeded with that
// query's canonical seed (the caller supplies the seed function — for
// SecureNetwork serving it is SecureNetwork::query_dealer_seed), replaying
// the plan's requests in consumption order.  That makes every bundle an
// exact pre-image of what the fused online path would have drawn, and makes
// queries embarrassingly parallel to generate: dealers never share state.

#include <cstdint>
#include <functional>

#include "obs/tracer.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"

namespace pasnet::offline {

/// Throughput summary of one generation run.
struct GenerationReport {
  std::size_t queries = 0;
  int threads = 1;
  double seconds = 0.0;
  std::uint64_t ring_material_elems = 0;  ///< a/b/z ring elements generated
  std::uint64_t bit_triples = 0;
  std::uint64_t store_bytes = 0;  ///< serialized size of the filled store

  [[nodiscard]] double elems_per_sec() const noexcept {
    return seconds > 0 ? static_cast<double>(ring_material_elems) / seconds : 0.0;
  }
  [[nodiscard]] double queries_per_sec() const noexcept {
    return seconds > 0 ? static_cast<double>(queries) / seconds : 0.0;
  }
};

class OfflineGenerator {
 public:
  /// `threads` <= 1 generates on the calling thread.
  explicit OfflineGenerator(int threads = 1) : threads_(threads) {}

  /// Seed of the dealer that generates query q's bundle.
  using DealerSeedFn = std::function<std::uint64_t(std::size_t)>;

  /// Fills a store with `queries` bundles of `plan`'s material.
  [[nodiscard]] TripleStore generate(const PreprocessingPlan& plan, std::size_t queries,
                                     const DealerSeedFn& dealer_seed,
                                     GenerationReport* report = nullptr) const;

  /// Attaches a tracer: generate() records one "offline"/"generate" span
  /// covering the whole run (lanes = queries).  Non-owning; nullptr
  /// detaches.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  int threads_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
};

}  // namespace pasnet::offline
