#include "offline/offline_generator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "crypto/beaver.hpp"

namespace pasnet::offline {

namespace {

/// Generates one query's bundle by replaying the plan against a dedicated,
/// canonically seeded dealer.  Request order is the dealer's PRNG draw
/// order, so it must match consumption order exactly.
void generate_bundle(const PreprocessingPlan& plan, QueryBundle& bundle,
                     std::uint64_t dealer_seed) {
  crypto::TripleDealer dealer(plan.ring, dealer_seed);
  for (const TripleRequest& r : plan.requests) {
    switch (r.kind) {
      case TripleKind::bilinear:
        bundle.bilinear.push_back(dealer.bilinear_triple(r.bilinear));
        break;
      case TripleKind::square:
        bundle.square.push_back(dealer.square_pair(static_cast<std::size_t>(r.n)));
        break;
      case TripleKind::bit:
        bundle.bit.push_back(dealer.bit_triple(static_cast<std::size_t>(r.n)));
        break;
      case TripleKind::rot:
        bundle.rot.push_back(dealer.random_ot(static_cast<std::size_t>(r.n), r.sender));
        break;
    }
  }
}

}  // namespace

TripleStore OfflineGenerator::generate(const PreprocessingPlan& plan, std::size_t queries,
                                       const DealerSeedFn& dealer_seed,
                                       GenerationReport* report) const {
  TripleStore store(plan.ring, plan.fingerprint(), queries);
  const obs::SpanGuard span(tracer_, "offline", "generate",
                            static_cast<std::int64_t>(queries));
  const auto t0 = std::chrono::steady_clock::now();

  const int workers =
      std::max(1, std::min(threads_, static_cast<int>(queries == 0 ? 1 : queries)));
  std::atomic<std::size_t> next{0};
  std::mutex err_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t q = next.fetch_add(1);
      if (q >= queries) break;
      try {
        generate_bundle(plan, store.bundle(q), dealer_seed(q));
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(queries);
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

  if (report != nullptr) {
    const auto t1 = std::chrono::steady_clock::now();
    report->queries = queries;
    report->threads = workers;
    report->seconds = std::chrono::duration<double>(t1 - t0).count();
    report->ring_material_elems = plan.material_elems_per_query() * queries;
    report->bit_triples = plan.bit_triples_per_query() * queries;
    report->store_bytes = store.material_bytes();
  }
  return store;
}

}  // namespace pasnet::offline
