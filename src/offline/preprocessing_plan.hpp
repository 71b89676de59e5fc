#pragma once
// Per-model preprocessing plans (paper §II-B offline phase).
//
// A PreprocessingPlan is the exact, ordered list of correlated-randomness
// requests that ONE query of a compiled SecureNetwork consumes — kind,
// shape, and the layer that consumes it.  It is derived statically from
// the secure-inference IR (ir::derive_plan walks the scheduled program),
// and is everything the OfflineGenerator needs to pregenerate material:
// replaying the requests in order against a dealer with a query's
// canonical seed reproduces, draw for draw, the exact triples the fused
// online path would have generated — which is what makes store-backed
// inference bit-identical to the dealer path.
//
// The fingerprint hashes the request stream (and the ring), so a serialized
// TripleStore can be checked against the model it is loaded for.

#include <cstdint>
#include <vector>

#include "crypto/triple_source.hpp"

namespace pasnet::offline {

/// Which pool a request draws from: product triples Z = f(A, B) (every
/// elementwise, matrix and convolution product — the spec names f), square
/// pairs, boolean AND triples, or random (1,4)-OTs.
enum class TripleKind : std::uint8_t { bilinear, square, bit, rot };

/// One correlated-randomness request, in consumption order.
struct TripleRequest {
  TripleKind kind = TripleKind::bilinear;
  int layer = -1;      ///< descriptor index of the consuming layer (-1 = outside layers)
  std::uint64_t n = 0; ///< element / instance count (square/bit/rot)
  crypto::BilinearSpec bilinear{};  ///< product geometry
  int sender = 1;                   ///< rot: the party that sends

  [[nodiscard]] bool operator==(const TripleRequest& o) const noexcept {
    return kind == o.kind && layer == o.layer && n == o.n &&
           (kind != TripleKind::bilinear || bilinear == o.bilinear) &&
           (kind != TripleKind::rot || sender == o.sender);
  }
  [[nodiscard]] bool operator!=(const TripleRequest& o) const noexcept { return !(*this == o); }

  /// Ring elements of material this request produces (0 for bit triples
  /// and random OTs, which are counted separately — they are bits and
  /// bytes, not ring elements).
  [[nodiscard]] std::uint64_t material_elems() const noexcept {
    switch (kind) {
      case TripleKind::bilinear:
        return bilinear.na() + bilinear.nb() + bilinear.nz();
      case TripleKind::square:
        return 2 * n;
      case TripleKind::bit:
      case TripleKind::rot:
        return 0;
    }
    return 0;
  }
};

/// The compiled offline requirements of one query of one model.
struct PreprocessingPlan {
  crypto::RingConfig ring{};
  std::vector<TripleRequest> requests;

  /// FNV-1a over the ring and the shape of every request (layer tags are
  /// annotations and excluded): two plans with equal fingerprints demand
  /// byte-identical material streams.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Ring elements of material one query consumes (a, b and z sides).
  [[nodiscard]] std::uint64_t material_elems_per_query() const noexcept;
  /// Boolean AND triples one query consumes.
  [[nodiscard]] std::uint64_t bit_triples_per_query() const noexcept;
  /// Random (1,4)-OTs one query consumes.
  [[nodiscard]] std::uint64_t random_ots_per_query() const noexcept;
  /// Bytes of one query's material values: 16 per ring element (both
  /// shares), 6 per bit triple, 6 per random OT — sizing for capacity
  /// planning.  The serialized bundle adds length prefixes, pool counts
  /// and one spec record per product triple (TripleStore::material_bytes).
  [[nodiscard]] std::uint64_t material_bytes_per_query() const noexcept;
};

/// A TripleSource decorator that records every request under the layer the
/// executor tagged via begin_layer(), delegating generation to a real
/// dealer.  Production plans are derived statically from the IR
/// (ir::derive_plan); this recorder survives as the *test oracle* that
/// cross-checks the static derivation against what a real query actually
/// consumes.
class RecordingTripleSource final : public crypto::TripleSource {
 public:
  RecordingTripleSource(crypto::TripleDealer& dealer, const crypto::RingConfig& rc)
      : dealer_(dealer) {
    plan_.ring = rc;
  }

  void begin_layer(int layer) noexcept { layer_ = layer; }
  [[nodiscard]] PreprocessingPlan take_plan() { return std::move(plan_); }

  crypto::SquarePair square_pair(std::size_t n) override;
  crypto::BitTriple bit_triple(std::size_t n) override;
  crypto::BilinearTriple bilinear_triple(const crypto::BilinearSpec& spec) override;
  crypto::RandomOt random_ot(std::size_t n, int sender) override;

 private:
  crypto::DealerTripleSource dealer_;
  PreprocessingPlan plan_;
  int layer_ = -1;
};

}  // namespace pasnet::offline
