#pragma once
// Triple *source* abstraction (paper §II-B offline/online split).
//
// Every multiplicative online protocol, and every (1,4)-OT of the
// comparisons, consumes correlated randomness.  The protocols do not care
// where it comes from, only that it is valid material of the requested
// shape — so they pull from a TripleSource instead of calling the
// TripleDealer directly.  Material comes in four kinds: product triples
// Z = f(A, B), square pairs, boolean AND triples and random OTs.  Two
// sources exist:
//
//  - DealerTripleSource: the fused baseline.  Every request is generated
//    inline by the trusted dealer, exactly the pre-refactor behaviour.
//  - offline::StoreTripleSource: the production shape.  Requests are served
//    from a pool of *pregenerated* material (src/offline), so the online
//    phase never pays triple-generation compute.
//
// A product triple needs the bilinear map f to compute Z = f(A, B) at
// generation time.  A preprocessing plan cannot serialize a lambda, so f
// is described by a BilinearSpec (crypto/beaver.hpp: an elementwise
// product, a matrix product or a convolution's geometry) and rebuilt from
// it with build_bilinear_map() wherever it is needed — online
// recombination and offline generation share one implementation, which is
// what keeps store-backed inference bit-identical to the dealer path.

#include <cstdint>

#include "crypto/beaver.hpp"

namespace pasnet::crypto {

/// Where the online protocols get their correlated randomness.  Protocol
/// code draws through TwoPartyContext, which counts every draw as one
/// obs::Counter::triple_claims on its counter block.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  [[nodiscard]] virtual SquarePair square_pair(std::size_t n) = 0;
  [[nodiscard]] virtual BitTriple bit_triple(std::size_t n) = 0;
  /// One product triple Z = f(A, B) for the map `spec` describes.
  [[nodiscard]] virtual BilinearTriple bilinear_triple(const BilinearSpec& spec) = 0;
  /// n random (1,4)-OTs whose sender is party `sender`.
  [[nodiscard]] virtual RandomOt random_ot(std::size_t n, int sender) = 0;
};

/// The fused offline+online baseline: every request generated inline by the
/// trusted dealer.
class DealerTripleSource final : public TripleSource {
 public:
  explicit DealerTripleSource(TripleDealer& dealer) : dealer_(dealer) {}

  SquarePair square_pair(std::size_t n) override { return dealer_.square_pair(n); }
  BitTriple bit_triple(std::size_t n) override { return dealer_.bit_triple(n); }
  BilinearTriple bilinear_triple(const BilinearSpec& spec) override {
    return dealer_.bilinear_triple(spec);
  }
  RandomOt random_ot(std::size_t n, int sender) override {
    return dealer_.random_ot(n, sender);
  }

 private:
  TripleDealer& dealer_;
};

}  // namespace pasnet::crypto
