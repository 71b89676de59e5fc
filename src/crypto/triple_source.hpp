#pragma once
// Triple *source* abstraction (paper §II-B offline/online split).
//
// Every multiplicative online protocol, and every (1,4)-OT of the
// comparisons, consumes correlated randomness.  The protocols do not care
// where it comes from, only that it is valid material of the requested
// shape — so they pull from a TripleSource instead of calling the
// TripleDealer directly.  Two sources exist:
//
//  - DealerTripleSource: the fused baseline.  Every request is generated
//    inline by the trusted dealer, exactly the pre-refactor behaviour.
//  - offline::StoreTripleSource: the production shape.  Requests are served
//    from a pool of *pregenerated* material (src/offline), so the online
//    phase never pays triple-generation compute.
//
// Bilinear (convolution-shaped) triples need the bilinear map f to compute
// Z = f(A, B) at generation time.  Online code used to pass an ephemeral
// lambda; a preprocessing plan cannot serialize a lambda, so the map is now
// described by a BilinearSpec (the conv geometry) and rebuilt from it with
// build_bilinear_map() wherever it is needed — online recombination and
// offline generation share one implementation, which is what keeps
// store-backed inference bit-identical to the dealer path.

#include <cstdint>
#include <functional>

#include "crypto/beaver.hpp"
#include "crypto/ring.hpp"

namespace pasnet::crypto {

/// Which bilinear correlation a spec describes.
enum class BilinearKind : std::uint8_t { conv2d, depthwise_conv2d };

/// Serializable description of a convolution-shaped bilinear map: enough
/// geometry to rebuild f with build_bilinear_map() and to validate that a
/// pregenerated triple has the right shape.
struct BilinearSpec {
  BilinearKind kind = BilinearKind::conv2d;
  int batch = 1;
  int in_ch = 0, in_h = 0, in_w = 0;
  int out_ch = 0;  ///< == in_ch for depthwise
  int kernel = 1, stride = 1, pad = 0;

  [[nodiscard]] int out_h() const noexcept { return (in_h + 2 * pad - kernel) / stride + 1; }
  [[nodiscard]] int out_w() const noexcept { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Elements of A (input-shaped side).
  [[nodiscard]] std::size_t na() const noexcept {
    return static_cast<std::size_t>(batch) * in_ch * in_h * in_w;
  }
  /// Elements of B (weight-shaped side).
  [[nodiscard]] std::size_t nb() const noexcept {
    const std::size_t k2 = static_cast<std::size_t>(kernel) * kernel;
    return kind == BilinearKind::depthwise_conv2d
               ? static_cast<std::size_t>(in_ch) * k2
               : static_cast<std::size_t>(out_ch) * in_ch * k2;
  }
  /// Elements of Z = f(A, B).
  [[nodiscard]] std::size_t nz() const noexcept {
    return static_cast<std::size_t>(batch) * out_ch * out_h() * out_w();
  }

  [[nodiscard]] bool operator==(const BilinearSpec& o) const noexcept {
    return kind == o.kind && batch == o.batch && in_ch == o.in_ch && in_h == o.in_h &&
           in_w == o.in_w && out_ch == o.out_ch && kernel == o.kernel && stride == o.stride &&
           pad == o.pad;
  }
  [[nodiscard]] bool operator!=(const BilinearSpec& o) const noexcept { return !(*this == o); }
};

/// A bilinear map over ring vectors: z = f(input-shaped a, weight-shaped b).
using BilinearMap = std::function<RingVec(const RingVec&, const RingVec&)>;

/// Rebuilds the bilinear map a spec describes (im2col + ring matmul for
/// conv2d, the per-channel variant for depthwise).  Identical arithmetic to
/// what secure_conv2d evaluates online.
[[nodiscard]] BilinearMap build_bilinear_map(const BilinearSpec& spec, const RingConfig& rc);

/// Where the online protocols get their correlated randomness.  Protocol
/// code draws through TwoPartyContext, which counts every draw as one
/// obs::Counter::triple_claims on its counter block.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  [[nodiscard]] virtual ElemTriple elem_triple(std::size_t n) = 0;
  [[nodiscard]] virtual SquarePair square_pair(std::size_t n) = 0;
  [[nodiscard]] virtual MatmulTriple matmul_triple(std::size_t m, std::size_t k,
                                                   std::size_t n) = 0;
  [[nodiscard]] virtual BitTriple bit_triple(std::size_t n) = 0;
  [[nodiscard]] virtual BilinearTriple bilinear_triple(const BilinearSpec& spec) = 0;
  /// n random (1,4)-OTs whose sender is party `sender`.
  [[nodiscard]] virtual RandomOt random_ot(std::size_t n, int sender) = 0;
};

/// The fused offline+online baseline: every request generated inline by the
/// trusted dealer.
class DealerTripleSource final : public TripleSource {
 public:
  DealerTripleSource(TripleDealer& dealer, const RingConfig& rc) : dealer_(dealer), rc_(rc) {}

  ElemTriple elem_triple(std::size_t n) override { return dealer_.elem_triple(n); }
  SquarePair square_pair(std::size_t n) override { return dealer_.square_pair(n); }
  MatmulTriple matmul_triple(std::size_t m, std::size_t k, std::size_t n) override {
    return dealer_.matmul_triple(m, k, n);
  }
  BitTriple bit_triple(std::size_t n) override { return dealer_.bit_triple(n); }
  BilinearTriple bilinear_triple(const BilinearSpec& spec) override {
    return dealer_.bilinear_triple(spec.na(), spec.nb(), spec.nz(),
                                   build_bilinear_map(spec, rc_));
  }
  RandomOt random_ot(std::size_t n, int sender) override {
    return dealer_.random_ot(n, sender);
  }

 private:
  TripleDealer& dealer_;
  RingConfig rc_;
};

}  // namespace pasnet::crypto
