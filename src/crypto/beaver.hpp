#pragma once
// Beaver-triple machinery (paper §II-B).
//
// Multiplicative 2PC operations consume correlated randomness produced in an
// offline phase: elementwise triples Z = A ⊙ B, square pairs Z = A ⊙ A,
// matrix triples Z = A · B, boolean AND triples over Z2, and the random
// (1,4)-OTs the comparison leaves spend online (crypto/ot.hpp).
//
// Canonical two-stream construction.  Every triple kind is assembled from
// two *per-party half streams*: party p draws its own mask halves
// (a_p, b_p) and its cross-term sender share x_p from
// Prng(half_stream_seed(seed, p)), and the completed shares are
//
//   z_p = a_p ⊙ b_p + x_p + o_p,   o_p = a_peer ⊙ b_p − x_peer,
//
// i.e. z0 = (a0+a1) ⊙ b0 + x0 − x1 and symmetrically for z1 (matrix /
// bilinear kinds substitute the appropriate product for ⊙).  The point of
// this factoring is that o_p is exactly what a correlated-OT cross-term
// protocol hands the receiver, so the 2PC OT-extension generator
// (src/crypto/ot_ext, src/offline/ot_triple_source) reproduces *identical*
// triple values with no third party whenever both sides draw from the
// canonical half seeds — which in-process simulation contexts do, keeping
// dealer-served and OT-ext-served runs bit-identical there.  Remote
// contexts seed their halves from role-private entropy instead (the
// canonical seeds are public between the endpoints), trading that
// bit-identity for genuine secrecy.  TripleDealer is the trusted-dealer
// *simulation* of the functionality: it holds both half streams and
// evaluates the cross terms directly.

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/prng.hpp"
#include "crypto/ring.hpp"
#include "crypto/secret_share.hpp"

namespace pasnet::crypto {

/// Elementwise triple: Z = A ⊙ B, all secret-shared.
struct ElemTriple {
  Shared a, b, z;
};

/// Square pair: Z = A ⊙ A.
struct SquarePair {
  Shared a, z;
};

/// Matrix triple for an (m×k)·(k×n) product: Z = A·B.
struct MatmulTriple {
  Shared a, b, z;  // row-major m×k, k×n, m×n
  std::size_t m = 0, k = 0, n = 0;
};

/// Boolean triple over Z2: c = a AND b, XOR-shared bits (one byte per bit).
struct BitTriple {
  std::vector<std::uint8_t> a0, a1, b0, b1, c0, c1;

  /// Party p's halves.
  [[nodiscard]] std::vector<std::uint8_t>& a(int p) { return p == 0 ? a0 : a1; }
  [[nodiscard]] std::vector<std::uint8_t>& b(int p) { return p == 0 ? b0 : b1; }
  [[nodiscard]] std::vector<std::uint8_t>& c(int p) { return p == 0 ? c0 : c1; }
  [[nodiscard]] const std::vector<std::uint8_t>& a(int p) const { return p == 0 ? a0 : a1; }
  [[nodiscard]] const std::vector<std::uint8_t>& b(int p) const { return p == 0 ? b0 : b1; }
  [[nodiscard]] const std::vector<std::uint8_t>& c(int p) const { return p == 0 ? c0 : c1; }
};

/// n precomputed random (1,4)-OTs (Beaver, "Precomputing Oblivious
/// Transfer", CRYPTO 1995): per instance the sender holds four random
/// one-byte pads P_0..P_3, the receiver a random choice r in [0,4) and the
/// pad P_r.  Unlike the triples these are not additive shares: the sender's
/// half is `pads`, the receiver's half is `choice` and `chosen`.
struct RandomOt {
  int sender = 1;
  std::vector<std::uint8_t> pads;    ///< 4 per instance, P_0..P_3 (sender)
  std::vector<std::uint8_t> choice;  ///< r per instance (receiver)
  std::vector<std::uint8_t> chosen;  ///< P_r per instance (receiver)

  [[nodiscard]] std::size_t size() const noexcept { return choice.size(); }
};

/// Generic bilinear triple Z = f(A, B): used for convolution-shaped
/// correlations where the online phase opens X - A in *input* space, which
/// is what the paper's COMM_conv = 32·FI²·IC models (the weight-side
/// opening E = W - B is weight-shaped and precomputable offline for a
/// static model).
struct BilinearTriple {
  Shared a, b, z;
};

// --- Role-private half streams -------------------------------------------
//
// The draw helpers below define the *canonical draw order* of each party's
// half of every triple kind.  Both the dealer simulation and the 2PC
// OT-extension generator go through these exact functions, which is the
// bit-identity contract between the two backends: party p's (a_p, b_p, x_p)
// depend only on Prng(half_stream_seed(seed, p)) and the request sequence.

/// Seed of party p's half stream for a dealer stream seeded with `seed`.
[[nodiscard]] inline std::uint64_t half_stream_seed(std::uint64_t seed, int party) noexcept {
  return splitmix64(seed ^ (party == 0 ? 0x9E3779B97F4A7C15ULL : 0xC2B2AE3D27D4EB4FULL));
}

/// Party p's half of an elementwise triple: masks a_p, b_p and cross-term
/// sender share x_p (draw order a, b, x).
struct ElemHalf {
  RingVec a, b, x;
};
[[nodiscard]] ElemHalf draw_elem_half(Prng& prng, std::size_t n, const RingConfig& rc);

/// Party p's half of a square pair.  Only party 0 holds a cross-term share
/// (one OT direction suffices for z = a² cross terms): x is empty for
/// party 1.
struct SquareHalf {
  RingVec a, x;
};
[[nodiscard]] SquareHalf draw_square_half(Prng& prng, int party, std::size_t n,
                                          const RingConfig& rc);

/// Party p's half of a matmul triple (draw order a (m·k), b (k·n), x (m·n)).
struct MatmulHalf {
  RingVec a, b, x;
};
[[nodiscard]] MatmulHalf draw_matmul_half(Prng& prng, std::size_t m, std::size_t k,
                                          std::size_t n, const RingConfig& rc);

/// Party p's half of a bilinear triple (draw order a (na), b (nb), x (nz)).
struct BilinearHalf {
  RingVec a, b, x;
};
[[nodiscard]] BilinearHalf draw_bilinear_half(Prng& prng, std::size_t na, std::size_t nb,
                                              std::size_t nz, const RingConfig& rc);

/// Party p's half of n AND triples: per instance one u64 draw whose bits
/// 0/1/2 are a_p / b_p / x_p.
struct BitHalf {
  std::vector<std::uint8_t> a, b, x;
};
[[nodiscard]] BitHalf draw_bit_half(Prng& prng, std::size_t n);

/// Seed of party p's random-OT half stream.  Random OTs draw from streams
/// of their own, so adding them to a request sequence never moves a triple
/// value.
[[nodiscard]] inline std::uint64_t rot_half_stream_seed(std::uint64_t seed, int party) noexcept {
  return splitmix64(half_stream_seed(seed, party) ^ 0x524F5448414C46ULL);
}

/// Party p's half of n random OTs: the sender's four pads per instance
/// (the low four bytes of one u64 draw), or the receiver's choice (the low
/// two bits of one u64 draw).  The other vector stays empty.
struct RotHalf {
  std::vector<std::uint8_t> pads, choice;
};
[[nodiscard]] RotHalf draw_rot_half(Prng& prng, bool sender, std::size_t n);

/// Trusted dealer: simulates the two-party triple functionality by holding
/// both half streams and evaluating the cross terms directly.  A dealer
/// serving one party of a remote pair (`party` 0 or 1) still draws both
/// half streams, so the two processes' dealers stay aligned, but completes
/// only that party's shares and leaves the peer's halves empty; `party` -1
/// (in process, the default) serves both.
class TripleDealer {
 public:
  explicit TripleDealer(RingConfig rc, std::uint64_t seed = 0xDEA1E5ULL, int party = -1)
      : rc_(rc), party_(party), prng0_(half_stream_seed(seed, 0)),
        prng1_(half_stream_seed(seed, 1)), rot_prng0_(rot_half_stream_seed(seed, 0)),
        rot_prng1_(rot_half_stream_seed(seed, 1)) {}

  [[nodiscard]] ElemTriple elem_triple(std::size_t n);
  [[nodiscard]] SquarePair square_pair(std::size_t n);
  [[nodiscard]] MatmulTriple matmul_triple(std::size_t m, std::size_t k, std::size_t n);
  [[nodiscard]] BitTriple bit_triple(std::size_t n);
  /// n random (1,4)-OTs with party `sender` as the sender.
  [[nodiscard]] RandomOt random_ot(std::size_t n, int sender);

  /// Shares Z = f(A, B) for any bilinear map `f` (e.g. B convolved over A),
  /// where A has na elems ("input"-shaped), B has nb ("weight"-shaped) and
  /// the result has nz.  `nz` must match f's output size; it is explicit so
  /// each party can draw its x_p half without evaluating f.
  template <typename F>
  [[nodiscard]] BilinearTriple bilinear_triple(std::size_t na, std::size_t nb,
                                               std::size_t nz, F&& f) {
    BilinearHalf h[2] = {draw_bilinear_half(prng0_, na, nb, nz, rc_),
                         draw_bilinear_half(prng1_, na, nb, nz, rc_)};
    RingVec a(na);
    for (std::size_t i = 0; i < na; ++i) a[i] = (h[0].a[i] + h[1].a[i]) & rc_.mask();
    BilinearTriple t;
    for (int p = 0; p < 2; ++p) {
      if (serves(p)) t.z.share(p) = complete_half(f(a, h[p].b), h[p].x, h[1 - p].x);
    }
    take_masks(h, t.a, t.b);
    return t;
  }

  [[nodiscard]] const RingConfig& ring() const noexcept { return rc_; }

 private:
  /// Whether this dealer completes party p's shares.
  [[nodiscard]] bool serves(int p) const noexcept { return party_ < 0 || party_ == p; }
  /// z_p = base_p + x_p − x_peer (the cross-term completion shared by every
  /// arithmetic triple kind); throws when base_p is not x_p's size.
  [[nodiscard]] RingVec complete_half(const RingVec& base, const RingVec& x_own,
                                      const RingVec& x_peer) const;
  /// Moves the served parties' mask halves a_p, b_p into the triple.
  template <typename Half>
  void take_masks(Half (&h)[2], Shared& a, Shared& b) const {
    for (int p = 0; p < 2; ++p) {
      if (!serves(p)) continue;
      a.share(p) = std::move(h[p].a);
      b.share(p) = std::move(h[p].b);
    }
  }

  RingConfig rc_;
  int party_;
  Prng prng0_;
  Prng prng1_;
  Prng rot_prng0_;
  Prng rot_prng1_;
};

/// Plain row-major ring matrix product (local helper, no protocol).
[[nodiscard]] RingVec ring_matmul(const RingVec& a, const RingVec& b, std::size_t m,
                                  std::size_t k, std::size_t n, const RingConfig& rc);

}  // namespace pasnet::crypto
