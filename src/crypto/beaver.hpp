#pragma once
// Beaver-triple machinery (paper §II-B).
//
// Multiplicative 2PC operations consume correlated randomness produced in an
// offline phase: product triples Z = f(A, B) for a bilinear map f — the
// elementwise product (paper Eq. 2), the matrix product and the
// convolutions behind COMM_conv are one correlation, told apart only by the
// BilinearSpec that names f — square pairs Z = A ⊙ A, boolean AND triples
// over Z2, and the random (1,4)-OTs the comparison leaves spend online
// (crypto/ot.hpp).  A product request may flag its B side as a random bit:
// that is the bit-injection correlation the comparison tail consumes
// (BilinearSpec::bit_injection).
//
// Canonical two-stream construction.  Every triple kind is assembled from
// two *per-party half streams*: party p draws its own mask halves
// (a_p, b_p) and its cross-term sender share x_p from
// Prng(half_stream_seed(seed, p)), and the completed shares are
//
//   z_p = f(a_p, b_p) + x_p + o_p,   o_p = f(a_peer, b_p) − x_peer,
//
// i.e. z0 = f(a0+a1, b0) + x0 − x1 and symmetrically for z1.  The point of
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
#include <functional>
#include <vector>

#include "crypto/prng.hpp"
#include "crypto/ring.hpp"
#include "crypto/secret_share.hpp"

namespace pasnet::crypto {

/// Square pair: Z = A ⊙ A.
struct SquarePair {
  Shared a, z;
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

/// Which bilinear map f a product correlation Z = f(A, B) evaluates.
enum class BilinearKind : std::uint8_t { conv2d, depthwise_conv2d, hadamard, matmul };

/// Serializable description of a bilinear map f: enough geometry to
/// rebuild f with build_bilinear_map() and to validate that a pregenerated
/// triple has the right shape.  A is f's left operand, B its right:
///  - conv2d / depthwise_conv2d: A is the [batch, in_ch, in_h, in_w]
///    input, B the [out_ch, in_ch·k²] weight ([in_ch, k²] depthwise).
///  - hadamard: A ⊙ B over in_ch elements, a depthwise 1×1 map over
///    in_ch channels of one pixel each (hadamard(n)); with batch > 1, A
///    holds `batch` such vectors and each is multiplied by the one B.
///  - matmul: A·B with A m×k and B k×n, row-major: a 1×1 convolution of
///    batch = m samples from in_ch = k to out_ch = n channels up to B's
///    layout (matmul(m, k, n)).
struct BilinearSpec {
  BilinearKind kind = BilinearKind::conv2d;
  int batch = 1;
  int in_ch = 0, in_h = 0, in_w = 0;
  int out_ch = 0;  ///< == in_ch for depthwise and hadamard
  int kernel = 1, stride = 1, pad = 0;
  /// B is a random bit r (hadamard only): the bit-injection flag.  Its
  /// additive shares are r_p minus an even cross term, so the low bits of
  /// b0 and b1 are r's XOR shares: r = (b0 & 1) ⊕ (b1 & 1).
  bool bit_b = false;

  [[nodiscard]] static BilinearSpec hadamard(std::size_t n) noexcept {
    BilinearSpec s;
    s.kind = BilinearKind::hadamard;
    s.in_ch = s.out_ch = static_cast<int>(n);
    s.in_h = s.in_w = 1;
    return s;
  }
  /// The comparison tail's correlation over n compared values and P
  /// payloads: a random bit r per value (B, n elements, shared both
  /// additively and, in the shares' low bits, by XOR), a random mask a per
  /// payload element (A, P·n, payload-major) and Z = r·a.  A daBit
  /// (Rotaru and Wood, INDOCRYPT 2019) used as ABY2.0's bit injection
  /// (Patra et al., USENIX Security 2021).
  [[nodiscard]] static BilinearSpec bit_injection(std::size_t n, std::size_t payloads) noexcept {
    BilinearSpec s = hadamard(n);
    s.batch = static_cast<int>(payloads);
    s.bit_b = true;
    return s;
  }
  [[nodiscard]] static BilinearSpec matmul(std::size_t m, std::size_t k, std::size_t n) noexcept {
    BilinearSpec s;
    s.kind = BilinearKind::matmul;
    s.batch = static_cast<int>(m);
    s.in_ch = static_cast<int>(k);
    s.out_ch = static_cast<int>(n);
    s.in_h = s.in_w = 1;
    return s;
  }

  /// Whether each output channel reads only its own input channel, so B
  /// holds one kernel per channel (depthwise and hadamard).
  [[nodiscard]] bool channelwise() const noexcept {
    return kind == BilinearKind::depthwise_conv2d || kind == BilinearKind::hadamard;
  }
  [[nodiscard]] int out_h() const noexcept { return (in_h + 2 * pad - kernel) / stride + 1; }
  [[nodiscard]] int out_w() const noexcept { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Elements of A.
  [[nodiscard]] std::size_t na() const noexcept {
    return static_cast<std::size_t>(batch) * in_ch * in_h * in_w;
  }
  /// Elements of B.
  [[nodiscard]] std::size_t nb() const noexcept {
    const std::size_t k2 = static_cast<std::size_t>(kernel) * kernel;
    return channelwise() ? static_cast<std::size_t>(in_ch) * k2
                         : static_cast<std::size_t>(out_ch) * in_ch * k2;
  }
  /// Elements of Z = f(A, B).
  [[nodiscard]] std::size_t nz() const noexcept {
    return static_cast<std::size_t>(batch) * out_ch * out_h() * out_w();
  }

  [[nodiscard]] bool operator==(const BilinearSpec& o) const noexcept {
    return kind == o.kind && batch == o.batch && in_ch == o.in_ch && in_h == o.in_h &&
           in_w == o.in_w && out_ch == o.out_ch && kernel == o.kernel && stride == o.stride &&
           pad == o.pad && bit_b == o.bit_b;
  }
  [[nodiscard]] bool operator!=(const BilinearSpec& o) const noexcept { return !(*this == o); }
};

/// A bilinear map over ring vectors: z = f(a, b).
using BilinearMap = std::function<RingVec(const RingVec&, const RingVec&)>;

/// Rebuilds the bilinear map a spec describes: an elementwise product per
/// A vector for hadamard, ring_matmul for matmul, im2col + ring matmul for
/// conv2d and the per-channel variant for depthwise.  Identical arithmetic
/// to what the online rounds evaluate.
[[nodiscard]] BilinearMap build_bilinear_map(const BilinearSpec& spec, const RingConfig& rc);

/// The one product correlation Z = f(A, B), all secret-shared, for the map
/// its spec describes.  A convolution opens X − A in *input* space, which
/// is what the paper's COMM_conv = 32·FI²·IC models; the opening of the
/// weight-shaped operand (B for a convolution, A for the linear layer's
/// W·x) is precomputable offline for a static model.
struct BilinearTriple {
  BilinearSpec spec;
  Shared a, b, z;
};

// --- Role-private half streams -------------------------------------------
//
// The draw helpers below define the *canonical draw order* of each party's
// half of every triple kind.  Both the dealer simulation and the 2PC
// OT-extension generator go through these exact functions, which is the
// bit-identity contract between the two backends: party p's (a_p, b_p, x_p)
// depend only on Prng(half_stream_seed(seed, p)) and the request sequence.

/// n random values of `width` bits each (width 1, 2 or 8), one byte per
/// value, drawn 64 / width to a PRNG word, least significant bits first:
/// the one way the half streams and the comparison leaf masks draw bits.
[[nodiscard]] std::vector<std::uint8_t> random_bits(Prng& prng, std::size_t n, int width = 1);

/// Seed of party p's half stream for a dealer stream seeded with `seed`.
[[nodiscard]] inline std::uint64_t half_stream_seed(std::uint64_t seed, int party) noexcept {
  return splitmix64(seed ^ (party == 0 ? 0x9E3779B97F4A7C15ULL : 0xC2B2AE3D27D4EB4FULL));
}

/// Party p's half of a square pair.  Only party 0 holds a cross-term share
/// (one OT direction suffices for z = a² cross terms): x is empty for
/// party 1.
struct SquareHalf {
  RingVec a, x;
};
[[nodiscard]] SquareHalf draw_square_half(Prng& prng, int party, std::size_t n,
                                          const RingConfig& rc);

/// Party p's half of a product triple: masks a_p, b_p and cross-term
/// sender share x_p (draw order a (na), b (nb), x (nz)).  A bit-injection
/// spec draws B's XOR half r_p first instead (nb random_bits, b as 0/1),
/// then a and x; party 0 also draws xr (nb), its share of the one cross
/// term r0·r1 of B's additive sharing r = r0 + r1 − 2·r0·r1 (party 1's xr
/// stays empty).
struct BilinearHalf {
  RingVec a, b, x;
  RingVec xr;
};
[[nodiscard]] BilinearHalf draw_bilinear_half(Prng& prng, int party, const BilinearSpec& spec,
                                              const RingConfig& rc);

/// Party p's half of n AND triples: a_p, b_p and x_p, each n random_bits
/// in that order.
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

/// Party p's half of n random OTs: the sender's four one-byte pads per
/// instance (4n random_bits of width 8), or the receiver's choice (n of
/// width 2).  The other vector stays empty.
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

  [[nodiscard]] SquarePair square_pair(std::size_t n);
  [[nodiscard]] BitTriple bit_triple(std::size_t n);
  /// n random (1,4)-OTs with party `sender` as the sender.
  [[nodiscard]] RandomOt random_ot(std::size_t n, int sender);
  /// Shares Z = f(A, B) for the bilinear map `spec` describes.
  [[nodiscard]] BilinearTriple bilinear_triple(const BilinearSpec& spec);

  [[nodiscard]] const RingConfig& ring() const noexcept { return rc_; }

 private:
  /// Whether this dealer completes party p's shares.
  [[nodiscard]] bool serves(int p) const noexcept { return party_ < 0 || party_ == p; }
  /// Completes a bit-injection triple from both parties' halves.
  [[nodiscard]] BilinearTriple bit_injection(const BilinearSpec& spec, BilinearHalf (&h)[2]);

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
