#pragma once
// The 2PC operator library (paper §III-C): secure convolution, linear,
// polynomial activation, ReLU, max/avg pooling, residual add.
//
// Linear/convolution layers run Beaver matrix multiplications on im2col'd
// shares; X2act uses the square protocol (Eq. 3) plus public-coefficient
// scaling; ReLU and MaxPool go through the OT-based comparison stack of
// src/crypto/compare.  Every operator exchanges real messages over the
// simulated channel, so byte/round statistics are faithful.
//
// The single-round multiplicative operators (conv, depthwise conv, linear,
// x2act) exist in two forms: the one-shot secure_* functions, and staged
// Staged* classes that split the op into stage() — draw triples and stage
// the masked openings on the context's OpenBuffer — and finish() — local
// recombination once the openings are public.  The IR round scheduler
// stages several independent ops and flushes their openings in one
// exchange; the one-shot functions are stage + flush + finish, so both
// forms share one implementation and one draw order (bit-identical
// results).

#include <memory>

#include "crypto/compare.hpp"
#include "proto/secure_tensor.hpp"

namespace pasnet::proto {

/// Ignored: nothing reads it.  Kept only so existing configurations that
/// set ot_mode still compile; every comparison runs the precomputed
/// (1,4)-OT (crypto/ot.hpp) and the executor flushes whatever round groups
/// the program carries.
struct SecureConfig {
  crypto::OtMode ot_mode = crypto::OtMode::dh_masked;
};

// --- Staged (two-phase) operator forms -------------------------------------

/// Interface the IR executor drives: stage() draws the op's correlated
/// randomness and stages its openings (no communication of its own),
/// finish() computes the result locally once they are flushed.
/// Referenced inputs (activation tensors, weights) must outlive the op.
class StagedSecureOp {
 public:
  virtual ~StagedSecureOp() = default;
  virtual void stage(crypto::TwoPartyContext& ctx) = 0;
  [[nodiscard]] virtual SecureTensor finish(crypto::TwoPartyContext& ctx) = 0;
};

/// Staged 2PC convolution (normal or depthwise).  Weight is a shared
/// [OC, IC·K·K] matrix ([C, K·K] depthwise); optional shared bias [OC]
/// broadcast over the spatial output (depthwise bias comes from BN folds).
class StagedConv2d final : public StagedSecureOp {
 public:
  StagedConv2d(const SecureTensor& x, const crypto::Shared& weight,
               const crypto::Shared* bias, int out_ch, int kernel, int stride, int pad,
               bool depthwise);
  void stage(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor finish(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  const crypto::Shared& weight_;
  const crypto::Shared* bias_;
  int out_ch_, kernel_, stride_, pad_;
  bool depthwise_;
  crypto::BilinearRound round_;
};

/// Staged 2PC fully connected layer: weight [out, in], bias [out].
class StagedLinear final : public StagedSecureOp {
 public:
  StagedLinear(const SecureTensor& x, const crypto::Shared& weight,
               const crypto::Shared* bias, int out_features);
  void stage(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor finish(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  const crypto::Shared& weight_;
  const crypto::Shared* bias_;
  int out_features_;
  std::vector<crypto::MatmulRound> rounds_;  // one per sample
};

/// Staged 2PC X2act (paper Eq. 4/14): a·x² + w2·x + b, public coefficients.
class StagedX2act final : public StagedSecureOp {
 public:
  StagedX2act(const SecureTensor& x, double a_coeff, double w2, double b);
  void stage(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor finish(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  double a_, w2_, b_;
  crypto::SquareRound round_;
};

// --- Staged (resumable) comparison operators -------------------------------

/// Interface for multi-round comparison ops the IR executor advances in
/// lockstep: begin() draws ALL of the op's correlated randomness (keeping
/// the dealer request stream program-ordered) and stages its first
/// communication phase on the context buffers; waiting() names the buffer
/// the op needs flushed; step() consumes the flushed round and stages the
/// next phase.  All instances of one round group share each flush — one
/// (1,4)-OT round per digit batch, one exchange per AND-tree level, one
/// opening for the mux tail — however many instances the group holds.
class StagedCompareOp {
 public:
  virtual ~StagedCompareOp() = default;
  virtual void begin(crypto::TwoPartyContext& ctx) = 0;
  [[nodiscard]] virtual crypto::CompareWait waiting() const = 0;
  virtual void step(crypto::TwoPartyContext& ctx) = 0;
  /// The op's output; valid once waiting() == done.
  [[nodiscard]] virtual SecureTensor take(crypto::TwoPartyContext& ctx) = 0;
};

/// Staged 2PC ReLU: one resumable v·DReLU(v) over the whole tensor.
class StagedRelu final : public StagedCompareOp {
 public:
  explicit StagedRelu(const SecureTensor& x) : x_(x) {}
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] crypto::CompareWait waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  crypto::StagedDreluMux core_;
};

/// The pairwise tournament max-pool and argmax share (paper Eq. 13).  Each
/// entry holds P equal-length payload vectors, payload 0 the compared
/// value.  Every level pairs adjacent entries (an odd one carries up) and
/// keeps b + (a - b)·[a_0 >= b_0] of every payload — ties go to the earlier
/// entry — through one batched StagedDreluMux.  All levels' material is
/// drawn at begin, in level order, so a singleton level — one comparison
/// left — rides the shared group flushes instead of paying private ones.
class StagedTournament : public StagedCompareOp {
 public:
  [[nodiscard]] crypto::CompareWait waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;

 protected:
  /// Draws every level's material and stages the first level.
  void begin_tournament(crypto::TwoPartyContext& ctx,
                        std::vector<std::vector<crypto::Shared>> entries);
  /// The winning entry's payloads; valid once waiting() == done.
  [[nodiscard]] std::vector<crypto::Shared>& winner() noexcept { return entries_.front(); }

 private:
  void begin_level(crypto::TwoPartyContext& ctx);
  std::vector<std::vector<crypto::Shared>> entries_;
  std::vector<crypto::DreluMuxMaterial> mats_;
  std::size_t level_ = 0;
  std::vector<crypto::Shared> level_b_;  // per payload: the level's b sides
  crypto::StagedDreluMux mux_;
  bool done_ = false;
};

/// Staged 2PC MaxPool: the tournament over the k² window taps (P = 1).
class StagedMaxPool final : public StagedTournament {
 public:
  StagedMaxPool(const SecureTensor& x, int kernel, int stride, int pad)
      : x_(x), kernel_(kernel), stride_(stride), pad_(pad) {}
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  int kernel_, stride_, pad_;
};

/// Staged secure argmax over the class dimension of [N, classes] logits:
/// the tournament over (value, index) entries (P = 2), so the index follows
/// the value comparison and stays secret-shared.  take() yields the
/// winning indices' shares, shape [N, 1]; ties break toward the lowest
/// class index.
class StagedArgmax final : public StagedTournament {
 public:
  explicit StagedArgmax(const SecureTensor& logits) : logits_(logits) {}
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& logits_;
};

// --- One-shot operators ----------------------------------------------------

/// 2PC convolution on shares: weight is a shared [OC, IC·K·K] matrix,
/// optional shared bias [OC] (already fixed-point encoded at scale f).
[[nodiscard]] SecureTensor secure_conv2d(crypto::TwoPartyContext& ctx, const SecureTensor& x,
                                         const crypto::Shared& weight,
                                         const crypto::Shared* bias, int out_ch, int kernel,
                                         int stride, int pad);

/// Depthwise 2PC convolution: weight is a shared [C, K·K] matrix.
[[nodiscard]] SecureTensor secure_depthwise_conv2d(crypto::TwoPartyContext& ctx,
                                                   const SecureTensor& x,
                                                   const crypto::Shared& weight, int kernel,
                                                   int stride, int pad);

/// 2PC fully connected layer: weight [out, in] shared, bias [out] shared.
[[nodiscard]] SecureTensor secure_linear(crypto::TwoPartyContext& ctx, const SecureTensor& x,
                                         const crypto::Shared& weight,
                                         const crypto::Shared* bias, int out_features);

/// 2PC X2act (paper Eq. 4/14): a·x² + w2·x + b with public coefficients
/// (a already includes the c/√Nx factor).
[[nodiscard]] SecureTensor secure_x2act(crypto::TwoPartyContext& ctx, const SecureTensor& x,
                                        double a_coeff, double w2, double b);

/// 2PC ReLU via the OT comparison flow (paper Eq. 11).
[[nodiscard]] SecureTensor secure_relu(crypto::TwoPartyContext& ctx, const SecureTensor& x);

/// 2PC MaxPool: log-depth tree of secure max over each window (Eq. 13).
/// All window pairs of one tournament level are batched into a single
/// secure-max call, so a level costs one pass through the comparison stack
/// regardless of how many independent pairs it contains.
[[nodiscard]] SecureTensor secure_maxpool(crypto::TwoPartyContext& ctx, const SecureTensor& x,
                                          int kernel, int stride, int pad = 0);

/// 2PC AvgPool: local additions and public scaling (Eq. 15).
[[nodiscard]] SecureTensor secure_avgpool(crypto::TwoPartyContext& ctx, const SecureTensor& x,
                                          int kernel, int stride, int pad = 0);

/// 2PC global average pooling: [N,C,H,W] -> [N,C,1,1].
[[nodiscard]] SecureTensor secure_global_avgpool(crypto::TwoPartyContext& ctx,
                                                 const SecureTensor& x);

/// Residual addition (local, paper Eq. 1).
[[nodiscard]] SecureTensor secure_add(crypto::TwoPartyContext& ctx, const SecureTensor& a,
                                      const SecureTensor& b);

/// Flatten (local reshape).
[[nodiscard]] SecureTensor secure_flatten(const SecureTensor& x);

/// Secure argmax over the class dimension of [N, classes] logits: the
/// StagedArgmax tournament, then one opening of the winning indices.
/// Stronger output privacy than revealing logits (the client learns the
/// label, nothing else).  Ties break toward the lowest class index.
[[nodiscard]] std::vector<int> secure_argmax(crypto::TwoPartyContext& ctx,
                                             const SecureTensor& logits);

}  // namespace pasnet::proto
