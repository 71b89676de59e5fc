#pragma once
// Persistent store of pregenerated correlated randomness.
//
// One QueryBundle holds exactly the material one query of one model
// consumes (the TripleRequest stream of a PreprocessingPlan, generated from
// that query's canonical dealer seed).  A TripleStore is an ordered list of
// bundles plus a claim cursor: serving claims bundles atomically by index,
// so PR 1's concurrent party-pair workers can consume from one store while
// every query still gets *its* deterministic slice — the property that
// keeps store-backed logits bit-identical to the dealer path.
//
// Accounting is strict: running past the pregenerated queries raises
// TripleStoreExhausted (the serving process should have provisioned
// enough material).
//
// Binary (de)serialization lets a producer process generate material once
// (`OfflineGenerator` + save) and a serving process load it at startup.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/triple_source.hpp"

namespace pasnet::offline {

/// Raised when a query has no bundle left.
class TripleStoreExhausted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// All the correlated randomness one query consumes, in plan order per
/// pool (one pool per TripleKind).
struct QueryBundle {
  std::vector<crypto::SquarePair> square;
  std::vector<crypto::BitTriple> bit;
  std::vector<crypto::BilinearTriple> bilinear;  ///< product triples, each with its spec
  std::vector<crypto::RandomOt> rot;
};

/// Binary (de)serialization of one bundle — the unit the networked dealer
/// service ships per claim.  Same little-endian layout the whole-store
/// format uses (TripleStore::save/load are built on these).  read_bundle
/// validates every entry's internal shape — each product triple's spec
/// record and its sides against that spec, the sides of a square pair or
/// bit triple, the halves of a random OT — and throws std::runtime_error
/// on malformed input.
void write_bundle(std::ostream& os, const QueryBundle& bundle);
[[nodiscard]] QueryBundle read_bundle(std::istream& is);

/// A copy of `bundle` holding only `party`'s (0 or 1) share halves (the
/// peer's are zeroed; for a random OT the sender keeps only the pads, the
/// receiver only the choice and the chosen pad).  Online recombination
/// only ever touches a party's own halves, so a party-sliced bundle serves
/// a remote process bit-identically while the dealer never ships one
/// party's randomness to the other.
[[nodiscard]] QueryBundle slice_bundle_for_party(const QueryBundle& bundle, int party);

/// Typed pools of pregenerated material for N queries of one plan.
class TripleStore {
 public:
  TripleStore() = default;
  TripleStore(crypto::RingConfig rc, std::uint64_t plan_fingerprint, std::size_t queries)
      : rc_(rc), fingerprint_(plan_fingerprint), bundles_(queries) {}

  TripleStore(TripleStore&& other) noexcept { move_from(std::move(other)); }
  TripleStore& operator=(TripleStore&& other) noexcept {
    if (this != &other) move_from(std::move(other));
    return *this;
  }
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  [[nodiscard]] const crypto::RingConfig& ring() const noexcept { return rc_; }
  [[nodiscard]] std::uint64_t plan_fingerprint() const noexcept { return fingerprint_; }
  [[nodiscard]] std::size_t num_queries() const noexcept { return bundles_.size(); }
  [[nodiscard]] std::size_t remaining_queries() const;

  /// Generation-side access to bundle q (no locking: the generator's worker
  /// threads each own disjoint bundles, and generation happens before any
  /// claim).
  [[nodiscard]] QueryBundle& bundle(std::size_t q) { return bundles_[q]; }
  [[nodiscard]] const QueryBundle& bundle(std::size_t q) const { return bundles_[q]; }

  /// Atomically claims the next n unconsumed bundles and returns the index
  /// of the first; raises TripleStoreExhausted, having claimed none, when
  /// fewer than n are left.  Thread-safe; each bundle is handed out exactly
  /// once and is then owned by the claimant (bundle(first + j)).
  [[nodiscard]] std::size_t claim(std::size_t n);

  /// Serialized size in bytes (header + all bundles), for reporting.
  [[nodiscard]] std::uint64_t material_bytes() const noexcept;

  /// Binary serialization.  The format is little-endian and versioned;
  /// load() validates the magic, version, and structural sizes and throws
  /// std::runtime_error on malformed input.  Only the current version (6)
  /// loads: a store is single-use material, so regenerate an older one.
  /// Claim state is not persisted — a loaded store always starts fresh.
  void save(std::ostream& os) const;
  void save(const std::string& path) const;
  [[nodiscard]] static TripleStore load(std::istream& is);
  [[nodiscard]] static TripleStore load(const std::string& path);

 private:
  void move_from(TripleStore&& other) noexcept {
    std::lock_guard<std::mutex> lk(other.mu_);
    rc_ = other.rc_;
    fingerprint_ = other.fingerprint_;
    bundles_ = std::move(other.bundles_);
    next_ = other.next_;
    other.next_ = 0;
  }

  crypto::RingConfig rc_{};
  std::uint64_t fingerprint_ = 0;
  std::vector<QueryBundle> bundles_;
  std::size_t next_ = 0;
  mutable std::mutex mu_;
};

/// TripleSource serving one query from its claimed bundle.  Every pop is
/// validated against the request — a product triple's stored spec against
/// the requested one, and every side against the requested shape (a
/// mismatch means the store was generated for a different plan and is a
/// logic error); a draw from a dry pool raises TripleStoreExhausted.
class StoreTripleSource final : public crypto::TripleSource {
 public:
  explicit StoreTripleSource(QueryBundle& bundle) : bundle_(bundle) {}

  crypto::SquarePair square_pair(std::size_t n) override;
  crypto::BitTriple bit_triple(std::size_t n) override;
  crypto::BilinearTriple bilinear_triple(const crypto::BilinearSpec& spec) override;
  crypto::RandomOt random_ot(std::size_t n, int sender) override;

 private:
  [[noreturn]] void throw_exhausted(const char* pool) const;

  QueryBundle& bundle_;
  std::size_t square_next_ = 0, bit_next_ = 0, bilinear_next_ = 0, rot_next_ = 0;
};

}  // namespace pasnet::offline
