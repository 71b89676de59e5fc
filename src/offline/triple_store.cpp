#include "offline/triple_store.hpp"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <ostream>

namespace pasnet::offline {

namespace {

constexpr std::uint64_t kMagic = 0x5041534E54525031ULL;  // "PASNTRP1"
// Version 2 added a provenance word after the version, version 3 the
// random-OT pool, version 4 dropped the provenance word again, version 5
// folded the elem and matmul pools into the product pool, every product
// triple led by its spec record, version 6 added the bit-injection flag
// (bit 8 of the spec record's kind word).  Only the current version loads.
constexpr std::uint32_t kVersion = 6;

// --- little-endian primitives ---------------------------------------------

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  os.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char buf[8];
  is.read(reinterpret_cast<char*>(buf), 8);
  if (!is) throw std::runtime_error("TripleStore: truncated input");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

// Chunked, contiguous-buffer transfers: one stream call per ~1 MB instead
// of one per 8-byte element (a serving process loads multi-MB stores at
// startup), and grow-while-reading so a corrupt length field fails on the
// truncated stream after at most one modest allocation — never as a giant
// up-front reserve (bad_alloc/OOM would escape the runtime_error contract).
constexpr std::size_t kChunkElems = 1 << 17;  // 1 MiB of u64s

void write_ring_vec(std::ostream& os, const crypto::RingVec& v) {
  write_u64(os, v.size());
  unsigned char buf[8 * 1024];
  std::size_t pos = 0;
  for (const std::uint64_t e : v) {
    for (int i = 0; i < 8; ++i) buf[pos + i] = static_cast<unsigned char>((e >> (8 * i)) & 0xFF);
    pos += 8;
    if (pos == sizeof(buf)) {
      os.write(reinterpret_cast<const char*>(buf), static_cast<long>(pos));
      pos = 0;
    }
  }
  if (pos > 0) os.write(reinterpret_cast<const char*>(buf), static_cast<long>(pos));
}

crypto::RingVec read_ring_vec(std::istream& is, std::uint64_t max_elems) {
  const std::uint64_t n = read_u64(is);
  if (n > max_elems) throw std::runtime_error("TripleStore: implausible vector length");
  crypto::RingVec v;
  v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, kChunkElems)));
  std::vector<unsigned char> buf;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kChunkElems));
    buf.resize(chunk * 8);
    is.read(reinterpret_cast<char*>(buf.data()), static_cast<long>(chunk * 8));
    if (!is) throw std::runtime_error("TripleStore: truncated input");
    for (std::size_t e = 0; e < chunk; ++e) {
      std::uint64_t val = 0;
      for (int i = 0; i < 8; ++i) val |= static_cast<std::uint64_t>(buf[e * 8 + i]) << (8 * i);
      v.push_back(val);
    }
    remaining -= chunk;
  }
  return v;
}

void write_shared(std::ostream& os, const crypto::Shared& s) {
  write_ring_vec(os, s.s0);
  write_ring_vec(os, s.s1);
}

crypto::Shared read_shared(std::istream& is, std::uint64_t max_elems) {
  crypto::Shared s;
  s.s0 = read_ring_vec(is, max_elems);
  s.s1 = read_ring_vec(is, max_elems);
  if (s.s0.size() != s.s1.size()) {
    throw std::runtime_error("TripleStore: share halves disagree in length");
  }
  return s;
}

void write_bytes(std::ostream& os, const std::vector<std::uint8_t>& v) {
  write_u64(os, v.size());
  if (!v.empty()) os.write(reinterpret_cast<const char*>(v.data()), static_cast<long>(v.size()));
}

std::vector<std::uint8_t> read_bytes(std::istream& is, std::uint64_t max_len) {
  const std::uint64_t n = read_u64(is);
  if (n > max_len) throw std::runtime_error("TripleStore: implausible byte-vector length");
  std::vector<std::uint8_t> v;
  v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, kChunkElems)));
  std::uint64_t remaining = n;
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kChunkElems));
    const std::size_t old = v.size();
    v.resize(old + chunk);
    is.read(reinterpret_cast<char*>(v.data() + old), static_cast<long>(chunk));
    if (!is) throw std::runtime_error("TripleStore: truncated input");
    remaining -= chunk;
  }
  return v;
}

// Cap on any single vector length accepted at load time: a corrupted length
// field must not turn into a multi-terabyte allocation.
constexpr std::uint64_t kMaxVecElems = 1ULL << 32;

// A product triple's spec record: its kind word and eight geometry fields.
constexpr std::uint64_t kSpecBytes = 9 * 8;
// The kind word's bit-injection flag (BilinearSpec::bit_b).
constexpr std::uint64_t kBitBFlag = 1ULL << 8;
// Cap on one geometry field: no sum of them overflows an int, and no
// product of four (capped_product) overflows 64 bits.
constexpr std::uint64_t kMaxSpecField = 1ULL << 28;

void write_spec(std::ostream& os, const crypto::BilinearSpec& s) {
  write_u64(os, static_cast<std::uint64_t>(s.kind) | (s.bit_b ? kBitBFlag : 0));
  for (const int v : {s.batch, s.in_ch, s.in_h, s.in_w, s.out_ch, s.kernel, s.stride, s.pad}) {
    write_u64(os, static_cast<std::uint64_t>(v));
  }
}

/// The product of `factors`, saturated just past kMaxVecElems.
std::uint64_t capped_product(std::initializer_list<int> factors) {
  std::uint64_t p = 1;
  for (const int f : factors) p = std::min(p * static_cast<std::uint64_t>(f), kMaxVecElems + 1);
  return p;
}

/// Reads a spec record, refusing an unknown kind or an out-of-range field —
/// a stride or kernel below 1, an empty output, a side over kMaxVecElems,
/// a bit-injection flag off a hadamard spec — before out_h() divides by
/// the stride or na()/nb()/nz() can overflow.
crypto::BilinearSpec read_spec(std::istream& is) {
  const std::uint64_t word = read_u64(is);
  const std::uint64_t kind = word & ~kBitBFlag;
  if (kind > static_cast<std::uint64_t>(crypto::BilinearKind::matmul)) {
    throw std::runtime_error("TripleStore: unknown product kind");
  }
  crypto::BilinearSpec s;
  s.kind = static_cast<crypto::BilinearKind>(kind);
  s.bit_b = (word & kBitBFlag) != 0;
  if (s.bit_b && s.kind != crypto::BilinearKind::hadamard) {
    throw std::runtime_error("TripleStore: bit-injection flag off a hadamard spec");
  }
  for (int* v : {&s.batch, &s.in_ch, &s.in_h, &s.in_w, &s.out_ch, &s.kernel, &s.stride, &s.pad}) {
    const std::uint64_t field = read_u64(is);
    if (field > kMaxSpecField) throw std::runtime_error("TripleStore: product spec out of range");
    *v = static_cast<int>(field);
  }
  if (s.kernel < 1 || s.stride < 1 || s.in_h + 2 * s.pad < s.kernel ||
      s.in_w + 2 * s.pad < s.kernel) {
    throw std::runtime_error("TripleStore: product spec out of range");
  }
  // na(), nb() and nz(), each bounded without overflow.
  if (capped_product({s.batch, s.in_ch, s.in_h, s.in_w}) > kMaxVecElems ||
      capped_product({s.channelwise() ? 1 : s.out_ch, s.in_ch, s.kernel, s.kernel}) >
          kMaxVecElems ||
      capped_product({s.batch, s.out_ch, s.out_h(), s.out_w()}) > kMaxVecElems) {
    throw std::runtime_error("TripleStore: implausible product spec size");
  }
  return s;
}

/// Reads one side of a product triple, which must hold exactly n elements
/// per share half.
crypto::Shared read_side(std::istream& is, std::size_t n) {
  crypto::Shared s = read_shared(is, n);
  if (s.size() != n) throw std::runtime_error("TripleStore: product triple shape mismatch");
  return s;
}

std::uint64_t shared_bytes(const crypto::Shared& s) noexcept {
  return 16 + 16 * static_cast<std::uint64_t>(s.size());
}

std::uint64_t bytes_bytes(const std::vector<std::uint8_t>& v) noexcept {
  return 8 + static_cast<std::uint64_t>(v.size());
}

}  // namespace

std::size_t TripleStore::remaining_queries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bundles_.size() - next_;
}

std::size_t TripleStore::claim(std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  if (n > bundles_.size() - next_) {
    throw TripleStoreExhausted("TripleStore exhausted: " + std::to_string(n) +
                               " queries asked for, " + std::to_string(bundles_.size() - next_) +
                               " of " + std::to_string(bundles_.size()) + " left");
  }
  const std::size_t first = next_;
  next_ += n;
  return first;
}

std::uint64_t TripleStore::material_bytes() const noexcept {
  // Header: magic, version, ring (3), fingerprint, count.
  std::uint64_t total = 7 * 8;
  for (const QueryBundle& b : bundles_) {
    total += 4 * 8;
    for (const auto& p : b.square) total += shared_bytes(p.a) + shared_bytes(p.z);
    for (const auto& t : b.bit) total += 6 * (8 + static_cast<std::uint64_t>(t.a0.size()));
    for (const auto& t : b.bilinear) {
      total += kSpecBytes + shared_bytes(t.a) + shared_bytes(t.b) + shared_bytes(t.z);
    }
    for (const auto& t : b.rot) {
      total += 8 + bytes_bytes(t.pads) + bytes_bytes(t.choice) + bytes_bytes(t.chosen);
    }
  }
  return total;
}

void write_bundle(std::ostream& os, const QueryBundle& b) {
  write_u64(os, b.square.size());
  write_u64(os, b.bit.size());
  write_u64(os, b.bilinear.size());
  write_u64(os, b.rot.size());
  for (const auto& p : b.square) {
    write_shared(os, p.a);
    write_shared(os, p.z);
  }
  for (const auto& t : b.bit) {
    write_bytes(os, t.a0);
    write_bytes(os, t.a1);
    write_bytes(os, t.b0);
    write_bytes(os, t.b1);
    write_bytes(os, t.c0);
    write_bytes(os, t.c1);
  }
  for (const auto& t : b.bilinear) {
    write_spec(os, t.spec);
    write_shared(os, t.a);
    write_shared(os, t.b);
    write_shared(os, t.z);
  }
  for (const auto& t : b.rot) {
    write_u64(os, static_cast<std::uint64_t>(t.sender));
    write_bytes(os, t.pads);
    write_bytes(os, t.choice);
    write_bytes(os, t.chosen);
  }
}

QueryBundle read_bundle(std::istream& is) {
  QueryBundle b;
  const std::uint64_t n_square = read_u64(is);
  const std::uint64_t n_bit = read_u64(is);
  const std::uint64_t n_bilinear = read_u64(is);
  const std::uint64_t n_rot = read_u64(is);
  if (n_square > kMaxVecElems || n_bit > kMaxVecElems || n_bilinear > kMaxVecElems ||
      n_rot > kMaxVecElems) {
    throw std::runtime_error("TripleStore: implausible pool size");
  }
  b.square.resize(static_cast<std::size_t>(n_square));
  for (auto& p : b.square) {
    p.a = read_shared(is, kMaxVecElems);
    p.z = read_shared(is, kMaxVecElems);
    if (p.z.size() != p.a.size()) {
      throw std::runtime_error("TripleStore: square pair shape mismatch");
    }
  }
  b.bit.resize(static_cast<std::size_t>(n_bit));
  for (auto& t : b.bit) {
    t.a0 = read_bytes(is, kMaxVecElems);
    t.a1 = read_bytes(is, kMaxVecElems);
    t.b0 = read_bytes(is, kMaxVecElems);
    t.b1 = read_bytes(is, kMaxVecElems);
    t.c0 = read_bytes(is, kMaxVecElems);
    t.c1 = read_bytes(is, kMaxVecElems);
    const std::size_t n = t.a0.size();
    if (t.a1.size() != n || t.b0.size() != n || t.b1.size() != n || t.c0.size() != n ||
        t.c1.size() != n) {
      throw std::runtime_error("TripleStore: bit triple shape mismatch");
    }
  }
  b.bilinear.resize(static_cast<std::size_t>(n_bilinear));
  for (auto& t : b.bilinear) {
    t.spec = read_spec(is);
    t.a = read_side(is, t.spec.na());
    t.b = read_side(is, t.spec.nb());
    t.z = read_side(is, t.spec.nz());
  }
  b.rot.resize(static_cast<std::size_t>(n_rot));
  for (auto& t : b.rot) {
    const std::uint64_t sender = read_u64(is);
    if (sender > 1) throw std::runtime_error("TripleStore: random OT sender is not a party");
    t.sender = static_cast<int>(sender);
    t.pads = read_bytes(is, kMaxVecElems);
    t.choice = read_bytes(is, kMaxVecElems);
    t.chosen = read_bytes(is, kMaxVecElems);
    const std::size_t n = t.choice.size();
    if (t.pads.size() != 4 * n || t.chosen.size() != n) {
      throw std::runtime_error("TripleStore: random OT shape mismatch");
    }
    for (const std::uint8_t c : t.choice) {
      if (c > 3) throw std::runtime_error("TripleStore: random OT choice out of range");
    }
  }
  return b;
}

QueryBundle slice_bundle_for_party(const QueryBundle& bundle, int party) {
  if (party != 0 && party != 1) {
    throw std::invalid_argument("slice_bundle_for_party: party must be 0 or 1");
  }
  QueryBundle out = bundle;
  const auto wipe = [party](crypto::Shared& s) {
    crypto::RingVec& peer = party == 0 ? s.s1 : s.s0;
    std::fill(peer.begin(), peer.end(), 0);
  };
  const auto wipe_bits = [party](crypto::BitTriple& t) {
    std::vector<std::uint8_t>* peer[3] = {&t.a1, &t.b1, &t.c1};
    if (party == 1) {
      peer[0] = &t.a0;
      peer[1] = &t.b0;
      peer[2] = &t.c0;
    }
    for (auto* v : peer) std::fill(v->begin(), v->end(), 0);
  };
  for (auto& p : out.square) {
    wipe(p.a);
    wipe(p.z);
  }
  for (auto& t : out.bit) wipe_bits(t);
  for (auto& t : out.bilinear) {
    wipe(t.a);
    wipe(t.b);
    wipe(t.z);
  }
  for (auto& t : out.rot) {
    if (t.sender == party) {
      std::fill(t.choice.begin(), t.choice.end(), 0);
      std::fill(t.chosen.begin(), t.chosen.end(), 0);
    } else {
      std::fill(t.pads.begin(), t.pads.end(), 0);
    }
  }
  return out;
}

void TripleStore::save(std::ostream& os) const {
  write_u64(os, kMagic);
  write_u64(os, kVersion);
  write_u64(os, static_cast<std::uint64_t>(rc_.bits));
  write_u64(os, static_cast<std::uint64_t>(rc_.frac_bits));
  write_u64(os, static_cast<std::uint64_t>(rc_.wire_bits));
  write_u64(os, fingerprint_);
  write_u64(os, bundles_.size());
  for (const QueryBundle& b : bundles_) write_bundle(os, b);
  if (!os) throw std::runtime_error("TripleStore: write failed");
}

void TripleStore::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("TripleStore: cannot open for writing: " + path);
  save(static_cast<std::ostream&>(os));
}

TripleStore TripleStore::load(std::istream& is) {
  if (read_u64(is) != kMagic) throw std::runtime_error("TripleStore: bad magic");
  const std::uint64_t version = read_u64(is);
  if (version != kVersion) {
    throw std::runtime_error("TripleStore: unsupported version " + std::to_string(version) +
                             " (this build reads v" + std::to_string(kVersion) +
                             "; regenerate the store)");
  }
  crypto::RingConfig rc;
  rc.bits = static_cast<int>(read_u64(is));
  rc.frac_bits = static_cast<int>(read_u64(is));
  rc.wire_bits = static_cast<int>(read_u64(is));
  if (rc.bits < 8 || rc.bits > 64 || rc.frac_bits < 0 || rc.frac_bits >= rc.bits ||
      rc.wire_bits < 1 || rc.wire_bits > 64) {
    throw std::runtime_error("TripleStore: implausible ring configuration");
  }
  const std::uint64_t fingerprint = read_u64(is);
  const std::uint64_t queries = read_u64(is);
  if (queries > (1ULL << 24)) throw std::runtime_error("TripleStore: implausible query count");

  TripleStore store(rc, fingerprint, static_cast<std::size_t>(queries));
  for (std::uint64_t q = 0; q < queries; ++q) {
    store.bundles_[static_cast<std::size_t>(q)] = read_bundle(is);
  }
  return store;
}

TripleStore TripleStore::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("TripleStore: cannot open for reading: " + path);
  return load(static_cast<std::istream&>(is));
}

// ---------------------------------------------------------------------------
// StoreTripleSource
// ---------------------------------------------------------------------------

void StoreTripleSource::throw_exhausted(const char* pool) const {
  throw TripleStoreExhausted(std::string("TripleStore exhausted (") + pool +
                             " pool): pregenerate more queries");
}

crypto::SquarePair StoreTripleSource::square_pair(std::size_t n) {
  if (square_next_ >= bundle_.square.size()) throw_exhausted("square");
  crypto::SquarePair p = std::move(bundle_.square[square_next_++]);
  if (p.a.size() != n || p.z.size() != n) {
    throw std::logic_error("TripleStore: square pair size mismatch (store/plan drift)");
  }
  return p;
}

crypto::BitTriple StoreTripleSource::bit_triple(std::size_t n) {
  if (bit_next_ >= bundle_.bit.size()) throw_exhausted("bit");
  crypto::BitTriple t = std::move(bundle_.bit[bit_next_++]);
  if (t.a0.size() != n || t.a1.size() != n || t.b0.size() != n || t.b1.size() != n ||
      t.c0.size() != n || t.c1.size() != n) {
    throw std::logic_error("TripleStore: bit triple size mismatch (store/plan drift)");
  }
  return t;
}

crypto::BilinearTriple StoreTripleSource::bilinear_triple(const crypto::BilinearSpec& spec) {
  if (bilinear_next_ >= bundle_.bilinear.size()) throw_exhausted("product");
  crypto::BilinearTriple t = std::move(bundle_.bilinear[bilinear_next_++]);
  if (t.spec != spec || t.a.size() != spec.na() || t.b.size() != spec.nb() ||
      t.z.size() != spec.nz()) {
    throw std::logic_error("TripleStore: product triple shape mismatch (store/plan drift)");
  }
  return t;
}

crypto::RandomOt StoreTripleSource::random_ot(std::size_t n, int sender) {
  if (rot_next_ >= bundle_.rot.size()) throw_exhausted("random OT");
  crypto::RandomOt t = std::move(bundle_.rot[rot_next_++]);
  if (t.sender != sender || t.choice.size() != n || t.chosen.size() != n ||
      t.pads.size() != 4 * n) {
    throw std::logic_error("TripleStore: random OT shape mismatch (store/plan drift)");
  }
  return t;
}

}  // namespace pasnet::offline
