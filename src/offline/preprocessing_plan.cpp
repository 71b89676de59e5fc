#include "offline/preprocessing_plan.hpp"

namespace pasnet::offline {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xFF;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t PreprocessingPlan::fingerprint() const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(ring.bits));
  fnv_mix(h, static_cast<std::uint64_t>(ring.frac_bits));
  fnv_mix(h, static_cast<std::uint64_t>(ring.wire_bits));
  for (const TripleRequest& r : requests) {
    fnv_mix(h, static_cast<std::uint64_t>(r.kind));
    fnv_mix(h, r.n);
    if (r.kind == TripleKind::bilinear) {
      const crypto::BilinearSpec& s = r.bilinear;
      fnv_mix(h, static_cast<std::uint64_t>(s.kind));
      fnv_mix(h, static_cast<std::uint64_t>(s.batch));
      fnv_mix(h, static_cast<std::uint64_t>(s.in_ch));
      fnv_mix(h, static_cast<std::uint64_t>(s.in_h));
      fnv_mix(h, static_cast<std::uint64_t>(s.in_w));
      fnv_mix(h, static_cast<std::uint64_t>(s.out_ch));
      fnv_mix(h, static_cast<std::uint64_t>(s.kernel));
      fnv_mix(h, static_cast<std::uint64_t>(s.stride));
      fnv_mix(h, static_cast<std::uint64_t>(s.pad));
      if (s.bit_b) fnv_mix(h, 1);
    }
    if (r.kind == TripleKind::rot) fnv_mix(h, static_cast<std::uint64_t>(r.sender));
  }
  return h;
}

std::uint64_t PreprocessingPlan::material_elems_per_query() const noexcept {
  std::uint64_t total = 0;
  for (const TripleRequest& r : requests) total += r.material_elems();
  return total;
}

std::uint64_t PreprocessingPlan::bit_triples_per_query() const noexcept {
  std::uint64_t total = 0;
  for (const TripleRequest& r : requests) {
    if (r.kind == TripleKind::bit) total += r.n;
  }
  return total;
}

std::uint64_t PreprocessingPlan::random_ots_per_query() const noexcept {
  std::uint64_t total = 0;
  for (const TripleRequest& r : requests) {
    if (r.kind == TripleKind::rot) total += r.n;
  }
  return total;
}

std::uint64_t PreprocessingPlan::material_bytes_per_query() const noexcept {
  // Each material ring element is stored as two u64 shares; each bit triple
  // as six share bytes; each random OT as four pads, a choice and the
  // chosen pad (see TripleStore serialization).
  return material_elems_per_query() * 16 + bit_triples_per_query() * 6 +
         random_ots_per_query() * 6;
}

crypto::SquarePair RecordingTripleSource::square_pair(std::size_t n) {
  TripleRequest r;
  r.kind = TripleKind::square;
  r.layer = layer_;
  r.n = n;
  plan_.requests.push_back(r);
  return dealer_.square_pair(n);
}

crypto::BitTriple RecordingTripleSource::bit_triple(std::size_t n) {
  TripleRequest r;
  r.kind = TripleKind::bit;
  r.layer = layer_;
  r.n = n;
  plan_.requests.push_back(r);
  return dealer_.bit_triple(n);
}

crypto::RandomOt RecordingTripleSource::random_ot(std::size_t n, int sender) {
  TripleRequest r;
  r.kind = TripleKind::rot;
  r.layer = layer_;
  r.n = n;
  r.sender = sender;
  plan_.requests.push_back(r);
  return dealer_.random_ot(n, sender);
}

crypto::BilinearTriple RecordingTripleSource::bilinear_triple(const crypto::BilinearSpec& spec) {
  TripleRequest r;
  r.kind = TripleKind::bilinear;
  r.layer = layer_;
  r.bilinear = spec;
  plan_.requests.push_back(r);
  return dealer_.bilinear_triple(spec);
}

}  // namespace pasnet::offline
