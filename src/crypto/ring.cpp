#include "crypto/ring.hpp"

#include <cmath>
#include <stdexcept>

#include "crypto/ring_kernels.hpp"

namespace pasnet::crypto {

std::int64_t to_signed(std::uint64_t v, const RingConfig& rc) noexcept {
  v &= rc.mask();
  // Sign-extend in unsigned arithmetic and convert once: subtracting 2^bits
  // as a signed value overflows int64 on a 63-bit ring.
  if (v & rc.sign_bit()) v |= ~rc.mask();
  return static_cast<std::int64_t>(v);
}

std::uint64_t from_signed(std::int64_t v, const RingConfig& rc) noexcept {
  return static_cast<std::uint64_t>(v) & rc.mask();
}

std::uint64_t encode(double x, const RingConfig& rc) noexcept {
  return from_signed(static_cast<std::int64_t>(std::llround(x * rc.scale())), rc);
}

double decode(std::uint64_t v, const RingConfig& rc) noexcept {
  return static_cast<double>(to_signed(v, rc)) / rc.scale();
}

std::uint64_t truncate(std::uint64_t v, const RingConfig& rc) noexcept {
  return from_signed(to_signed(v, rc) >> rc.frac_bits, rc);
}

RingVec encode_vec(const std::vector<double>& xs, const RingConfig& rc) {
  RingVec out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = encode(xs[i], rc);
  return out;
}

std::vector<double> decode_vec(const RingVec& vs, const RingConfig& rc) {
  std::vector<double> out(vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) out[i] = decode(vs[i], rc);
  return out;
}

namespace {

void check_same_size(const RingVec& a, const RingVec& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("ring vector size mismatch");
  }
}

}  // namespace

RingVec add_vec(const RingVec& a, const RingVec& b, const RingConfig& rc) {
  check_same_size(a, b);
  RingVec out(a.size());
  kern::add(out.data(), a.data(), b.data(), a.size(), rc.mask());
  return out;
}

RingVec sub_vec(const RingVec& a, const RingVec& b, const RingConfig& rc) {
  check_same_size(a, b);
  RingVec out(a.size());
  kern::sub(out.data(), a.data(), b.data(), a.size(), rc.mask());
  return out;
}

RingVec mul_vec(const RingVec& a, const RingVec& b, const RingConfig& rc) {
  check_same_size(a, b);
  RingVec out(a.size());
  kern::mul(out.data(), a.data(), b.data(), a.size(), rc.mask());
  return out;
}

RingVec scale_vec(const RingVec& a, std::uint64_t c, const RingConfig& rc) {
  RingVec out(a.size());
  kern::scale(out.data(), a.data(), c, a.size(), rc.mask());
  return out;
}

}  // namespace pasnet::crypto
