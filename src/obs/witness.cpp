#include "obs/witness.hpp"

#include <sstream>

namespace pasnet::obs {

std::string WitnessReport::describe() const {
  std::ostringstream out;
  if (ok()) {
    out << "witness OK: rounds=" << measured.rounds << " bytes=" << measured.bytes
        << " (measured == analytic)";
    return out.str();
  }
  out << "witness MISMATCH:";
  out << " measured={rounds=" << measured.rounds << ", bytes=" << measured.bytes << "}";
  out << " analytic={rounds=" << analytic.rounds << ", bytes=" << analytic.bytes << "}";
  return out.str();
}

WitnessReport check_witness(const crypto::TrafficStats& measured, std::uint64_t analytic_rounds,
                            std::uint64_t analytic_bytes) noexcept {
  return {{measured.rounds, measured.total_bytes()}, {analytic_rounds, analytic_bytes}};
}

}  // namespace pasnet::obs
