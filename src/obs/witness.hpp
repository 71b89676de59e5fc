#pragma once
// The witness invariant: one metered window's rounds and wire bytes as
// counted by the channel's counter block (read through its TrafficStats
// projection) must EXACTLY equal perf::profile_program's static prediction
// from the IR.  The tracer is no independent witness — it folds the same
// block once per window — so per run the party binaries check a different
// chain instead: the scraped /metrics totals == the tracer's == the summed
// per-chunk measurements == the summed analytic figures.  This helper is
// the single per-window comparison (the party binaries and the trace
// tests call it).

#include <cstdint>
#include <string>

#include "crypto/channel.hpp"

namespace pasnet::obs {

/// One witness's view of a window.
struct Witness {
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;  ///< accounted wire bytes, both directions

  [[nodiscard]] bool operator==(const Witness& o) const noexcept {
    return rounds == o.rounds && bytes == o.bytes;
  }
};

struct WitnessReport {
  Witness measured;
  Witness analytic;

  [[nodiscard]] bool ok() const noexcept { return measured == analytic; }
  /// Human-readable one-line summary ("measured == analytic" or the
  /// mismatching values).
  [[nodiscard]] std::string describe() const;
};

/// Assembles the report; the analytic witness comes from
/// perf::profile_program (total.rounds, wire_bytes) — passed as plain
/// numbers so this header does not pull in the latency model.
[[nodiscard]] WitnessReport check_witness(const crypto::TrafficStats& measured,
                                          std::uint64_t analytic_rounds,
                                          std::uint64_t analytic_bytes) noexcept;

}  // namespace pasnet::obs
