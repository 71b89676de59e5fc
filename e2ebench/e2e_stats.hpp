#pragma once
// Pure statistics helpers of the end-to-end benchmark: order statistics
// over latency samples and span self times over a recorded trace.  Kept
// apart from the runner so `bench_e2e --selftest` can check them on
// hand-built inputs.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/tracer.hpp"

namespace pasnet::e2e {

/// The q-quantile (q in [0, 1]) of `v` by linear interpolation between
/// closest ranks (the "inclusive" definition: q=0 is the minimum, q=1 the
/// maximum).  Throws on an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// (max - min) / median: the spread of a handful of repetition values,
/// as a share of their median (0 when the median is 0).
inline double relative_range(const std::vector<double>& v) {
  const double m = median(v);
  if (m == 0.0) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return (*hi - *lo) / (m < 0 ? -m : m);
}

/// Nesting of a set of spans recorded by one process.  Spans on one thread
/// nest (they come from scoped guards), so a span's parent is the
/// innermost span of the same thread that encloses it.  A span's self
/// time is its duration minus the part of it its children cover.
struct SpanTree {
  std::vector<long> parent;            ///< index into the events, -1 = top level
  std::vector<std::uint64_t> self_us;  ///< aligned with the events
};

inline SpanTree span_tree(const std::vector<obs::TraceEvent>& ev) {
  const std::size_t n = ev.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Per thread, by start; an enclosing span sorts before the spans it
  // contains (longer first on equal starts).
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ev[a].tid != ev[b].tid) return ev[a].tid < ev[b].tid;
    if (ev[a].ts_us != ev[b].ts_us) return ev[a].ts_us < ev[b].ts_us;
    return ev[a].dur_us > ev[b].dur_us;
  });
  SpanTree t;
  t.parent.assign(n, -1);
  t.self_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) t.self_us[i] = ev[i].dur_us;
  // covered_end[i]: how far into span i its children already cover, so
  // overlapping children are not subtracted twice.
  std::vector<std::uint64_t> covered_end(n);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const std::uint64_t begin = ev[i].ts_us;
    const std::uint64_t end = begin + ev[i].dur_us;
    while (!stack.empty()) {
      const std::size_t top = stack.back();
      const bool same_thread = ev[top].tid == ev[i].tid;
      if (same_thread && begin < ev[top].ts_us + ev[top].dur_us) break;
      // A zero-length span at its parent's last microsecond still nests.
      if (same_thread && ev[i].dur_us == 0 && begin == ev[top].ts_us + ev[top].dur_us) break;
      stack.pop_back();
    }
    covered_end[i] = begin;
    if (!stack.empty()) {
      const std::size_t p = stack.back();
      t.parent[i] = static_cast<long>(p);
      const std::uint64_t p_end = ev[p].ts_us + ev[p].dur_us;
      const std::uint64_t from = std::max(begin, covered_end[p]);
      const std::uint64_t to = std::min(end, p_end);
      if (to > from) {
        t.self_us[p] -= std::min(t.self_us[p], to - from);
        covered_end[p] = to;
      }
    }
    stack.push_back(i);
  }
  return t;
}

/// Index of the top-level span enclosing event i (i itself when top level).
inline std::size_t root_of(const SpanTree& t, std::size_t i) {
  while (t.parent[i] >= 0) i = static_cast<std::size_t>(t.parent[i]);
  return i;
}

}  // namespace pasnet::e2e
