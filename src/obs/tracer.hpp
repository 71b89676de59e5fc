#pragma once
// Protocol tracing and metrics (the observability layer).
//
// Counting is always on and lives outside the tracer: every channel
// endpoint owns one obs::CounterBlock, and each protocol event the
// endpoint observes — a message, a round, an OT batch, an AND level, an
// opening, a triple claim, a kernel delivery, blocked send/recv time — is
// counted there exactly once, traced or not.
//
// obs::Tracer is what a traced run adds on top: timestamped *spans* (a
// named interval with a category and an optional lane count — one round,
// one IR op, one dealer claim), *samples* (latency values a percentile can
// be taken over, e.g. dealer claim latency p50/p99), and counter totals
// that the chunk runner and the ot-ext offline window fold in from the
// block once per metered window.  The only counts a tracer takes directly
// are the claims made outside any channel window (store claims, dealer
// claims and dealer bytes).
//
// Attachment is a raw pointer threaded through the existing objects
// (TwoPartyContext::set_tracer for spans, Workload, dealer, PartySession):
// a nullptr means "not attached" and every hot-path hook is a single
// pointer test.  An attached-but-disabled tracer records nothing and
// allocates nothing — the overhead-guard test pins that a disabled tracer
// adds zero heap allocations to a secure inference.
//
// Two export shapes:
//  - write_chrome_trace(): the Chrome trace event format (a JSON object
//    with a `traceEvents` array of "X" complete events) that
//    Perfetto / chrome://tracing load directly, plus `pasnetCounters` and
//    `pasnetSamples` objects carrying the counter totals and latency
//    percentiles for machine consumption.
//  - snapshot(): the raw counter totals (what /metrics renders).
//
// All tracers share one process-wide steady-clock epoch, so spans recorded
// by different tracer instances (per-chunk workers) stay on one timeline
// and merge_from() can aggregate them without timestamp fixups.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace pasnet::obs {

/// Per-run 128-bit correlation id shared by every process of one
/// deployment.  Minted by the connecting side of the first transport
/// handshake (party 0), adopted by every accepting peer, stamped into each
/// TraceEvent and into the exported trace files so obs::merge_chrome_traces
/// can prove N per-process files belong to one run.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool is_zero() const noexcept { return hi == 0 && lo == 0; }
  [[nodiscard]] bool operator==(const TraceId& o) const noexcept {
    return hi == o.hi && lo == o.lo;
  }
  [[nodiscard]] bool operator!=(const TraceId& o) const noexcept { return !(*this == o); }

  /// Fresh random id (OS entropy + clock/address mixing; a correlation
  /// handle, not a secret).  Never returns the zero id.
  [[nodiscard]] static TraceId mint();
  /// 32 lowercase hex chars, hi word first.
  [[nodiscard]] std::string to_hex() const;
  /// Parses to_hex() output; nullopt on anything malformed.
  [[nodiscard]] static std::optional<TraceId> from_hex(const std::string& s);
};

/// The fixed counter set: the slots of a CounterBlock and of a tracer's
/// totals.
enum class Counter : int {
  rounds = 0,          ///< communication rounds (see crypto::TrafficStats::rounds)
  bytes_p0_to_p1,      ///< accounted wire bytes, party 0 -> party 1
  bytes_p1_to_p0,      ///< accounted wire bytes, party 1 -> party 0
  messages,            ///< framed channel messages
  ot_batches,          ///< (1,4)-OT exchanges (one per OtBuffer flush batch)
  ot_messages,         ///< staged OT instances inside those batches
  and_levels,          ///< coalesced AND-tree level openings (BitOpenBuffer flushes)
  openings,            ///< staged ring or bit openings delivered (OpenBuffer stages)
  open_flushes,        ///< coalesced opening exchanges (OpenBuffer flushes)
  triple_claims,       ///< TripleSource draws (any backend)
  store_claims,        ///< TripleStore bundle claims
  dealer_claims,       ///< bundle claims served by a DealerServer
  dealer_bytes,        ///< bundle payload bytes served by a DealerServer
  recv_wait_us,        ///< accumulated microseconds blocked in recv (socket/queue wait)
  send_wait_us,        ///< accumulated microseconds blocked in send (back-pressure)
  kernel_elems,        ///< ring elements produced by kernelized ops (executor deliveries)
  ot_ext_base,         ///< base OTs run by the OT-extension setup (128 per direction)
  ot_ext_cots,         ///< extended correlated OTs produced by the offline generator
  count_  // sentinel
};

inline constexpr int kCounterCount = static_cast<int>(Counter::count_);

[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// Plain copy of all counter totals at one instant.
struct CounterSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  [[nodiscard]] std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<int>(c)];
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return (*this)[Counter::bytes_p0_to_p1] + (*this)[Counter::bytes_p1_to_p0];
  }
  CounterSnapshot& operator+=(const CounterSnapshot& o) noexcept {
    for (int i = 0; i < kCounterCount; ++i) values[i] += o.values[i];
    return *this;
  }
};

/// The always-on counter block: one relaxed atomic total per Counter, safe
/// to bump from any thread (the two endpoints of an in-process channel
/// pair share one, also when remote contexts drive them from two threads).
class CounterBlock {
 public:
  void add(Counter c, std::uint64_t v) noexcept {
    totals_[static_cast<int>(c)].fetch_add(v, std::memory_order_relaxed);
  }
  void add(const CounterSnapshot& s) noexcept {
    for (int i = 0; i < kCounterCount; ++i) {
      totals_[i].fetch_add(s.values[i], std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t operator[](Counter c) const noexcept {
    return totals_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] CounterSnapshot snapshot() const noexcept {
    CounterSnapshot s;
    for (int i = 0; i < kCounterCount; ++i) {
      s.values[i] = totals_[i].load(std::memory_order_relaxed);
    }
    return s;
  }
  void reset() noexcept {
    for (auto& t : totals_) t.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> totals_{};
};

/// Latency-value streams percentiles are taken over.  Backed by
/// obs::Histogram — constant memory regardless of how many values are
/// recorded, percentiles within bucket resolution, exact count/sum/max.
enum class Sample : int {
  dealer_claim_us = 0,  ///< one dealer bundle claim, request to reply
  chunk_us,             ///< one K-lane chunk end-to-end (secure phase)
  count_
};

inline constexpr int kSampleCount = static_cast<int>(Sample::count_);

[[nodiscard]] const char* sample_name(Sample s) noexcept;

/// One recorded span: a Chrome-trace "X" (complete) event.
struct TraceEvent {
  const char* cat;     ///< static category string: "crypto", "ir", "offline", "net"
  std::string name;    ///< span name (op kind, "round", "claim", ...)
  std::uint64_t ts_us; ///< start, microseconds since the process trace epoch
  std::uint64_t dur_us;
  std::uint32_t tid;   ///< small per-thread id (stable within the process)
  std::int64_t lanes;  ///< batched-lane annotation; -1 = not applicable
  TraceId trace_id;    ///< run correlation id current when the span closed
};

class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Cheap global switch; hot paths test it before taking timestamps.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  // -- counters (atomic; safe from any thread; no allocation) --------------

  /// A claim counted outside any channel window (store, dealer).
  void add(Counter c, std::uint64_t v) noexcept {
    if (enabled()) counters_.add(c, v);
  }
  /// Folds one metered window's counter block in, once, when it ends.
  void add(const CounterSnapshot& window) noexcept {
    if (enabled()) counters_.add(window);
  }
  [[nodiscard]] std::uint64_t total(Counter c) const noexcept { return counters_[c]; }
  [[nodiscard]] CounterSnapshot snapshot() const noexcept { return counters_.snapshot(); }

  // -- spans ----------------------------------------------------------------

  /// Microseconds since the process-wide trace epoch.
  [[nodiscard]] static std::uint64_t now_us() noexcept;

  /// Records a completed span; `begin_us` from an earlier now_us().
  void complete_span(const char* cat, const char* name, std::uint64_t begin_us,
                     std::int64_t lanes = -1);
  /// Same, with a caller-built name (allocates; enabled paths only).
  void complete_span(const char* cat, std::string name, std::uint64_t begin_us,
                     std::int64_t lanes = -1);

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  // -- samples (histogram-backed; constant memory) --------------------------

  void sample(Sample s, std::uint64_t value_us);
  /// q in [0, 1]; 0 with no samples recorded.  Within one histogram bucket
  /// (~3% relative) of the exact order statistic.
  [[nodiscard]] std::uint64_t percentile(Sample s, double q) const;
  [[nodiscard]] std::size_t sample_count(Sample s) const;
  /// Copy of the backing histogram (exact count/sum/max, bucket counts) —
  /// what the /metrics endpoint and the dealer stats line render.
  [[nodiscard]] Histogram histogram(Sample s) const;

  // -- run correlation -------------------------------------------------------

  /// The per-run 128-bit correlation id (zero until a transport handshake
  /// or the hosting binary assigns one).  Stamped into every subsequent
  /// TraceEvent and into the exported trace file.
  void set_trace_id(TraceId id);
  [[nodiscard]] TraceId trace_id() const;
  /// This process's trace-clock offset against the run's reference clock
  /// (party 0's), in microseconds: t_reference ≈ t_local + offset.
  /// Estimated by the handshake clock sync; exported with the trace so
  /// merge_chrome_traces can align timelines.
  void set_clock_offset_us(std::int64_t offset_us);
  [[nodiscard]] std::int64_t clock_offset_us() const;

  // -- aggregation / export -------------------------------------------------

  /// Folds another tracer's records into this one (chunk-worker tracers
  /// into the workload tracer).  Timestamps share the process epoch, so
  /// events append unchanged.
  void merge_from(const Tracer& other);

  /// Writes the Chrome trace event JSON (see file comment).  `pid` tags
  /// every event (use the party id for two-process runs; the dealer uses
  /// pid 2).  A non-null `process_name` adds the Chrome "process_name"
  /// metadata event, labeling the lane in merged timelines.
  void write_chrome_trace(std::ostream& out, int pid = 0,
                          const char* process_name = nullptr) const;
  /// Convenience: writes to `path`, throwing std::runtime_error on I/O
  /// failure.
  void write_chrome_trace_file(const std::string& path, int pid = 0,
                               const char* process_name = nullptr) const;

 private:
  [[nodiscard]] static std::uint32_t thread_tid();

  std::atomic<bool> enabled_;
  CounterBlock counters_;

  mutable std::mutex m_;
  std::vector<TraceEvent> events_;
  std::array<Histogram, kSampleCount> hists_;
  TraceId trace_id_;
  std::int64_t clock_offset_us_ = 0;
};

/// RAII span: stamps the start time at construction when the tracer is
/// attached and enabled, records a complete event at destruction, and is
/// two pointer-sized loads of overhead otherwise.  The name must be a
/// static string (op kind names, literal phase names).
class SpanGuard {
 public:
  SpanGuard(Tracer* t, const char* cat, const char* name, std::int64_t lanes = -1) noexcept
      : t_(t && t->enabled() ? t : nullptr), cat_(cat), name_(name), lanes_(lanes),
        begin_us_(t_ ? Tracer::now_us() : 0) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() {
    if (t_) t_->complete_span(cat_, name_, begin_us_, lanes_);
  }

 private:
  Tracer* t_;
  const char* cat_;
  const char* name_;
  std::int64_t lanes_;
  std::uint64_t begin_us_;
};

}  // namespace pasnet::obs
