#include "obs/tracer.hpp"

#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>

namespace pasnet::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// One steady-clock zero for every tracer in the process, taken at first
/// use: per-chunk worker tracers and the workload tracer share a timeline.
Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

constexpr const char* kCounterNames[kCounterCount] = {
    "rounds",       "bytes_p0_to_p1", "bytes_p1_to_p0", "messages",
    "ot_batches",   "ot_messages",    "and_levels",     "openings",
    "open_flushes", "triple_claims",  "store_claims",   "dealer_claims",
    "dealer_bytes", "recv_wait_us",   "send_wait_us",   "kernel_elems",
    "ot_ext_base",  "ot_ext_cots",
};

constexpr const char* kSampleNames[kSampleCount] = {
    "dealer_claim_us",
    "chunk_us",
};

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer — spreads whatever entropy we gathered.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// JSON string escaping for event names (categories are static literals
/// under our control, but escape uniformly anyway).
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(ch >> 4) & 0xF] << hex[ch & 0xF];
        } else {
          out << ch;
        }
    }
  }
  out << '"';
}

}  // namespace

TraceId TraceId::mint() {
  // A correlation handle, not a key: random_device mixed with clocks and
  // ASLR-dependent addresses is plenty, and the fallback mixing keeps two
  // processes from colliding even where random_device is deterministic.
  std::random_device rd;
  std::uint64_t acc = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  acc = mix64(acc ^ static_cast<std::uint64_t>(
                        std::chrono::steady_clock::now().time_since_epoch().count()));
  acc = mix64(acc ^ static_cast<std::uint64_t>(
                        std::chrono::system_clock::now().time_since_epoch().count()));
  acc = mix64(acc ^ static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&rd)));
  acc = mix64(acc ^ std::hash<std::thread::id>{}(std::this_thread::get_id()));
  TraceId id;
  id.hi = mix64(acc ^ ((static_cast<std::uint64_t>(rd()) << 32) ^ rd()));
  id.lo = mix64(id.hi ^ ((static_cast<std::uint64_t>(rd()) << 32) ^ rd()));
  if (id.is_zero()) id.lo = 1;  // the zero id means "unassigned"
  return id;
}

std::string TraceId::to_hex() const {
  static const char* hex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const auto byte = static_cast<unsigned>((word >> shift) & 0xFF);
    out[static_cast<std::size_t>(2 * i)] = hex[byte >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = hex[byte & 0xF];
  }
  return out;
}

std::optional<TraceId> TraceId::from_hex(const std::string& s) {
  if (s.size() != 32) return std::nullopt;
  TraceId id;
  for (int i = 0; i < 32; ++i) {
    const char c = s[static_cast<std::size_t>(i)];
    std::uint64_t nib = 0;
    if (c >= '0' && c <= '9') {
      nib = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
    std::uint64_t& word = i < 16 ? id.hi : id.lo;
    word = (word << 4) | nib;
  }
  return id;
}

const char* counter_name(Counter c) noexcept { return kCounterNames[static_cast<int>(c)]; }

const char* sample_name(Sample s) noexcept { return kSampleNames[static_cast<int>(s)]; }

std::uint64_t Tracer::now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - process_epoch())
          .count());
}

std::uint32_t Tracer::thread_tid() {
  // Small stable per-thread ids: assigned on first use, process-wide, so
  // merged tracers keep distinct thread lanes in the trace viewer.
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void Tracer::complete_span(const char* cat, const char* name, std::uint64_t begin_us,
                           std::int64_t lanes) {
  complete_span(cat, std::string(name), begin_us, lanes);
}

void Tracer::complete_span(const char* cat, std::string name, std::uint64_t begin_us,
                           std::int64_t lanes) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = std::move(name);
  ev.ts_us = begin_us;
  ev.dur_us = now_us() - begin_us;
  ev.tid = thread_tid();
  ev.lanes = lanes;
  std::lock_guard<std::mutex> lk(m_);
  ev.trace_id = trace_id_;
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lk(m_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lk(m_);
  return events_.size();
}

void Tracer::sample(Sample s, std::uint64_t value_us) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(m_);
  hists_[static_cast<int>(s)].record(value_us);
}

std::uint64_t Tracer::percentile(Sample s, double q) const {
  std::lock_guard<std::mutex> lk(m_);
  return hists_[static_cast<int>(s)].percentile(q);
}

std::size_t Tracer::sample_count(Sample s) const {
  std::lock_guard<std::mutex> lk(m_);
  return static_cast<std::size_t>(hists_[static_cast<int>(s)].count());
}

Histogram Tracer::histogram(Sample s) const {
  std::lock_guard<std::mutex> lk(m_);
  return hists_[static_cast<int>(s)];
}

void Tracer::set_trace_id(TraceId id) {
  std::lock_guard<std::mutex> lk(m_);
  trace_id_ = id;
}

TraceId Tracer::trace_id() const {
  std::lock_guard<std::mutex> lk(m_);
  return trace_id_;
}

void Tracer::set_clock_offset_us(std::int64_t offset_us) {
  std::lock_guard<std::mutex> lk(m_);
  clock_offset_us_ = offset_us;
}

std::int64_t Tracer::clock_offset_us() const {
  std::lock_guard<std::mutex> lk(m_);
  return clock_offset_us_;
}

void Tracer::merge_from(const Tracer& other) {
  counters_.add(other.snapshot());
  // Copy the other tracer's records under its lock, then append under ours
  // (never hold both: callers may merge in either direction).
  std::vector<TraceEvent> evs;
  std::array<Histogram, kSampleCount> smp;
  {
    std::lock_guard<std::mutex> lk(other.m_);
    evs = other.events_;
    smp = other.hists_;
  }
  std::lock_guard<std::mutex> lk(m_);
  events_.insert(events_.end(), std::make_move_iterator(evs.begin()),
                 std::make_move_iterator(evs.end()));
  for (int i = 0; i < kSampleCount; ++i) {
    hists_[i].merge_from(smp[i]);
  }
}

void Tracer::write_chrome_trace(std::ostream& out, int pid, const char* process_name) const {
  std::vector<TraceEvent> evs;
  std::array<Histogram, kSampleCount> smp;
  TraceId tid;
  std::int64_t clock_offset = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    evs = events_;
    smp = hists_;
    tid = trace_id_;
    clock_offset = clock_offset_us_;
  }
  const CounterSnapshot cs = snapshot();

  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  if (process_name != nullptr) {
    out << "\n    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": 0, \"args\": {\"name\": ";
    write_json_string(out, process_name);
    out << "}}";
    first = false;
  }
  for (const auto& ev : evs) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"name\": ";
    write_json_string(out, ev.name);
    out << ", \"cat\": ";
    write_json_string(out, ev.cat);
    out << ", \"ph\": \"X\", \"ts\": " << ev.ts_us << ", \"dur\": " << ev.dur_us
        << ", \"pid\": " << pid << ", \"tid\": " << ev.tid;
    if (ev.lanes >= 0) out << ", \"args\": {\"lanes\": " << ev.lanes << "}";
    out << "}";
  }
  out << "\n  ],\n  \"pasnetTraceId\": ";
  write_json_string(out, tid.to_hex());
  out << ",\n  \"pasnetClockOffsetUs\": " << clock_offset;
  out << ",\n  \"pasnetCounters\": {";
  for (int i = 0; i < kCounterCount; ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(out, kCounterNames[i]);
    out << ": " << cs.values[i];
  }
  out << "\n  },\n  \"pasnetSamples\": {";
  for (int i = 0; i < kSampleCount; ++i) {
    const Histogram& h = smp[i];
    out << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(out, kSampleNames[i]);
    out << ": {\"count\": " << h.count() << ", \"sum\": " << h.sum()
        << ", \"p50\": " << h.percentile(0.5) << ", \"p95\": " << h.percentile(0.95)
        << ", \"p99\": " << h.percentile(0.99) << ", \"max\": " << h.max() << "}";
  }
  out << "\n  }\n}\n";
}

void Tracer::write_chrome_trace_file(const std::string& path, int pid,
                                     const char* process_name) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("Tracer::write_chrome_trace_file: cannot open " + path);
  write_chrome_trace(f, pid, process_name);
  f.flush();
  if (!f) throw std::runtime_error("Tracer::write_chrome_trace_file: write failed: " + path);
}

}  // namespace pasnet::obs
