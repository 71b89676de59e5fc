// The observability layer itself: counter/span/sample recording, merge
// aggregation, the Chrome-trace JSON schema (validated with the in-tree
// obs::json reader), span nesting over a real secure inference, counter
// determinism across exec modes and with no tracer attached at all (the
// always-on counter block), and the overhead guard — an attached but
// DISABLED tracer must add zero heap allocations to a secure inference
// (the hot-path hooks are a pointer test and nothing else).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

// -- global allocation counting (for the overhead guard) ---------------------
// Counting is gated so gtest bookkeeping outside the measured window does
// not pollute the totals.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Shared tiny trained model.
struct ObsFixture {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;

  ObsFixture() : md(pasnet::testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool)) {
    pc::Prng wprng(61);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*graph, 2, 8, 62);
  }

  [[nodiscard]] std::vector<nn::Tensor> queries(int n, std::uint64_t seed = 63) const {
    pc::Prng qprng(seed);
    std::vector<nn::Tensor> qs;
    for (int i = 0; i < n; ++i) qs.push_back(nn::Tensor::randn({1, 2, 8, 8}, qprng, 0.5f));
    return qs;
  }
};

/// Wait-time counters are the only timing-dependent entries; zero them so
/// snapshots can be compared exactly across exec modes and endpoints.
obs::CounterSnapshot normalized(obs::CounterSnapshot s) {
  s.values[static_cast<int>(obs::Counter::recv_wait_us)] = 0;
  s.values[static_cast<int>(obs::Counter::send_wait_us)] = 0;
  return s;
}

}  // namespace

TEST(ObsTracer, CountersAccumulateAndDisabledRecordsNothing) {
  obs::Tracer t;
  t.add(obs::Counter::rounds, 3);
  t.add(obs::Counter::rounds, 2);
  t.add(obs::Counter::bytes_p0_to_p1, 10);
  t.add(obs::Counter::bytes_p1_to_p0, 7);
  EXPECT_EQ(t.total(obs::Counter::rounds), 5u);
  const obs::CounterSnapshot s = t.snapshot();
  EXPECT_EQ(s[obs::Counter::rounds], 5u);
  EXPECT_EQ(s.total_bytes(), 17u);

  obs::Tracer off(false);
  off.add(obs::Counter::rounds, 9);
  off.complete_span("crypto", "round", 0);
  off.sample(obs::Sample::dealer_claim_us, 123);
  { const obs::SpanGuard g(&off, "crypto", "round"); }
  { const obs::SpanGuard g(nullptr, "crypto", "round"); }
  EXPECT_EQ(off.total(obs::Counter::rounds), 0u);
  EXPECT_EQ(off.event_count(), 0u);
  EXPECT_EQ(off.sample_count(obs::Sample::dealer_claim_us), 0u);
}

TEST(ObsTracer, MergeFoldsCountersSpansAndSamples) {
  obs::Tracer chunk_a, chunk_b, total;
  chunk_a.add(obs::Counter::rounds, 4);
  chunk_a.complete_span("proto", "chunk", obs::Tracer::now_us(), 2);
  chunk_a.sample(obs::Sample::dealer_claim_us, 10);
  chunk_b.add(obs::Counter::rounds, 6);
  chunk_b.complete_span("proto", "chunk", obs::Tracer::now_us(), 1);
  total.merge_from(chunk_a);
  total.merge_from(chunk_b);
  EXPECT_EQ(total.total(obs::Counter::rounds), 10u);
  EXPECT_EQ(total.event_count(), 2u);
  EXPECT_EQ(total.sample_count(obs::Sample::dealer_claim_us), 1u);
}

TEST(ObsTracer, PercentilesOverKnownSampleStream) {
  obs::Tracer t;
  for (std::uint64_t v = 100; v >= 1; --v) t.sample(obs::Sample::dealer_claim_us, v);
  EXPECT_EQ(t.sample_count(obs::Sample::dealer_claim_us), 100u);
  EXPECT_EQ(t.percentile(obs::Sample::dealer_claim_us, 0.0), 1u);
  EXPECT_EQ(t.percentile(obs::Sample::dealer_claim_us, 1.0), 100u);
  const std::uint64_t p50 = t.percentile(obs::Sample::dealer_claim_us, 0.5);
  EXPECT_GE(p50, 50u);
  EXPECT_LE(p50, 51u);
  EXPECT_EQ(obs::Tracer(true).percentile(obs::Sample::dealer_claim_us, 0.5), 0u);
}

TEST(ObsTracer, ChromeTraceJsonMatchesSchema) {
  obs::Tracer t;
  const std::uint64_t outer = obs::Tracer::now_us();
  {
    const obs::SpanGuard inner(&t, "ir", "conv", 4);
  }
  t.complete_span("proto", "chunk", outer, 4);
  t.add(obs::Counter::rounds, 11);
  t.add(obs::Counter::bytes_p0_to_p1, 256);
  t.sample(obs::Sample::dealer_claim_us, 42);

  std::ostringstream out;
  t.write_chrome_trace(out, /*pid=*/7);
  const obs::json::Value doc = obs::json::parse(out.str());

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const obs::json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const obs::json::Value& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_FALSE(ev.at("name").as_string().empty());
    EXPECT_FALSE(ev.at("cat").as_string().empty());
    EXPECT_TRUE(ev.at("ts").is_number());
    EXPECT_TRUE(ev.at("dur").is_number());
    EXPECT_EQ(ev.at("pid").as_u64(), 7u);
    EXPECT_GT(ev.at("tid").as_u64(), 0u);
    EXPECT_EQ(ev.at("args").at("lanes").as_u64(), 4u);
  }

  // Counter totals ride along under pasnetCounters, one key per counter.
  const obs::json::Value& counters = doc.at("pasnetCounters");
  const obs::CounterSnapshot snap = t.snapshot();
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    ASSERT_TRUE(counters.has(obs::counter_name(c))) << obs::counter_name(c);
    EXPECT_EQ(counters.at(obs::counter_name(c)).as_u64(), snap[c]) << obs::counter_name(c);
  }
  const obs::json::Value& claim = doc.at("pasnetSamples").at("dealer_claim_us");
  EXPECT_EQ(claim.at("count").as_u64(), 1u);
  EXPECT_EQ(claim.at("p50").as_u64(), 42u);
  EXPECT_EQ(claim.at("p99").as_u64(), 42u);
}

TEST(ObsTracer, SecureInferenceSpansNestPerThread) {
  ObsFixture f;
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  proto::WorkloadOptions wopts;
  wopts.batch = 2;
  proto::Workload wl(snet, wopts);
  obs::Tracer tracer;
  wl.set_tracer(&tracer);
  (void)wl.run(f.queries(3));

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_FALSE(events.empty());
  bool saw_chunk = false, saw_execute = false, saw_round = false;
  std::map<std::uint32_t, std::vector<obs::TraceEvent>> by_tid;
  for (const obs::TraceEvent& ev : events) {
    const std::string cat = ev.cat;
    EXPECT_TRUE(cat == "crypto" || cat == "ir" || cat == "proto" || cat == "offline" ||
                cat == "net")
        << cat;
    if (ev.name == "chunk") {
      saw_chunk = true;
      EXPECT_GT(ev.lanes, 0);
    }
    if (ev.name == "execute_batch") saw_execute = true;
    if (ev.name == "round") saw_round = true;
    by_tid[ev.tid].push_back(ev);
  }
  EXPECT_TRUE(saw_chunk);
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_round);

  // Nesting invariant: within one thread, spans form a forest — any two
  // either nest or are disjoint.  (Parents destruct after children, so a
  // parent interval always contains its children's exactly.)
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
      if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
      return a.dur_us > b.dur_us;
    });
    std::vector<std::uint64_t> open_ends;  // stack of enclosing span ends
    for (const obs::TraceEvent& ev : evs) {
      const std::uint64_t end = ev.ts_us + ev.dur_us;
      while (!open_ends.empty() && open_ends.back() <= ev.ts_us) open_ends.pop_back();
      if (!open_ends.empty()) {
        EXPECT_LE(end, open_ends.back())
            << "span '" << ev.name << "' on tid " << tid << " partially overlaps its parent";
      }
      open_ends.push_back(end);
    }
  }

  // Flush attribution: a round group's flush runs between op spans, never
  // inside one, so no op is charged for the group staged before it.
  std::set<std::string> op_names;
  for (const auto& op : wl.program().ops) op_names.insert(ir::op_kind_name(op.kind));
  for (const auto& [tid, evs] : by_tid) {
    for (const obs::TraceEvent& flush : evs) {
      if (flush.name != "flush_group" || flush.dur_us == 0) continue;
      for (const obs::TraceEvent& op : evs) {
        if (std::string(op.cat) != "ir" || op_names.count(op.name) == 0) continue;
        EXPECT_FALSE(op.ts_us <= flush.ts_us && flush.ts_us + flush.dur_us <= op.ts_us + op.dur_us)
            << "flush_group on tid " << tid << " lies inside the '" << op.name << "' span";
      }
    }
  }
}

TEST(ObsTracer, CounterTotalsDeterministicAcrossExecModes) {
  ObsFixture f;
  // The attached tracer's totals — or, untraced (no tracer anywhere), the
  // chunks' summed counter blocks, each chunk checked on the way.  Served
  // on one worker or on a pool of two, whose chunk tracers fold into the
  // workload tracer from their own threads.
  const auto run_mode = [&](int worker_pairs, bool traced) {
    pc::TwoPartyContext ctx;
    proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
    proto::WorkloadOptions wopts;
    wopts.batch = 2;
    wopts.worker_pairs = worker_pairs;
    proto::Workload wl(snet, wopts);
    obs::Tracer tracer;
    if (traced) wl.set_tracer(&tracer);
    (void)wl.run(f.queries(3));
    if (traced) return tracer.snapshot();
    obs::CounterSnapshot summed;
    for (const proto::ChunkStats& cs : wl.chunk_stats()) {
      // Counting is always on: an untraced chunk counts every event...
      for (const obs::Counter c : {obs::Counter::ot_batches, obs::Counter::and_levels,
                                   obs::Counter::openings, obs::Counter::triple_claims,
                                   obs::Counter::kernel_elems}) {
        EXPECT_GT(cs.counters[c], 0u) << obs::counter_name(c);
      }
      // ...and its traffic is the analytic model's.
      const perf::ProgramCost cost = perf::profile_program(
          perf::LatencyModel(perf::HardwareConfig::zcu104(), perf::NetworkConfig::lan_1gbps()),
          snet.program(), ctx.ring().bits, ctx.ring().wire_bits, static_cast<int>(cs.queries));
      EXPECT_EQ(cs.counters[obs::Counter::rounds], static_cast<std::uint64_t>(cost.total.rounds));
      EXPECT_EQ(cs.counters.total_bytes(), cost.wire_bytes);
      summed += cs.counters;
    }
    return summed;
  };
  const obs::CounterSnapshot serial = normalized(run_mode(1, true));
  const obs::CounterSnapshot pooled = normalized(run_mode(2, true));
  const obs::CounterSnapshot untraced = normalized(run_mode(1, false));
  ASSERT_GT(serial[obs::Counter::rounds], 0u);
  ASSERT_GT(serial[obs::Counter::ot_batches], 0u);
  ASSERT_GT(serial[obs::Counter::and_levels], 0u);
  ASSERT_GT(serial[obs::Counter::openings], 0u);
  ASSERT_GT(serial[obs::Counter::triple_claims], 0u);
  for (int i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(serial.values[i], pooled.values[i])
        << obs::counter_name(static_cast<obs::Counter>(i));
    EXPECT_EQ(serial.values[i], untraced.values[i])
        << obs::counter_name(static_cast<obs::Counter>(i));
  }
}

TEST(ObsHistogram, SingletonBucketsBelow64AndBoundsRoundTrip) {
  // Values below 2^(S+1) = 64 get singleton buckets: percentiles over a
  // small-value stream are exact.
  for (std::uint64_t v = 0; v < 64; ++v) {
    const int idx = obs::Histogram::bucket_index(v);
    EXPECT_EQ(obs::Histogram::bucket_lower(idx), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(idx), v);
  }
  // Boundary exactness: every bucket's lower/upper map back to that
  // bucket, and consecutive buckets tile the u64 axis with no gap.
  for (int idx = 0; idx < obs::Histogram::kBucketCount; ++idx) {
    const std::uint64_t lo = obs::Histogram::bucket_lower(idx);
    const std::uint64_t hi = obs::Histogram::bucket_upper(idx);
    EXPECT_LE(lo, hi) << idx;
    EXPECT_EQ(obs::Histogram::bucket_index(lo), idx);
    EXPECT_EQ(obs::Histogram::bucket_index(hi), idx);
    if (idx + 1 < obs::Histogram::kBucketCount) {
      EXPECT_EQ(obs::Histogram::bucket_index(hi + 1), idx + 1);
    }
  }
  EXPECT_EQ(obs::Histogram::bucket_index(~0ULL), obs::Histogram::kBucketCount - 1);
}

TEST(ObsHistogram, ExactCountSumMinMax) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  h.record(1000000);
  h.record(3);
  h.record(3);
  h.record(70, /*times=*/4);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 1000000u + 3 + 3 + 4 * 70);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1000000u);
  // The top percentile is clamped to the exact max, not the bucket bound.
  EXPECT_EQ(h.percentile(1.0), 1000000u);
  EXPECT_EQ(h.percentile(0.0), 3u);
}

TEST(ObsHistogram, MergeIsLosslessAndAssociative) {
  pc::Prng prng(77);
  obs::Histogram a, b, c, direct;
  obs::Histogram* parts[] = {&a, &b, &c};
  for (int i = 0; i < 3000; ++i) {
    // Spread across magnitudes: uniform bit width 1..63.
    const std::uint64_t v = prng.next_bits(1 + static_cast<int>(prng.next_below(63)));
    parts[i % 3]->record(v);
    direct.record(v);
  }
  // (a + b) + c
  obs::Histogram left;
  left.merge_from(a);
  left.merge_from(b);
  left.merge_from(c);
  // a + (b + c)
  obs::Histogram bc;
  bc.merge_from(b);
  bc.merge_from(c);
  obs::Histogram right;
  right.merge_from(a);
  right.merge_from(bc);
  for (const obs::Histogram* m : {&left, &right}) {
    EXPECT_EQ(m->count(), direct.count());
    EXPECT_EQ(m->sum(), direct.sum());
    EXPECT_EQ(m->min(), direct.min());
    EXPECT_EQ(m->max(), direct.max());
    for (int idx = 0; idx < obs::Histogram::kBucketCount; ++idx) {
      ASSERT_EQ(m->bucket_count(idx), direct.bucket_count(idx)) << idx;
    }
  }
}

TEST(ObsHistogram, PercentileTracksSortedOracleWithinOneBucket) {
  pc::Prng prng(91);
  obs::Histogram h;
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = prng.next_bits(1 + static_cast<int>(prng.next_below(40)));
    h.record(v);
    vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  const auto n = vals.size();
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
    if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;  // ceil
    if (rank == 0) rank = 1;
    const std::uint64_t oracle = vals[rank - 1];
    const std::uint64_t p = h.percentile(q);
    // The histogram answers with the upper bound of the oracle's bucket
    // (clamped to the exact max): never below the true order statistic,
    // never more than one bucket width above it.
    EXPECT_GE(p, oracle) << "q=" << q;
    EXPECT_LE(p, obs::Histogram::bucket_upper(obs::Histogram::bucket_index(oracle)))
        << "q=" << q;
  }
  // Monotonicity over a fine q sweep.
  std::uint64_t prev = 0;
  for (int i = 0; i <= 1000; ++i) {
    const std::uint64_t p = h.percentile(static_cast<double>(i) / 1000.0);
    EXPECT_GE(p, prev) << "q=" << i / 1000.0;
    prev = p;
  }
}

TEST(ObsTraceId, MintHexRoundTripAndRejectsGarbage) {
  const obs::TraceId id = obs::TraceId::mint();
  EXPECT_FALSE(id.is_zero());
  EXPECT_NE(obs::TraceId::mint(), id);
  const std::string hex = id.to_hex();
  EXPECT_EQ(hex.size(), 32u);
  const auto back = obs::TraceId::from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, id);
  EXPECT_FALSE(obs::TraceId::from_hex("").has_value());
  EXPECT_FALSE(obs::TraceId::from_hex("not hex at all").has_value());
  EXPECT_FALSE(obs::TraceId::from_hex(hex.substr(0, 31)).has_value());
  EXPECT_FALSE(obs::TraceId::from_hex(hex + "0").has_value());
  std::string bad = hex;
  bad[5] = 'g';
  EXPECT_FALSE(obs::TraceId::from_hex(bad).has_value());
}

TEST(ObsTracer, TraceIdAndClockOffsetExportedInChromeTrace) {
  obs::Tracer t;
  const obs::TraceId id = obs::TraceId::mint();
  t.set_trace_id(id);
  t.set_clock_offset_us(-1234);
  t.complete_span("net", "round", obs::Tracer::now_us());
  for (const obs::TraceEvent& ev : t.events()) EXPECT_EQ(ev.trace_id, id);

  std::ostringstream out;
  t.write_chrome_trace(out, /*pid=*/1, "party1");
  const obs::json::Value doc = obs::json::parse(out.str());
  EXPECT_EQ(doc.at("pasnetTraceId").as_string(), id.to_hex());
  EXPECT_EQ(static_cast<std::int64_t>(doc.at("pasnetClockOffsetUs").as_number()), -1234);
  bool saw_meta = false;
  for (const obs::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "M") {
      saw_meta = true;
      EXPECT_EQ(ev.at("name").as_string(), "process_name");
      EXPECT_EQ(ev.at("args").at("name").as_string(), "party1");
      EXPECT_EQ(ev.at("pid").as_u64(), 1u);
    }
  }
  EXPECT_TRUE(saw_meta);
}

TEST(ObsTracer, DisabledRecordAndSnapshotAllocateNothing) {
  // The zero-allocation guarantee extends to the histogram path: recording
  // samples into a disabled tracer, recording into a raw Histogram, and
  // taking counter/percentile snapshots allocate nothing.
  obs::Tracer disabled(false);
  obs::Histogram h;
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    disabled.sample(obs::Sample::chunk_us, i);
    disabled.add(obs::Counter::rounds, 1);
    h.record(i * 37);
  }
  const obs::CounterSnapshot snap = disabled.snapshot();
  const std::uint64_t p50 = h.percentile(0.5);
  const std::uint64_t dp = disabled.percentile(obs::Sample::chunk_us, 0.5);
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(snap[obs::Counter::rounds], 0u);
  EXPECT_GT(p50, 0u);
  EXPECT_EQ(dp, 0u);
}

TEST(ObsTracer, DisabledTracerAddsZeroAllocationsToSecureInference) {
  ObsFixture f;
  pc::TwoPartyContext ctx;  // lockstep: one thread, deterministic allocation stream
  proto::SecureNetwork snet(f.md, *f.graph, f.node_of_layer, ctx);
  const std::vector<nn::Tensor> queries = f.queries(1);

  const auto run_counting = [&](obs::Tracer* t) {
    proto::Workload wl(snet);
    if (t != nullptr) wl.set_tracer(t);
    g_allocs.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    (void)wl.run(queries);
    g_count_allocs.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
  };

  // Warm-up run to take one-time static/lazy allocations out of the window.
  (void)run_counting(nullptr);
  const std::uint64_t baseline = run_counting(nullptr);
  obs::Tracer disabled(false);
  const std::uint64_t with_disabled = run_counting(&disabled);
  ASSERT_GT(baseline, 0u);
  EXPECT_EQ(with_disabled, baseline)
      << "an attached-but-disabled tracer must not allocate on the protocol hot path";
  EXPECT_EQ(disabled.event_count(), 0u);
  EXPECT_EQ(disabled.total(obs::Counter::rounds), 0u);
}
