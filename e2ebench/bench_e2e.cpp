// End-to-end 2PC serving benchmark: three workloads, each run as several
// repetitions of set-up, warm-up and a timed closed loop, with every
// chunk checked for correctness.  See README.md beside this file for the
// workloads, the metrics and how to run, trace and compare.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//       one workload; prints every metric, then one JSON result line
//   bench_e2e --all --seed N --seconds S [--trace 0|1] [--json PATH]
//       every workload, repetitions interleaved round-robin; --json
//       appends the run to PATH (a {"runs": [...]} document)
//   bench_e2e --compare BASE.json[@i] NEW.json[@i] [--bounds BENCHMARK.json]
//   bench_e2e --selftest | --smoke

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "e2e_run.hpp"
#include "e2e_stats.hpp"
#include "obs/json.hpp"

namespace e2e = pasnet::e2e;
namespace json = pasnet::obs::json;
namespace obs = pasnet::obs;

namespace {

/// Measured repetitions per run; the run's value of a metric is the
/// median of theirs, so one slow stretch of a shared machine moves it less.
constexpr int kReps = 5;
/// Set-ups timed per repetition (the repetition's own plus set-up-only
/// ones): set-up takes about a millisecond, so few samples are noisy.
constexpr int kSetupsPerRep = 3;
/// Length of the checked but unmeasured repetition a run starts with.
constexpr double kWarmupRepSeconds = 2.0;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> reps;  ///< per-repetition values (for spread)
  std::size_t samples = 0;   ///< latency samples behind a percentile (0 = n/a)
};

/// One workload's results in one run.
struct WorkloadResult {
  std::string name;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end, per_layer;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

template <typename F>
std::vector<double> each(const std::vector<e2e::Rep>& reps, F f) {
  std::vector<double> v;
  for (const e2e::Rep& r : reps) v.push_back(f(r));
  return v;
}

Metric from_reps(std::string name, std::string unit, std::vector<double> reps) {
  Metric m{std::move(name), std::move(unit), e2e::median(reps), std::move(reps), 0};
  return m;
}

std::vector<Metric> end_to_end_metrics(const std::vector<e2e::Rep>& reps,
                                       std::vector<double> setups) {
  std::size_t queries = 0;
  for (const e2e::Rep& r : reps) queries += r.queries;
  const auto per_query = [](double total, const e2e::Rep& r) {
    return total / static_cast<double>(r.queries);
  };
  std::vector<Metric> m;
  m.push_back(from_reps("qps", "1/s", each(reps, [](const e2e::Rep& r) {
                          return static_cast<double>(r.queries) / r.window_s;
                        })));
  m.push_back(from_reps("latency_p50_ms", "ms",
                        each(reps, [](const e2e::Rep& r) { return e2e::median(r.chunk_ms); })));
  m.back().samples = queries;
  // A median of per-repetition p90s, like p50: pooled samples would mix a
  // slow stretch of the machine into the tail of every run it touches.
  m.push_back(from_reps("latency_p90_ms", "ms", each(reps, [](const e2e::Rep& r) {
                          return e2e::quantile(r.chunk_ms, 0.9);
                        })));
  m.back().samples = queries;
  m.push_back(from_reps("wire_bytes_per_query", "bytes", each(reps, [&](const e2e::Rep& r) {
                          return per_query(static_cast<double>(r.wire_bytes), r);
                        })));
  m.push_back(from_reps("rounds_per_query", "count", each(reps, [&](const e2e::Rep& r) {
                          return per_query(static_cast<double>(r.rounds), r);
                        })));
  m.push_back(from_reps("setup_s", "s", std::move(setups)));
  const double rss = peak_rss_mb();
  m.push_back(Metric{"peak_rss_mb", "MB", rss, {rss}, 0});
  return m;
}

std::vector<Metric> per_layer_metrics(const std::vector<e2e::Rep>& reps, const e2e::Rep& traced,
                                      const e2e::LayerTimings& lt) {
  const double q = static_cast<double>(traced.queries);
  const obs::CounterSnapshot& c = traced.counters;
  const auto per_q = [&](obs::Counter k) { return static_cast<double>(c[k]) / q; };

  // Self times of party 0's spans inside the chunk roots (net/run_batch on
  // TCP, proto/chunk on wan), folded by layer.
  const e2e::SpanTree tree = e2e::span_tree(traced.events);
  double root_us = 0, chunk_self = 0, ir_self = 0, round_self = 0;
  for (std::size_t i = 0; i < traced.events.size(); ++i) {
    const obs::TraceEvent& ev = traced.events[i];
    const std::string cat = ev.cat;
    const auto self = static_cast<double>(tree.self_us[i]);
    if (tree.parent[i] < 0) {
      root_us += static_cast<double>(ev.dur_us);
      chunk_self += self;
    } else if (cat == "ir") {
      ir_self += self;
    } else if (cat == "crypto" && ev.name == "round") {
      round_self += self;
    }
  }
  const double untraced_p50 =
      e2e::median(each(reps, [](const e2e::Rep& r) { return e2e::median(r.chunk_ms); }));
  const double traced_p50 = e2e::median(traced.chunk_ms);

  std::vector<Metric> m;
  const auto add = [&](const char* name, const char* unit, double v) {
    m.push_back(Metric{name, unit, v, {v}, 0});
  };
  m.push_back(from_reps("cpu_ms_per_query", "ms", each(reps, [](const e2e::Rep& r) {
                          return 1000.0 * r.cpu_s / static_cast<double>(r.queries);
                        })));
  add("proto.compile_ms", "ms",
      e2e::median(each(reps, [](const e2e::Rep& r) { return r.compile_ms; })));
  add("offline.plan_ms", "ms",
      e2e::median(each(reps, [](const e2e::Rep& r) { return r.plan_ms; })));
  add("net.connect_ms", "ms", lt.connect_ms);
  add("offline.preprocess_ms_per_query", "ms", lt.preprocess_ms_per_query);
  add("offline.store_bytes_per_query", "bytes", lt.store_bytes_per_query);
  add("ir.inproc_chunk_ms", "ms", lt.inproc_chunk_ms);
  add("net.wire_overhead_ms", "ms", untraced_p50 - lt.inproc_chunk_ms);
  add("chunk.self_ms_per_query", "ms", chunk_self / 1000.0 / q);
  add("ir.self_ms_per_query", "ms", ir_self / 1000.0 / q);
  add("crypto.round_ms_per_query", "ms", round_self / 1000.0 / q);
  add("net.recv_wait_ms_per_query", "ms", per_q(obs::Counter::recv_wait_us) / 1000.0);
  add("net.messages_per_query", "count", per_q(obs::Counter::messages));
  add("crypto.ot_dh_us_per_ot", "us", lt.ot_dh_us_per_ot);
  add("crypto.ot_messages_per_query", "count", per_q(obs::Counter::ot_messages));
  add("crypto.ot_batches_per_query", "count", per_q(obs::Counter::ot_batches));
  add("crypto.and_levels_per_query", "count", per_q(obs::Counter::and_levels));
  add("crypto.gemm_melems_per_s", "Melem/s", lt.gemm_melems_per_s);
  add("crypto.kernel_elems_per_query", "count", per_q(obs::Counter::kernel_elems));
  add("crypto.open_flushes_per_query", "count", per_q(obs::Counter::open_flushes));
  add("crypto.openings_per_query", "count", per_q(obs::Counter::openings));
  add("offline.triple_claims_per_query", "count", per_q(obs::Counter::triple_claims));
  add("offline.store_claims_per_query", "count", static_cast<double>(traced.store_claims) / q);
  add("obs.trace_overhead_pct", "%", 100.0 * (traced_p50 - untraced_p50) / untraced_p50);
  add("obs.self_time_coverage_pct", "%",
      100.0 * (chunk_self + ir_self + round_self) / root_us);
  return m;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') q += '\\';
    q += ch;
  }
  return q + "\"";
}

/// The last stdout line of a one-workload run: {"correct", "attempted",
/// "failed", "metrics"}, each metric as {"value", "unit"}.
std::string result_line(const WorkloadResult& w, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(w.failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(w.attempted) +
                  ", \"failed\": " + std::to_string(w.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i > 0 ? ", " : "") + quote(metrics[i].name) + ": {\"value\": " +
         num(metrics[i].value) + ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return s + "}}";
}

void print_metrics(const WorkloadResult& w) {
  std::printf("== %s: %zu attempted, %zu failed (failure rate %.6g)\n", w.name.c_str(),
              w.attempted, w.failed,
              w.attempted > 0 ? static_cast<double>(w.failed) / static_cast<double>(w.attempted)
                              : 0.0);
  for (const auto* group : {&w.end_to_end, &w.per_layer}) {
    for (const Metric& m : *group) {
      std::string reps;
      for (const double r : m.reps) reps += (reps.empty() ? "" : " ") + num(r).substr(0, 10);
      std::printf("  %-36s %14.6g %-8s reps [%s]", m.name.c_str(), m.value, m.unit.c_str(),
                  reps.c_str());
      if (m.samples > 0) std::printf(" n=%zu", m.samples);
      std::printf("\n");
    }
  }
  for (const std::string& e : w.errors) {
    std::fprintf(stderr, "%s: FAILED %s\n", w.name.c_str(), e.c_str());
  }
}

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

/// The repetitions of every selected workload, interleaved round-robin so
/// a slow stretch of a shared machine hits each workload alike; then, with
/// tracing, one traced repetition at a third of the length and the layer
/// timings.
std::vector<WorkloadResult> run_workloads(const std::vector<const e2e::WorkloadSpec*>& specs,
                                          const RunConfig& cfg) {
  std::vector<std::vector<e2e::Rep>> reps(specs.size());
  std::vector<std::vector<double>> setups(specs.size());
  std::vector<WorkloadResult> out(specs.size());
  const auto tally = [&](std::size_t w, const e2e::Rep& r) {
    out[w].attempted += r.attempted;
    out[w].failed += r.failed;
    out[w].errors.insert(out[w].errors.end(), r.errors.begin(), r.errors.end());
  };
  // Round 0 warms the process up and is checked but not measured: a
  // process's first repetition runs ~20% slower throughout (its memory is
  // fresh), and a long-running server does not.
  for (int round = 0; round <= kReps; ++round) {
    for (std::size_t w = 0; w < specs.size(); ++w) {
      e2e::RepOptions o;
      o.seed = cfg.seed;
      o.rep = round;
      o.window_s =
          round == 0 ? std::min(kWarmupRepSeconds, cfg.seconds / kReps) : cfg.seconds / kReps;
      e2e::Rep r = e2e::run_rep(*specs[w], o);
      tally(w, r);
      if (round == 0) continue;
      setups[w].push_back(r.setup_s);
      for (int s = 1; s < kSetupsPerRep; ++s) setups[w].push_back(e2e::setup_seconds(*specs[w]));
      reps[w].push_back(std::move(r));
    }
  }
  for (std::size_t w = 0; w < specs.size(); ++w) {
    out[w].name = specs[w]->name;
    if (out[w].failed > 0) continue;  // a failed repetition may have no samples
    out[w].end_to_end = end_to_end_metrics(reps[w], setups[w]);
    if (!cfg.trace) continue;
    e2e::RepOptions o;
    o.seed = cfg.seed;
    o.rep = kReps + 1;
    o.window_s = cfg.seconds / 3;
    o.traced = true;
    o.trace_dir = cfg.trace_dir;
    const e2e::Rep traced = e2e::run_rep(*specs[w], o);
    tally(w, traced);
    if (traced.failed > 0) continue;
    const std::uint64_t batches = traced.counters[obs::Counter::ot_batches];
    const std::size_t ot_batch =
        batches > 0 ? static_cast<std::size_t>(traced.counters[obs::Counter::ot_messages] / batches)
                    : 0;
    out[w].per_layer =
        per_layer_metrics(reps[w], traced, e2e::time_layers(*specs[w], ot_batch));
  }
  return out;
}

// --- results files -------------------------------------------------------------

std::string dump(const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::null:
      return "null";
    case json::Value::Kind::boolean:
      return v.as_bool() ? "true" : "false";
    case json::Value::Kind::number:
      return num(v.as_number());
    case json::Value::Kind::string:
      return quote(v.as_string());
    case json::Value::Kind::array: {
      std::string s = "[";
      for (const json::Value& e : v.as_array()) s += (s.size() > 1 ? ", " : "") + dump(e);
      return s + "]";
    }
    case json::Value::Kind::object: {
      std::string s = "{";
      for (const auto& [k, e] : v.as_object()) {
        s += (s.size() > 1 ? ", " : "") + quote(k) + ": " + dump(e);
      }
      return s + "}";
    }
  }
  return "null";
}

std::string run_json(const RunConfig& cfg, const std::vector<WorkloadResult>& results) {
  std::string s = "{\"seed\": " + std::to_string(cfg.seed) + ", \"seconds\": " +
                  num(cfg.seconds) + ", \"trace\": " + (cfg.trace ? "1" : "0") +
                  ", \"reps\": " + std::to_string(kReps) + ", \"workloads\": {";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    s += (w > 0 ? ", " : "") + quote(r.name) + ": {\"attempted\": " +
         std::to_string(r.attempted) + ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": {";
    bool first = true;
    for (const auto* group : {&r.end_to_end, &r.per_layer}) {
      for (const Metric& m : *group) {
        std::string reps;
        for (const double v : m.reps) reps += (reps.empty() ? "" : ", ") + num(v);
        s += (first ? "" : ", ") + quote(m.name) + ": {\"value\": " + num(m.value) +
             ", \"unit\": " + quote(m.unit) + ", \"reps\": [" + reps +
             "], \"samples\": " + std::to_string(m.samples) + "}";
        first = false;
      }
    }
    s += "}}";
  }
  return s + "}}";
}

/// Appends one run to a {"runs": [...]} results document.
void append_run(const std::string& path, const std::string& run) {
  std::vector<std::string> runs;
  if (std::filesystem::exists(path)) {
    const json::Value doc = json::parse_file(path);
    for (const json::Value& r : doc.at("runs").as_array()) runs.push_back(dump(r));
  }
  runs.push_back(run);
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "  " << runs[i] << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- --compare -----------------------------------------------------------------

/// "path" selects every run of a results file, "path@i" only run i.
std::vector<json::Value> select_runs(const std::string& arg) {
  const std::size_t at = arg.rfind('@');
  const std::string path = at == std::string::npos ? arg : arg.substr(0, at);
  const json::Value doc = json::parse_file(path);
  const json::Array& runs = doc.at("runs").as_array();
  if (at == std::string::npos) return runs;
  const auto i = static_cast<std::size_t>(std::stoul(arg.substr(at + 1)));
  if (i >= runs.size()) throw std::runtime_error(arg + ": no such run");
  return {runs[i]};
}

struct Side {
  std::vector<double> values, reps;
  std::size_t attempted = 0, failed = 0;
};

Side gather(const std::vector<json::Value>& runs, const std::string& workload,
            const std::string& metric) {
  Side s;
  for (const json::Value& run : runs) {
    const json::Value& w = run.at("workloads").at(workload);
    s.attempted += w.at("attempted").as_u64();
    s.failed += w.at("failed").as_u64();
    const json::Value& m = w.at("metrics").at(metric);
    s.values.push_back(m.at("value").as_number());
    for (const json::Value& r : m.at("reps").as_array()) s.reps.push_back(r.as_number());
  }
  return s;
}

int compare(const std::string& base_arg, const std::string& new_arg, const std::string& bounds) {
  const std::vector<json::Value> base = select_runs(base_arg), next = select_runs(new_arg);
  // name -> (bound or -1 for per-layer, lower_is_better)
  std::map<std::string, std::pair<double, bool>> rules;
  const json::Value spec = json::parse_file(bounds);
  for (const json::Value& m : spec.at("end_to_end").as_array()) {
    rules[m.at("name").as_string()] = {m.at("bound").as_number(),
                                       m.at("better").as_string() == "lower"};
  }
  for (const json::Value& m : spec.at("per_layer").as_array()) {
    rules[m.at("name").as_string()] = {-1.0, m.at("better").as_string() == "lower"};
  }
  std::printf("%-20s %-34s %14s %14s %9s %6s %7s %-10s %s\n", "workload", "metric", "base",
              "new", "delta", "bound", "spread", "verdict", "failed base/new");
  int regressed = 0;
  for (const auto& [wname, wval] : base.front().at("workloads").as_object()) {
    if (!next.front().at("workloads").has(wname)) continue;
    for (const auto& [mname, mval] : wval.at("metrics").as_object()) {
      if (!next.front().at("workloads").at(wname).at("metrics").has(mname)) continue;
      const Side b = gather(base, wname, mname), n = gather(next, wname, mname);
      const double bm = e2e::median(b.values), nm = e2e::median(n.values);
      const double delta = bm != 0 ? (nm - bm) / std::fabs(bm) : (nm == bm ? 0.0 : INFINITY);
      const double spread = std::max(e2e::relative_range(b.reps), e2e::relative_range(n.reps));
      std::string verdict = "-", bound_s = "-";
      const auto rule = rules.find(mname);
      if (rule != rules.end() && rule->second.first >= 0) {
        const auto [bound, lower_better] = rule->second;
        bound_s = num(bound).substr(0, 6);
        const double worse = lower_better ? delta : -delta;
        const auto [bmin, bmax] = std::minmax_element(b.reps.begin(), b.reps.end());
        const auto [nmin, nmax] = std::minmax_element(n.reps.begin(), n.reps.end());
        const bool all_better = lower_better ? *nmax < *bmin : *nmin > *bmax;
        if (spread > bound && !all_better) {
          verdict = "unresolved";
        } else if (worse > bound) {
          verdict = "regressed";
          ++regressed;
        } else {
          verdict = "ok";
        }
      }
      std::printf("%-20s %-34s %14.6g %14.6g %+8.2f%% %6s %6.1f%% %-10s %zu/%zu of %zu/%zu\n",
                  wname.c_str(), mname.c_str(), bm, nm, 100.0 * delta, bound_s.c_str(),
                  100.0 * spread, verdict.c_str(), b.failed, n.failed, b.attempted,
                  n.attempted);
    }
  }
  std::printf("%d regressed row(s)\n", regressed);
  return regressed > 0 ? 1 : 0;
}

// --- --selftest ----------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Percentiles on known samples (inclusive linear interpolation).
  check(near(e2e::quantile({4, 1, 3, 2}, 0.5), 2.5), "median of 1..4");
  check(near(e2e::quantile({1, 2, 3, 4}, 0.9), 3.7), "p90 of 1..4");
  check(near(e2e::quantile({1, 2, 3, 4}, 0.0), 1) && near(e2e::quantile({1, 2, 3, 4}, 1.0), 4),
        "p0 / p100");
  check(near(e2e::median({7}), 7), "median of one sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(e2e::quantile(hundred, 0.9), 90.1), "p90 of 1..100");
  check(near(e2e::relative_range({9, 10, 12}), 0.3), "relative range");

  // Self times: nesting, siblings, two threads, a child overrunning its
  // parent by a rounding microsecond.
  const auto span = [](const char* cat, const char* name, std::uint64_t ts, std::uint64_t dur,
                       std::uint32_t tid) {
    return obs::TraceEvent{cat, name, ts, dur, tid, -1, obs::TraceId{}};
  };
  const std::vector<obs::TraceEvent> ev = {
      span("crypto", "D", 55, 5, 1),      // 0: inside C
      span("net", "A", 0, 100, 1),        // 1: root
      span("ir", "B", 10, 30, 1),         // 2: child of A
      span("ir", "C", 50, 20, 1),         // 3: child of A, sibling of B
      span("net", "E", 100, 20, 1),       // 4: starts where A ends: a new root
      span("proto", "F", 20, 60, 2),      // 5: other thread, overlaps A in time
      span("ir", "G", 30, 10, 2),         // 6: child of F
      span("net", "P", 200, 10, 1),       // 7: root
      span("crypto", "Q", 205, 6, 1),     // 8: overruns P by 1 us
  };
  const e2e::SpanTree t = e2e::span_tree(ev);
  const std::vector<long> parent = {3, -1, 1, 1, -1, -1, 5, -1, 7};
  const std::vector<std::uint64_t> self = {5, 50, 30, 15, 20, 50, 10, 5, 6};
  check(t.parent == parent, "span parents");
  check(t.self_us == self, "span self times");
  check(e2e::root_of(t, 0) == 1 && e2e::root_of(t, 6) == 5, "span roots");
  std::uint64_t under_a = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (e2e::root_of(t, i) == 1) under_a += t.self_us[i];
  }
  check(under_a == 100, "self times under a root sum to its duration");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// --- --smoke -------------------------------------------------------------------

int smoke() {
  std::size_t failed = 0;
  for (const e2e::WorkloadSpec& spec : e2e::all_workloads()) {
    e2e::RepOptions o;
    o.window_s = 0.3;
    o.warmup_chunks = 1;
    const e2e::Rep r = e2e::run_rep(spec, o);
    std::printf("smoke %-20s %zu queries attempted, %zu failed, p50 %.1f ms\n", spec.name,
                r.attempted, r.failed, r.chunk_ms.empty() ? 0.0 : e2e::median(r.chunk_ms));
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "%s: FAILED %s\n", spec.name, e.c_str());
    }
    failed += r.failed;
  }
  return failed == 0 ? 0 : 1;
}

// --- command line ----------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  [[nodiscard]] bool has(const std::string& k) const { return kv.count(k) > 0; }
  [[nodiscard]] std::string get(const std::string& k, const std::string& dflt) const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  static const char* const kSwitches[] = {"all", "selftest", "smoke", "compare"};
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      a.positional.push_back(s);
      continue;
    }
    s = s.substr(2);
    const std::size_t eq = s.find('=');
    if (eq != std::string::npos) {
      a.kv[s.substr(0, eq)] = s.substr(eq + 1);
      continue;
    }
    bool is_switch = false;
    for (const char* sw : kSwitches) is_switch = is_switch || s == sw;
    if (is_switch || i + 1 >= argc) {
      a.kv[s] = "";
    } else {
      a.kv[s] = argv[++i];
    }
  }
  return a;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir D]\n"
               "       bench_e2e --all --seed N --seconds S [--trace 0|1] [--json PATH]\n"
               "       bench_e2e --compare BASE.json[@i] NEW.json[@i] [--bounds BENCHMARK.json]\n"
               "       bench_e2e --selftest | --smoke\n"
               "workloads:");
  for (const e2e::WorkloadSpec& w : e2e::all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run_main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.has("selftest")) return selftest();
  if (a.has("smoke")) return smoke();
  if (a.has("compare")) {
    if (a.positional.size() != 2) return usage();
    return compare(a.positional[0], a.positional[1], a.get("bounds", "BENCHMARK.json"));
  }
  RunConfig cfg;
  cfg.seed = std::stoull(a.get("seed", "1"));
  cfg.seconds = std::stod(a.get("seconds", "10"));
  cfg.trace = a.get("trace", "0") == "1";
  const std::filesystem::path exe_dir = std::filesystem::path(argv[0]).parent_path();
  cfg.trace_dir = a.get("trace-dir", (exe_dir / "traces").string());
  if (cfg.seconds <= 0) return usage();

  std::vector<const e2e::WorkloadSpec*> specs;
  if (a.has("all")) {
    for (const e2e::WorkloadSpec& w : e2e::all_workloads()) specs.push_back(&w);
  } else if (const e2e::WorkloadSpec* w = e2e::find_workload(a.get("workload", ""))) {
    specs.push_back(w);
  } else {
    return usage();
  }
  const std::vector<WorkloadResult> results = run_workloads(specs, cfg);
  std::size_t failed = 0;
  for (const WorkloadResult& r : results) {
    print_metrics(r);
    failed += r.failed;
  }
  if (a.has("json")) append_run(a.get("json", ""), run_json(cfg, results));
  if (!a.has("all")) {
    const WorkloadResult& r = results.front();
    std::printf("%s\n", result_line(r, cfg.trace ? r.per_layer : r.end_to_end).c_str());
  }
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_ARENA_MAX
  // Both parties share this process.  Two malloc arenas give each party
  // thread one heap, as its own process would have; without the cap every
  // short-lived helper thread (store generators, reference workers, each
  // repetition's party-1 thread) can take a fresh arena, and the memory
  // they retain made peak RSS grow across repetitions and vary by a third
  // between runs.
  mallopt(M_ARENA_MAX, 2);
#endif
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
