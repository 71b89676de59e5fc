#pragma once
// Workload definitions and the repetition runner of the end-to-end 2PC
// serving benchmark (bench_e2e).  A repetition sets the model up, opens
// the serving path, runs untimed warm-up chunks, then a timed closed loop
// (the next chunk is submitted only after the previous one revealed), and
// finally checks every chunk's outputs and traffic against an in-process
// reference and the analytic cost model.

#include <cstdint>
#include <string>
#include <vector>

#include "net/party_session.hpp"
#include "nn/models.hpp"
#include "obs/tracer.hpp"

namespace pasnet::e2e {

/// How a workload's chunks reach the two parties.
enum class Path {
  tcp,  ///< both parties in this process, on two threads, over loopback TCP
  wan,  ///< in-process threaded pair with a modeled per-round wire delay
};

struct WorkloadSpec {
  const char* name;
  nn::ModelDescriptor (*model)();
  int batch;                     ///< lanes per chunk (K)
  Path path;
  net::TripleSourceKind source;  ///< where the chunk's triples come from
  /// Serve with every thread on one CPU.  For a protocol whose parties
  /// take turns, so that a hand-off to the peer is a context switch, not
  /// the wake-up of an idle virtual CPU, whose cost swings with the load
  /// on the host.
  bool one_cpu;
};

[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct RepOptions {
  std::uint64_t seed = 1;   ///< query-input seed
  int rep = 0;              ///< repetition index (selects the input stream)
  double window_s = 1.0;    ///< timed closed-loop window
  int warmup_chunks = 3;
  bool traced = false;      ///< attach tracers for the timed window
  std::string trace_dir;    ///< where traced repetitions write Chrome traces
};

/// Everything one repetition measured.
struct Rep {
  // Set-up: compile, plan, first store fill, connect + verify_plan.
  double setup_s = 0;
  double compile_ms = 0;  ///< SecureNetwork construction
  double plan_ms = 0;     ///< Workload construction (plan derivation)
  // Timed window.
  std::vector<double> chunk_ms;   ///< submit-to-reveal latency per timed chunk
  std::size_t queries = 0;        ///< timed queries (chunks x K)
  double window_s = 0;            ///< timed wall time (store refills excluded)
  double cpu_s = 0;               ///< process CPU time over the window
  std::uint64_t wire_bytes = 0;   ///< online metered bytes, timed chunks
  std::uint64_t rounds = 0;       ///< online metered rounds, timed chunks
  std::size_t store_claims = 0;   ///< store bundles claimed by party 0, timed chunks
  // Correctness over every chunk run (warm-up included).
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failure, for the log
  // Traced repetitions: party 0's view of the timed window.
  obs::CounterSnapshot counters;
  std::vector<obs::TraceEvent> events;
};

/// Runs one repetition of `spec`.  Never throws for a protocol failure: a
/// chunk that throws or mismatches is counted in `failed` and ends the
/// repetition.
[[nodiscard]] Rep run_rep(const WorkloadSpec& spec, const RepOptions& opts);

/// Seconds one set-up of `spec` takes (Rep::setup_s without serving).
[[nodiscard]] double setup_seconds(const WorkloadSpec& spec);

/// Per-layer figures timed by calling each layer's public functions
/// directly, outside any serving loop, with tracing off.
struct LayerTimings {
  double connect_ms = 0;          ///< net: dial + accept + verify_plan
  double preprocess_ms_per_query = 0;
  double store_bytes_per_query = 0;
  double inproc_chunk_ms = 0;     ///< ir: in-process lockstep chunk, no delay
  double ot_dh_us_per_ot = 0;
  double gemm_melems_per_s = 0;
};

/// `ot_batch` is the workload's per-flush OT batch size (0 when it runs no
/// OTs; a fixed stand-in size is timed then).
[[nodiscard]] LayerTimings time_layers(const WorkloadSpec& spec, std::size_t ot_batch);

}  // namespace pasnet::e2e
