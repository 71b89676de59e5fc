#include "e2e_run.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "crypto/ot.hpp"
#include "crypto/ring_kernels.hpp"
#include "e2e_stats.hpp"
#include "offline/offline_generator.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace pasnet::e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// The trained fixture's weights are fixed; the benchmark seed only
/// drives the query inputs.
constexpr std::uint64_t kModelSeed = 300;
/// Per-round wire delay of the wan workload: the base latency of
/// perf::NetworkConfig::wan_100mbps.
constexpr std::chrono::microseconds kWanRoundDelay{2000};
/// The store workload's material is generated in segments of this many
/// chunks, between chunks and outside the timed window: a whole window's
/// worth (~0.2 GB/s of serving per party) would not fit in memory.
constexpr std::size_t kStoreSegmentChunks = 4;
/// Store index space (positions), far beyond what one window serves.
constexpr std::size_t kStoreCapacity = std::size_t{1} << 15;
/// Thread budgets that keep the process at <= 4 threads: store fills run
/// while the party-1 thread waits, references after it has exited.
constexpr int kGeneratorThreads = 2;
constexpr int kReferenceWorkers = 3;
/// Stand-in OT batch for workloads that run no OTs of their own.
constexpr std::size_t kDefaultOtBatch = 4096;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

nn::ModelDescriptor relu_resnet() {
  return testing::proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool);
}
nn::ModelDescriptor poly_resnet() {
  return testing::proxy_resnet(nn::ActKind::x2act, nn::PoolKind::avgpool);
}
nn::ModelDescriptor mobilenet() { return testing::proxy_mobilenet(); }

proto::SecureConfig serving_config() {
  proto::SecureConfig cfg;
  cfg.ot_mode = crypto::OtMode::dh_masked;
  return cfg;
}

net::TransportOptions transport_options() {
  net::TransportOptions o;
  o.connect_timeout = std::chrono::milliseconds(5000);
  o.io_timeout = std::chrono::milliseconds(20000);
  return o;
}

/// One set-up of a workload's model: the trained fixture, compiled and
/// planned — what each party process does at start.
struct Model {
  explicit Model(const WorkloadSpec& spec) : md(spec.model()) {
    crypto::Prng wprng(kModelSeed);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    testing::warm_up(*graph, md.input_ch, md.input_h, kModelSeed + 1);
    const bool wan = spec.path == Path::wan;
    ctx = std::make_unique<crypto::TwoPartyContext>(
        crypto::RingConfig{}, 42, wan ? crypto::ExecMode::threaded : crypto::ExecMode::lockstep,
        wan ? kWanRoundDelay : std::chrono::microseconds{0});
    const auto t0 = Clock::now();
    net = std::make_unique<proto::SecureNetwork>(md, *graph, node_of_layer, *ctx,
                                                 serving_config());
    const auto t1 = Clock::now();
    proto::WorkloadOptions wo;
    wo.batch = spec.batch;
    workload = std::make_unique<proto::Workload>(*net, wo);
    compile_ms = ms_between(t0, t1);
    plan_ms = ms_between(t1, Clock::now());
  }

  /// The same weights compiled on a lockstep, zero-delay context with OT
  /// mode `mode` (the serving network itself when it is exactly that).
  proto::SecureNetwork& inproc_net(crypto::OtMode mode) {
    if (mode == crypto::OtMode::dh_masked && ctx->mode() == crypto::ExecMode::lockstep &&
        ctx->round_delay().count() == 0) {
      return *net;
    }
    Compiled& c = inproc[static_cast<int>(mode)];
    if (!c.net) {
      proto::SecureConfig cfg = serving_config();
      cfg.ot_mode = mode;
      c.ctx = std::make_unique<crypto::TwoPartyContext>();
      c.net = std::make_unique<proto::SecureNetwork>(md, *graph, node_of_layer, *c.ctx, cfg);
    }
    return *c.net;
  }

  struct Compiled {
    std::unique_ptr<crypto::TwoPartyContext> ctx;
    std::unique_ptr<proto::SecureNetwork> net;
  };

  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
  std::unique_ptr<crypto::TwoPartyContext> ctx;
  std::unique_ptr<proto::SecureNetwork> net;
  std::unique_ptr<proto::Workload> workload;
  Compiled inproc[2];  // indexed by crypto::OtMode
  double compile_ms = 0, plan_ms = 0;
};

/// Query inputs of one repetition, drawn from the benchmark seed.
class InputStream {
 public:
  InputStream(const nn::ModelDescriptor& md, std::uint64_t seed, int rep)
      : md_(md), prng_(crypto::splitmix64(seed) + static_cast<std::uint64_t>(rep)) {}

  std::vector<nn::Tensor> next(std::size_t k) {
    std::vector<nn::Tensor> v;
    v.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      v.push_back(nn::Tensor::randn({1, md_.input_ch, md_.input_h, md_.input_w}, prng_, 0.5f));
    }
    return v;
  }

 private:
  const nn::ModelDescriptor& md_;
  crypto::Prng prng_;
};

/// Both parties' TripleStores for the store workload, filled segment by
/// segment at their canonical stream positions, so store-served outputs
/// stay bit-identical to the dealer path at the same positions.
class StoreFeed {
 public:
  StoreFeed(const offline::PreprocessingPlan& plan, std::size_t lanes)
      : plan_(plan), segment_(kStoreSegmentChunks * lanes) {
    for (auto& s : stores_) s = offline::TripleStore(plan.ring, plan.fingerprint(), kStoreCapacity);
  }

  offline::TripleStore& store(int party) { return stores_[party]; }

  /// Generates segments until positions [0, upto) hold material.  False
  /// when the index space is exhausted first.
  bool ensure(std::size_t upto) {
    while (filled_ < upto && filled_ < kStoreCapacity) {
      const std::size_t base = filled_;
      const std::size_t n = std::min(segment_, kStoreCapacity - base);
      offline::TripleStore seg = offline::OfflineGenerator(kGeneratorThreads)
                                     .generate(plan_, n, [base](std::size_t q) {
                                       return proto::SecureNetwork::query_dealer_seed(base + q);
                                     });
      for (std::size_t q = 0; q < n; ++q) {
        stores_[1].bundle(base + q) = seg.bundle(q);
        stores_[0].bundle(base + q) = std::move(seg.bundle(q));
      }
      filled_ += n;
    }
    return filled_ >= upto;
  }

  [[nodiscard]] std::size_t filled() const noexcept { return filled_; }

 private:
  const offline::PreprocessingPlan& plan_;
  std::size_t segment_;
  std::size_t filled_ = 0;
  offline::TripleStore stores_[2];
};

/// Outcome of one chunk on either path.
struct ChunkOut {
  std::vector<nn::Tensor> logits0;  ///< revealed to party 0 (the client)
  std::vector<nn::Tensor> logits1;  ///< revealed to party 1 (tcp only)
  std::uint64_t bytes = 0, rounds = 0;
  double ms = 0;                    ///< submit to reveal at party 0
};

/// Both parties of a two-process deployment in this process: party 1
/// serves on its own thread, party 0 drives from the caller's.  The same
/// serve/dial/verify_plan/run_batch calls party_server and party_client
/// make.  Party 1 learns each chunk's position and lane count from the
/// benchmark loop (the party binaries agree on them through flags).
class TcpPair {
 public:
  TcpPair(Model& m, const net::RemoteSessionOptions& opts0,
          const net::RemoteSessionOptions& opts1)
      : m_(m), opts0_(opts0), opts1_(opts1), listener_(0) {
    const auto t0 = Clock::now();
    party1_ = std::thread([this] { serve(); });
    try {
      chan0_ = net::dial_party_channel("127.0.0.1", listener_.port(), 0, transport_options());
      session0_ = std::make_unique<net::PartySession>(0, *chan0_, crypto::RingConfig{});
      session0_->verify_plan(m_.workload->plan());
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return ready_ || !alive_; });
      if (!ready_) std::rethrow_exception(err1_);
    } catch (...) {
      shutdown();
      throw;
    }
    connect_ms_ = ms_between(t0, Clock::now());
  }
  ~TcpPair() { shutdown(); }
  TcpPair(const TcpPair&) = delete;
  TcpPair& operator=(const TcpPair&) = delete;

  [[nodiscard]] double connect_ms() const noexcept { return connect_ms_; }

  /// Runs one chunk at stream position q on both parties.  Throws the
  /// first party's failure (the pair is unusable afterwards).
  ChunkOut run(std::size_t q, const std::vector<nn::Tensor>& inputs, obs::Tracer* t0,
               obs::Tracer* t1) {
    ChunkOut out;
    if (t0 != nullptr) {
      t0->set_trace_id(chan0_->session_trace_id());
      t0->set_clock_offset_us(chan0_->session_clock_offset_us());
    }
    session0_->set_tracer(t0);
    const auto submit = Clock::now();
    {
      std::lock_guard<std::mutex> lk(mu_);
      cmd_ = Cmd::run;
      q_ = q;
      lanes_ = inputs.size();
      tracer1_ = t1;
      done_ = false;
    }
    cv_.notify_all();
    crypto::TrafficStats online;
    try {
      ir::BatchExecResult r = session0_->run_batch(m_.workload->program(), m_.net->params(), q,
                                                   &inputs, inputs.size(), opts0_, &online);
      out.logits0 = std::move(r.logits);
    } catch (...) {
      // Hang up first so a party 1 blocked mid-chunk unwinds now rather
      // than at its io timeout; its failure, if any, is the root cause.
      shutdown();
      std::lock_guard<std::mutex> lk(mu_);
      if (err1_) std::rethrow_exception(err1_);
      throw;
    }
    out.ms = ms_between(submit, Clock::now());
    out.bytes = online.total_bytes();
    out.rounds = online.rounds;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_ || !alive_; });
    if (!done_) std::rethrow_exception(err1_);
    out.logits1 = std::move(result1_);
    return out;
  }

 private:
  enum class Cmd { idle, run, stop };

  void serve() {
    std::unique_ptr<net::TransportChannel> chan;
    std::unique_ptr<net::PartySession> session;
    try {
      chan = net::serve_party_channel(listener_, 1, transport_options());
      session = std::make_unique<net::PartySession>(1, *chan, crypto::RingConfig{});
      session->verify_plan(m_.workload->plan());
      {
        std::lock_guard<std::mutex> lk(mu_);
        ready_ = true;
      }
      cv_.notify_all();
      for (;;) {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return cmd_ != Cmd::idle; });
        if (cmd_ == Cmd::stop) break;
        const std::size_t q = q_, lanes = lanes_;
        obs::Tracer* const tracer = tracer1_;
        lk.unlock();
        if (tracer != nullptr) {
          tracer->set_trace_id(chan->session_trace_id());
          tracer->set_clock_offset_us(chan->session_clock_offset_us());
        }
        session->set_tracer(tracer);
        ir::BatchExecResult r = session->run_batch(m_.workload->program(), m_.net->params(), q,
                                                   nullptr, lanes, opts1_);
        lk.lock();
        result1_ = std::move(r.logits);
        if (cmd_ == Cmd::run) cmd_ = Cmd::idle;  // a concurrent stop must survive
        done_ = true;
        lk.unlock();
        cv_.notify_all();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      err1_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      alive_ = false;
    }
    cv_.notify_all();
  }

  /// Closes party 0's end (unblocking party 1 wherever it waits), stops
  /// and joins the party-1 thread.  Idempotent.
  void shutdown() {
    session0_.reset();
    chan0_.reset();
    {
      std::lock_guard<std::mutex> lk(mu_);
      cmd_ = Cmd::stop;
    }
    cv_.notify_all();
    if (party1_.joinable()) party1_.join();
  }

  Model& m_;
  net::RemoteSessionOptions opts0_, opts1_;
  net::Listener listener_;
  std::unique_ptr<net::TransportChannel> chan0_;
  std::unique_ptr<net::PartySession> session0_;
  double connect_ms_ = 0;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  Cmd cmd_ = Cmd::idle;
  std::size_t q_ = 0, lanes_ = 0;
  obs::Tracer* tracer1_ = nullptr;
  bool ready_ = false, done_ = false, alive_ = true;
  std::vector<nn::Tensor> result1_;
  std::exception_ptr err1_;

  std::thread party1_;  // last: joins before the members it uses go
};

/// Per-party serving options of a TCP workload.
net::RemoteSessionOptions session_options(const WorkloadSpec& spec, StoreFeed* feed,
                                          int party) {
  net::RemoteSessionOptions o;
  o.cfg = serving_config();
  o.source = spec.source;
  if (spec.source == net::TripleSourceKind::store) o.store = &feed->store(party);
  return o;
}

/// What a party process does before serving its first query: compile,
/// plan, fill the first store segment, connect and verify the plan.  Times
/// itself.  Building and training the fixture model stands in for loading
/// a model file and is not timed.
struct Setup {
  explicit Setup(const WorkloadSpec& spec) : m(spec) {
    const auto begin = Clock::now();
    if (spec.source == net::TripleSourceKind::store) {
      feed.emplace(m.workload->plan(), static_cast<std::size_t>(spec.batch));
      feed->ensure(1);
    }
    if (spec.path == Path::tcp) {
      pair = std::make_unique<TcpPair>(m, session_options(spec, feed ? &*feed : nullptr, 0),
                                       session_options(spec, feed ? &*feed : nullptr, 1));
    }
    seconds = (m.compile_ms + m.plan_ms + ms_between(begin, Clock::now())) / 1000.0;
  }

  Model m;
  std::optional<StoreFeed> feed;
  std::unique_ptr<TcpPair> pair;
  double seconds = 0;
};

/// One in-process chunk through the workload's own Workload::run.
ChunkOut run_inproc_chunk(proto::Workload& w, const std::vector<nn::Tensor>& inputs) {
  ChunkOut out;
  const auto submit = Clock::now();
  proto::WorkloadResult r = w.run(inputs);
  out.ms = ms_between(submit, Clock::now());
  out.logits0 = std::move(r.logits);
  const proto::InferenceStats& s = w.stats();
  out.bytes = s.comm_bytes;
  out.rounds = s.rounds;
  return out;
}

bool same_logits(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// Pins the calling thread, and so every thread it starts meanwhile, to
/// the CPU it is running on (when `on`); release() or the destructor
/// restores the thread's CPU set.
class CpuPin {
 public:
  explicit CpuPin(bool on) {
    if (!on) return;
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    const int cpu = sched_getcpu();
    cpu_set_t one;
    CPU_ZERO(&one);
    if (cpu >= 0) CPU_SET(cpu, &one);
    if (cpu < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("cannot pin the benchmark to one CPU");
    }
    pinned_ = true;
  }
  ~CpuPin() { release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  void release() noexcept {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
    pinned_ = false;
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

void write_trace(const obs::Tracer& t, const std::string& dir, const std::string& file, int pid,
                 const char* process) {
  std::filesystem::create_directories(dir);
  t.write_chrome_trace_file(dir + "/" + file, pid, process);
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The parties take turns through the OT dances of every comparison.
      {"relu-k1-tcp", relu_resnet, 1, Path::tcp, net::TripleSourceKind::fused, true},
      // Both parties compute each Beaver layer at once.
      {"poly-k16-tcp-store", poly_resnet, 16, Path::tcp, net::TripleSourceKind::store, false},
      // Mostly the modeled wire wait.
      {"mobilenet-k1-wan", mobilenet, 1, Path::wan, net::TripleSourceKind::fused, false},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Rep run_rep(const WorkloadSpec& spec, const RepOptions& opts) {
  Rep rep;
  const auto lanes = static_cast<std::size_t>(spec.batch);
  const bool tcp = spec.path == Path::tcp;

  // Declared before the set-up, so they outlive every session they attach to.
  obs::Tracer tracer0(opts.traced), tracer1(opts.traced);
  CpuPin pin(spec.one_cpu);
  Setup setup(spec);
  Model& m = setup.m;
  std::optional<StoreFeed>& feed = setup.feed;
  std::unique_ptr<TcpPair>& pair = setup.pair;
  rep.setup_s = setup.seconds;
  rep.compile_ms = m.compile_ms;
  rep.plan_ms = m.plan_ms;

  // --- the analytic witnesses every chunk must meet exactly ------------------
  const crypto::RingConfig rc{};
  const perf::LatencyModel lat(perf::HardwareConfig::zcu104(), perf::NetworkConfig::lan_1gbps());
  const perf::ProgramCost cost =
      perf::profile_program(lat, m.workload->program(), rc.bits, rc.wire_bits, spec.batch);

  InputStream stream(m.md, opts.seed, opts.rep);
  std::vector<nn::Tensor> all_inputs;       // stream-position order
  std::vector<nn::Tensor> got0, got1;       // per query
  std::size_t position = 0;
  bool ok = true;

  const auto fail = [&](std::size_t queries, std::string why) {
    rep.failed += queries;
    rep.errors.push_back(std::move(why));
    ok = false;
  };
  // Runs one chunk and checks its traffic; the outputs are checked
  // against the reference after the loop.  Returns the chunk, or nullopt
  // when it failed.
  const auto chunk = [&](bool traced) -> std::optional<ChunkOut> {
    std::vector<nn::Tensor> inputs = stream.next(lanes);
    rep.attempted += lanes;
    std::optional<ChunkOut> c;
    try {
      c = tcp ? pair->run(position, inputs, traced ? &tracer0 : nullptr,
                          traced ? &tracer1 : nullptr)
              : run_inproc_chunk(*m.workload, inputs);
    } catch (const std::exception& e) {
      fail(lanes, "chunk at position " + std::to_string(position) + ": " + e.what());
      return std::nullopt;
    }
    if (c->logits0.size() != lanes || (tcp && c->logits1.size() != lanes)) {
      fail(lanes, "chunk at position " + std::to_string(position) + ": lane count");
      return std::nullopt;
    }
    if (c->rounds != static_cast<std::uint64_t>(cost.total.rounds) ||
        c->bytes != cost.wire_bytes) {
      fail(lanes, "chunk at position " + std::to_string(position) + ": " +
                      std::to_string(c->rounds) + " rounds / " + std::to_string(c->bytes) +
                      " B, analytic " + std::to_string(cost.total.rounds) + " / " +
                      std::to_string(cost.wire_bytes));
      return std::nullopt;
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      all_inputs.push_back(std::move(inputs[j]));
      got0.push_back(std::move(c->logits0[j]));
      if (tcp) got1.push_back(std::move(c->logits1[j]));
    }
    position += lanes;
    return c;
  };

  // --- untimed warm-up, then the timed closed loop ---------------------------
  for (int w = 0; ok && w < opts.warmup_chunks; ++w) {
    if (feed && !feed->ensure(position + lanes)) break;
    (void)chunk(false);
  }
  if (opts.traced && !tcp) m.workload->set_tracer(&tracer0);
  const std::size_t claims_before = feed ? feed->store(0).remaining_queries() : 0;
  double paused_s = 0, paused_cpu_s = 0;
  const auto window_begin = Clock::now();
  const double cpu_begin = process_cpu_s();
  const auto elapsed_s = [&] { return ms_between(window_begin, Clock::now()) / 1000.0 - paused_s; };
  while (ok && (rep.chunk_ms.empty() || elapsed_s() < opts.window_s)) {
    if (feed && feed->filled() < position + lanes) {
      const auto p0 = Clock::now();
      const double c0 = process_cpu_s();
      const bool more = feed->ensure(position + lanes);
      paused_s += ms_between(p0, Clock::now()) / 1000.0;
      paused_cpu_s += process_cpu_s() - c0;
      if (!more) break;
    }
    const std::optional<ChunkOut> c = chunk(opts.traced);
    if (!c) break;
    rep.chunk_ms.push_back(c->ms);
    rep.queries += lanes;
    rep.wire_bytes += c->bytes;
    rep.rounds += c->rounds;
  }
  rep.window_s = elapsed_s();
  rep.cpu_s = process_cpu_s() - cpu_begin - paused_cpu_s;
  if (feed) rep.store_claims = claims_before - feed->store(0).remaining_queries();
  if (opts.traced) {
    m.workload->set_tracer(nullptr);
    rep.counters = tracer0.snapshot();
    rep.events = tracer0.events();
    if (!opts.trace_dir.empty()) {
      if (tcp) {
        write_trace(tracer0, opts.trace_dir, std::string(spec.name) + ".party0.json", 0, "party0");
        write_trace(tracer1, opts.trace_dir, std::string(spec.name) + ".party1.json", 1, "party1");
      } else {
        write_trace(tracer0, opts.trace_dir, std::string(spec.name) + ".json", 0, "inproc");
      }
    }
  }
  pair.reset();  // party 1's thread ends before the reference workers start
  pin.release();

  // --- correctness: every chunk against the in-process reference -----------
  // The reference runs the ideal OT: the masked-DH dance draws only from
  // the role streams, which no share depends on, so both modes reveal the
  // same bits, and the ideal one is ~13x cheaper on the ReLU workload.
  proto::WorkloadOptions ro;
  ro.batch = spec.batch;
  ro.worker_pairs = kReferenceWorkers;
  proto::Workload reference(m.inproc_net(crypto::OtMode::correlated), ro);
  const proto::WorkloadResult expect = reference.run(all_inputs);
  for (std::size_t q = 0; q < got0.size(); ++q) {
    if (!same_logits(got0[q], expect.logits[q])) {
      fail(1, "query " + std::to_string(q) + ": output differs from the in-process reference");
    } else if (tcp && !same_logits(got1[q], got0[q])) {
      fail(1, "query " + std::to_string(q) + ": the parties revealed different outputs");
    }
  }
  return rep;
}

double setup_seconds(const WorkloadSpec& spec) {
  const CpuPin pin(spec.one_cpu);
  return Setup(spec).seconds;
}

LayerTimings time_layers(const WorkloadSpec& spec, std::size_t ot_batch) {
  LayerTimings lt;
  Model m(spec);
  const offline::PreprocessingPlan& plan = m.workload->plan();
  const auto lanes = static_cast<std::size_t>(spec.batch);
  // Repeats f until `budget_s` has passed (at least `min_iters` times);
  // returns seconds per call.
  const auto per_call_s = [](double budget_s, int min_iters, const auto& f) {
    const auto t0 = Clock::now();
    int iters = 0;
    double s = 0;
    do {
      f();
      ++iters;
      s = ms_between(t0, Clock::now()) / 1000.0;
    } while (iters < min_iters || s < budget_s);
    return s / iters;
  };

  // net: a fresh loopback party channel, handshake and plan check.
  std::vector<double> connects;
  for (int i = 0; i < 3; ++i) {
    net::RemoteSessionOptions o;
    o.cfg = serving_config();
    connects.push_back(TcpPair(m, o, o).connect_ms());
  }
  lt.connect_ms = median(connects);

  // offline: the generator the store workload fills its stores with.
  const std::size_t pre_n = std::max<std::size_t>(lanes, 8);
  const auto pre_begin = Clock::now();
  const offline::TripleStore pre = offline::OfflineGenerator(kGeneratorThreads)
                                       .generate(plan, pre_n, [](std::size_t q) {
                                         return proto::SecureNetwork::query_dealer_seed(q);
                                       });
  lt.preprocess_ms_per_query = ms_between(pre_begin, Clock::now()) / static_cast<double>(pre_n);
  lt.store_bytes_per_query =
      static_cast<double>(pre.material_bytes()) / static_cast<double>(pre_n);

  // ir: the same chunk in process (lockstep, no delay, same OT mode and,
  // for the store workload, store-served).
  {
    constexpr int kChunks = 5;
    proto::WorkloadOptions wo;
    wo.batch = spec.batch;
    proto::Workload w(m.inproc_net(crypto::OtMode::dh_masked), wo);
    offline::TripleStore store;
    if (spec.source == net::TripleSourceKind::store) {
      store = w.preprocess(kChunks * lanes, kGeneratorThreads);
      w.use_store(&store);
    }
    InputStream stream(m.md, 0, 0);
    std::vector<double> ms;
    for (int c = 0; c < kChunks; ++c) ms.push_back(run_inproc_chunk(w, stream.next(lanes)).ms);
    lt.inproc_chunk_ms = median(ms);
  }

  // crypto: one masked-DH (1,4)-OT batch at the workload's flush size.
  {
    const std::size_t n = ot_batch > 0 ? ot_batch : kDefaultOtBatch;
    crypto::TwoPartyContext ctx;
    crypto::Prng prng(11);
    std::vector<std::array<std::uint8_t, crypto::kOtFanIn>> tables(n);
    std::vector<std::uint8_t> choices(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& b : tables[i]) b = static_cast<std::uint8_t>(prng.next_u64());
      choices[i] = static_cast<std::uint8_t>(prng.next_below(crypto::kOtFanIn));
    }
    const double s = per_call_s(0.2, 3, [&] {
      (void)crypto::ot_1of4(ctx, 0, tables, choices, crypto::OtMode::dh_masked);
    });
    lt.ot_dh_us_per_ot = 1e6 * s / static_cast<double>(n);
  }

  // crypto: the ring GEMM at the program's largest convolution shape.
  {
    std::size_t gm = 1, gk = 1, gn = 1;
    for (const ir::Op& op : m.workload->program().ops) {
      if (op.kind != ir::OpKind::conv) continue;
      const auto m_dim = static_cast<std::size_t>(op.out_ch);
      const auto k_dim = static_cast<std::size_t>(op.in_ch * op.kernel * op.kernel);
      const auto n_dim = static_cast<std::size_t>(op.out_h * op.out_w);
      if (m_dim * k_dim * n_dim > gm * gk * gn) {
        std::tie(gm, gk, gn) = std::make_tuple(m_dim, k_dim, n_dim);
      }
    }
    crypto::Prng prng(12);
    std::vector<std::uint64_t> a(gm * gk), b(gk * gn), out(gm * gn);
    for (auto& x : a) x = prng.next_u64();
    for (auto& x : b) x = prng.next_u64();
    const double s = per_call_s(0.2, 3, [&] {
      crypto::kern::gemm_acc(out.data(), a.data(), b.data(), gm, gk, gn);
    });
    lt.gemm_melems_per_s = static_cast<double>(gm * gn) / s / 1e6;
  }
  return lt;
}

}  // namespace pasnet::e2e
