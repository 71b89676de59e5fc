// pasnet_dealer — the networked dealer daemon: loads a serialized
// TripleStore (pregenerate one with `party_client --preprocess=N
// --store=...`) and serves atomic bundle claims to party processes over
// TCP.  Each party receives only its own share halves; a client whose
// plan fingerprint does not match the store is refused at hello.  A
// claim past the pregenerated range is the store's typed exhaustion
// error, exactly as it is in process.  Batched parties
// (--batch=K) claim K bundles per chunk; claims are position-addressed,
// so the daemon serves any lane layout without configuration.
//
// Observability: --stats-interval prints a serving line with claim-latency
// percentiles from the tracer's log-bucketed histogram; --log-json turns
// every stats interval and session open/close into one JSON line on
// stdout (machine-tailable); --metrics-port serves live /metrics
// (Prometheus) + /healthz (JSON) from a hardened single-threaded
// responder; --trace exports the serving timeline, correlated with the
// parties' via the trace id each connecting party presents at handshake.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "example_flags.hpp"
#include "net/dealer.hpp"
#include "obs/expose.hpp"
#include "obs/tracer.hpp"

namespace ex = pasnet::examples;
namespace net = pasnet::net;
namespace obs = pasnet::obs;
namespace offline = pasnet::offline;

int main(int argc, char** argv) {
  ex::FlagSet flags(
      "pasnet_dealer — serves TripleStore bundle claims to party processes over TCP");
  flags.define_string("store", "", "serialized TripleStore to serve (required)");
  flags.define_int("port", 7748, "TCP port");
  flags.define_string("bind", "127.0.0.1",
                      "listen address (0.0.0.0 accepts cross-machine parties)");
  flags.define_int("sessions", 2, "client sessions to serve before exiting (a two-party run is 2)");
  flags.define_int("timeout-ms", 30000, "socket accept/io timeout");
  flags.define_int("stats-interval", 0,
                   "print a serving stats line (claims, bytes, open sessions, claim "
                   "latency p50/p95/p99/max) every S seconds (0 = off)");
  flags.define_switch("log-json",
                      "emit the stats intervals and session open/close events as JSON "
                      "lines instead of the human stats line");
  flags.define_string("trace", "",
                      "write the daemon's serving timeline (Chrome trace event JSON, "
                      "loads in Perfetto) to this path");
  flags.define_int("metrics-port", 0,
                   "serve live /metrics (Prometheus text) and /healthz (JSON) on this "
                   "port while the daemon runs (0 = off)");
  flags.define_string("metrics-bind", "127.0.0.1",
                      "metrics listen address (loopback by default: the endpoints expose "
                      "unauthenticated operational metadata)");
  flags.define_int("metrics-linger-ms", 0,
                   "keep the metrics endpoints up this long after serving finishes "
                   "(lets an external scraper collect the final totals)");
  flags.parse(argc, argv);

  const std::string path = flags.get_string("store");
  if (path.empty()) {
    std::fprintf(stderr, "pasnet_dealer: --store is required\n");
    return 2;
  }
  offline::TripleStore store;
  try {
    store = offline::TripleStore::load(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pasnet_dealer: cannot load %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  net::TransportOptions topts;
  topts.connect_timeout = std::chrono::milliseconds(flags.get_int("timeout-ms"));
  topts.io_timeout = std::chrono::milliseconds(flags.get_int("timeout-ms"));

  const std::uint64_t queries = store.num_queries();
  const std::uint64_t fingerprint = store.plan_fingerprint();
  net::DealerServer server(std::move(store));

  // Claim-latency percentiles come from the tracer's histogram, so the
  // tracer is live whenever any observability surface is on.
  const std::string trace_path = flags.get_string("trace");
  const long long stats_interval = std::max(0LL, flags.get_int("stats-interval"));
  const bool log_json = flags.get_switch("log-json");
  const long long metrics_port = flags.get_int("metrics-port");
  const bool metrics = metrics_port != 0;
  obs::Tracer tracer(!trace_path.empty() || stats_interval > 0 || log_json || metrics);
  if (tracer.enabled()) server.set_tracer(&tracer);

  // Session lifecycle: counts for /healthz, JSON event lines for
  // --log-json.  The hook runs on the accept loop and session threads;
  // each printf is one buffered call, so lines stay whole.
  std::atomic<std::uint64_t> sessions_opened{0};
  server.set_session_hook([&sessions_opened, log_json](const char* event, int party) {
    if (std::strcmp(event, "session_open") == 0) {
      sessions_opened.fetch_add(1, std::memory_order_relaxed);
    }
    if (log_json) {
      std::printf("{\"event\": \"%s\", \"party\": %d, \"ts_us\": %llu}\n", event, party,
                  static_cast<unsigned long long>(obs::Tracer::now_us()));
      std::fflush(stdout);
    }
  });

  std::unique_ptr<obs::ExpositionServer> metrics_server;
  if (metrics) {
    obs::ExpositionServer::Options mopts;
    mopts.bind_addr = flags.get_string("metrics-bind");
    mopts.port = static_cast<std::uint16_t>(metrics_port);
    mopts.job = "dealer";
    mopts.instance = "dealer";
    try {
      metrics_server = std::make_unique<obs::ExpositionServer>(
          tracer, mopts, [&server, &sessions_opened, queries] {
            obs::HealthFields hf;
            const net::DealerStats s = server.stats_snapshot();
            hf.sessions_served = sessions_opened.load(std::memory_order_relaxed);
            hf.witness = -1;  // the witness invariant is checked party-side
            hf.store_total = 2 * queries;  // each party claims each bundle once
            hf.store_claimed = s.claims;
            return hf;
          });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pasnet_dealer: cannot bind metrics endpoint: %s\n", e.what());
      return 2;
    }
    metrics_server->start();
    std::printf("pasnet_dealer: serving /metrics and /healthz on %s:%u\n",
                mopts.bind_addr.c_str(), metrics_server->port());
    std::fflush(stdout);
  }

  // serve() blocks the main thread; a detached printer polls the server's
  // stats snapshot on the chosen cadence until serving finishes.
  std::atomic<bool> serving{true};
  std::thread printer;
  if (stats_interval > 0) {
    printer = std::thread([&] {
      while (serving.load(std::memory_order_relaxed)) {
        for (long long tick = 0; tick < 10 * stats_interval; ++tick) {
          if (!serving.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        const net::DealerStats s = server.stats_snapshot();
        const obs::Histogram h = tracer.histogram(obs::Sample::dealer_claim_us);
        if (log_json) {
          std::printf(
              "{\"event\": \"stats\", \"ts_us\": %llu, \"claims\": %llu, "
              "\"bundle_bytes\": %llu, \"open_sessions\": %d, \"claim_us\": "
              "{\"count\": %llu, \"p50\": %llu, \"p95\": %llu, \"p99\": %llu, "
              "\"max\": %llu}}\n",
              static_cast<unsigned long long>(obs::Tracer::now_us()),
              static_cast<unsigned long long>(s.claims),
              static_cast<unsigned long long>(s.bundle_bytes), s.open_sessions,
              static_cast<unsigned long long>(h.count()),
              static_cast<unsigned long long>(h.percentile(0.5)),
              static_cast<unsigned long long>(h.percentile(0.95)),
              static_cast<unsigned long long>(h.percentile(0.99)),
              static_cast<unsigned long long>(h.max()));
        } else {
          std::printf("pasnet_dealer: %llu claims served, %llu bundle bytes, %d open "
                      "sessions, claim latency p50 %llu / p95 %llu / p99 %llu / max "
                      "%llu us\n",
                      static_cast<unsigned long long>(s.claims),
                      static_cast<unsigned long long>(s.bundle_bytes), s.open_sessions,
                      static_cast<unsigned long long>(h.percentile(0.5)),
                      static_cast<unsigned long long>(h.percentile(0.95)),
                      static_cast<unsigned long long>(h.percentile(0.99)),
                      static_cast<unsigned long long>(h.max()));
        }
        std::fflush(stdout);
      }
    });
  }
  const auto stop_printer = [&] {
    serving.store(false, std::memory_order_relaxed);
    if (printer.joinable()) printer.join();
  };

  try {
    net::Listener listener(static_cast<std::uint16_t>(flags.get_int("port")),
                           flags.get_string("bind"));
    std::printf("pasnet_dealer: serving %llu queries [fingerprint %016llx] on %s:%u for %lld "
                "sessions\n",
                static_cast<unsigned long long>(queries),
                static_cast<unsigned long long>(fingerprint), flags.get_string("bind").c_str(),
                listener.port(), flags.get_int("sessions"));
    std::fflush(stdout);
    server.serve(listener, static_cast<int>(flags.get_int("sessions")), topts);
  } catch (const std::exception& e) {
    stop_printer();
    std::fprintf(stderr, "pasnet_dealer: %s\n", e.what());
    return 1;
  }
  stop_printer();
  if (!trace_path.empty()) {
    // pid 2: the lane after the two parties in a merged timeline.
    tracer.write_chrome_trace_file(trace_path, /*pid=*/2, "dealer");
    std::printf("pasnet_dealer: wrote %zu trace spans to %s\n", tracer.event_count(),
                trace_path.c_str());
  }
  if (metrics_server) {
    const long long linger = flags.get_int("metrics-linger-ms");
    std::fflush(stdout);
    if (linger > 0) std::this_thread::sleep_for(std::chrono::milliseconds(linger));
    metrics_server->stop();
  }
  std::printf("pasnet_dealer: done (%llu bundles served)\n",
              static_cast<unsigned long long>(server.bundles_served()));
  return 0;
}
