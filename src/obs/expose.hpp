#pragma once
// Live exposition endpoints: a tiny single-threaded HTTP/1.0 responder
// (built on net::Socket/Listener — no external dependency) that serves a
// Tracer's counters and latency histograms while the process runs:
//
//   GET /metrics   Prometheus text format (version 0.0.4): every
//                  obs::Counter as `pasnet_<name>_total`, every
//                  obs::Sample histogram as `pasnet_<name>` with
//                  cumulative `_bucket{le=...}` series (non-empty buckets
//                  + +Inf), `_sum` and `_count`, plus health gauges —
//                  all labeled {job=...,instance=...}.
//   GET /healthz   JSON: status, uptime, sessions served, last witness
//                  verdict, store/triple depletion, run trace id.
//
// The responder is deliberately minimal and hostile-input hardened:
//  - single serving thread, bounded request size (an oversized request
//    line gets 400 and a close, it never accumulates),
//  - a per-connection deadline (a slow-loris client that dribbles bytes is
//    cut off at request_timeout and the thread moves on — it cannot wedge
//    the endpoint),
//  - binds to 127.0.0.1 by default: these endpoints expose operational
//    metadata (counts, timings) with no authentication, so exposing them
//    beyond loopback is an explicit operator decision (--metrics-bind).
//
// A run-level witness: /metrics renders the tracer's counter totals over a
// real scrape path.  two_party_common's --verify scrapes its own endpoint
// and requires the returned round/byte totals to equal the tracer's, the
// summed per-chunk measurements and the summed analytic figures.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/socket.hpp"
#include "obs/tracer.hpp"

namespace pasnet::obs {

/// Raised by the http_get scrape helper on malformed/non-200 responses.
class ExposeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Host-supplied health signals rendered by /healthz (and as gauges on
/// /metrics).  The source callback is polled per request from the serving
/// thread and must be thread-safe.
struct HealthFields {
  std::uint64_t sessions_served = 0;
  int witness = -1;                ///< last witness verdict: 1 ok, 0 mismatch, -1 none yet
  std::uint64_t store_total = 0;   ///< pregenerated claim capacity (0 = not store-fed)
  std::uint64_t store_claimed = 0; ///< claims consumed so far
};

class ExpositionServer {
 public:
  struct Options {
    /// Loopback by default — see the security note in the file comment.
    std::string bind_addr = "127.0.0.1";
    /// 0 binds an ephemeral port (read it back via port()).
    std::uint16_t port = 0;
    /// Prometheus labels stamped on every series.
    std::string job = "pasnet";
    std::string instance;
    /// Per-connection total deadline: request must fully arrive and the
    /// response go out within this budget (the slow-loris bound).
    std::chrono::milliseconds request_timeout{2000};
    /// Request size cap (request line + headers).
    std::size_t max_request_bytes = 8192;
  };
  using HealthSource = std::function<HealthFields()>;

  /// Binds the listener immediately (so a bad --metrics-port fails loudly
  /// at startup); serving starts with start().  `tracer` and `health` must
  /// outlive the server.
  ExpositionServer(const Tracer& tracer, Options opts, HealthSource health = nullptr);
  ~ExpositionServer();
  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  /// Launches the single serving thread.
  void start();
  /// Stops serving and joins the thread (idempotent; also run by ~).
  void stop() noexcept;

  /// The bound port (the assigned one when Options::port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Renders the exposition bodies directly (what the endpoints serve;
  /// also handy for tests and in-process consumers).
  [[nodiscard]] std::string render_metrics() const;
  [[nodiscard]] std::string render_healthz() const;

  /// Requests answered with 200 since start (any path).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  void handle_connection(net::Socket sock);

  const Tracer& tracer_;
  Options opts_;
  HealthSource health_;
  net::Listener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::chrono::steady_clock::time_point started_;
};

/// Minimal HTTP/1.0 GET for scraping the endpoints (the run-level witness
/// self-scrape and the tests).  Returns the response body on 200; throws
/// ExposeError on any other status or a malformed response, net errors on
/// transport failure.
[[nodiscard]] std::string http_get(const std::string& host, std::uint16_t port,
                                   const std::string& path,
                                   std::chrono::milliseconds timeout);

/// Sums every sample of one metric family in a Prometheus text body
/// (label sets differ per process, so exact-line matching is the caller's
/// burden otherwise).  nullopt when the family does not appear.
[[nodiscard]] std::optional<double> prom_value(const std::string& body,
                                               const std::string& family);

}  // namespace pasnet::obs
