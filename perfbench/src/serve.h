#pragma once

/// @file serve.h
/// The service surface: carbon_simd launched as a child process on a Unix
/// socket, driven by a single-threaded open-loop load generator over
/// pipelined keep-alive connections, and scraped with {"type":"metrics"}.

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common.h"
#include "core/report.h"
#include "workloads.h"

namespace perfbench {

/// A running carbon_simd child.  Owns the process: the destructor kills
/// and reaps it if stop() was not called.
class Daemon {
 public:
  /// Spawn @p binary listening on @p sock with @p workers, and block until
  /// its ready line (throws std::runtime_error after 20 s or on exit).
  Daemon(const std::string& binary, const std::string& sock, int workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Launch-to-ready-line wall time [s].
  double ready_s() const { return ready_s_; }
  /// Peak resident set (VmHWM) so far [kB]; 0 when unreadable.
  long peak_rss_kb() const;
  /// Graceful drain (SIGTERM) and reap; returns the exit status.
  int stop();

 private:
  void release();  ///< kill + reap if still running, close, unlink

  pid_t pid_ = -1;
  int out_fd_ = -1;
  double ready_s_ = 0.0;
  std::string sock_;
};

/// A snapshot of the server-side instruments the benchmark reads.
struct ServerSnap {
  std::array<long, 29> ok_buckets{};  ///< carbon_request_seconds{ok}
  long ok_count = 0;
  double ok_sum_s = 0.0;
  std::map<std::string, long> outcomes;  ///< carbon_requests_total{outcome}

  ServerSnap minus(const ServerSnap& before) const;
  void add(const ServerSnap& delta);
  /// Percentile of the ok-latency histogram [ms], interpolated in-bucket.
  double ok_percentile_ms(double pct) const;
};

/// One fixed-rate step of the open-loop generator.
struct StepResult {
  std::string name;
  double rate = 0.0;      ///< offered rate [req/s]
  long sent = 0, completed = 0, ok = 0, failed = 0;
  long client_ok_docs = 0;     ///< responses with "ok": true
  long client_notok_docs = 0;  ///< well-formed responses with "ok": false
  std::vector<double> latency_ms;  ///< from due time, per completed request
  std::vector<double> slot_ms;     ///< the same per request, in order; NaN if lost
  std::vector<double> lag_ms;      ///< generator lateness, per request
  Summary latency;
  Summary lag;
  double active_s = 0.0;           ///< first due .. last response
  double achieved_rps = 0.0;       ///< completed / active_s
  long long response_bytes = 0;
  /// Backlog growth: the median latency of the last quarter of the
  /// requests over 3x (+2 ms) that of the first quarter; above 1 the
  /// backlog grew over the step.
  double backlog = 0.0;
  ServerSnap server;               ///< server-side delta over the step
  std::vector<std::string> failures;

  /// Pool another slice of the same fixed-rate step into this one.
  void merge(const StepResult& o);
};

/// Replays of one request stream (one pair of step seeds) folded into one step:
/// counts summed, and each request's latency the best of its replays.  A
/// replay sends the same decks at the same times, so a request's queueing
/// and service repeat; the host's interference only adds to them.  The
/// latency summary and the backlog growth rest on these best latencies.
StepResult best_of_replays(const std::vector<StepResult>& replays);

/// Open-loop generator over keep-alive connections to one daemon.
class LoadGen {
 public:
  LoadGen(const std::string& sock, int connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// The decks of a step's @p count requests [pool indices]: consecutive
  /// pool decks, cycled, from a start drawn from @p seed.  The pools are
  /// ordered so that any run of consecutive decks carries their mix.
  static std::vector<long> deck_order(const std::vector<GenDeck>& pool,
                                      long count, std::uint64_t seed);
  /// Serialized run requests for a step: request k carries
  /// pool[decks[k]] and the global id first_id + k.  Deterministic.
  static std::vector<std::string> requests(const std::vector<GenDeck>& pool,
                                           const std::vector<long>& decks,
                                           long first_id);
  /// Seeded arrival offsets [ns]: @p count Poisson arrivals conditioned on
  /// the count, i.e. sorted uniform draws over the step's duration.
  static std::vector<long long> arrivals(std::uint64_t seed, long count,
                                         double seconds);

  /// Run one open-loop step at @p rate for @p seconds: its decks are drawn
  /// from @p deck_seed and its arrival times from @p arrival_seed, so the
  /// same two seeds replay the same request stream; request ids are taken
  /// from *@p id_cursor (advanced).  Spans (nullable) record gen.send /
  /// gen.recv / request per request id.
  StepResult run_step(const std::string& name, const std::vector<GenDeck>& pool,
                      long* id_cursor, double rate, double seconds,
                      std::uint64_t deck_seed, std::uint64_t arrival_seed,
                      SpanLog* spans);

  /// {"type":"metrics"} over connection 0.
  ServerSnap scrape();

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench
