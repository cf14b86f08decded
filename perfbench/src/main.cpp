/// @file main.cpp
/// End-to-end benchmark of the carbon circuit simulator.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --simd PATH --config FILE [--out-dir DIR] [--commit ID]
///   perfbench --selftest --config FILE
///
/// Every run measures one workload (a seeded deck stream) on both user
/// surfaces: the batch surface (one SimSession, deck text in, compact JSON
/// out) and the service surface (carbon_simd over a Unix socket, driven
/// open-loop at the workload's fixed rates).  Every result document is
/// checked against an independent oracle.  The last stdout line is one
/// JSON object {"correct", "attempted", "failed", "metrics"}: with
/// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ledger
/// of a separate traced run (obs::Tracer attached, phase collection on).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch.h"
#include "common.h"
#include "core/report.h"
#include "obs/trace.h"
#include "serve.h"
#include "spice/session.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using carbon::core::Json;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string simd;
  std::string config;
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " wants a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") { a.seed = std::stoull(val()); have_seed = true; }
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val());
    else if (k == "--simd") a.simd = val();
    else if (k == "--config") a.config = val();
    else if (k == "--out-dir") a.out_dir = val();
    else if (k == "--commit") a.commit = val();
    else if (k == "--selftest") a.selftest = true;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.config.empty()) throw std::invalid_argument("--config is required");
  if (!a.selftest) {
    if (a.workload.empty() || !have_seed || a.simd.empty()) {
      throw std::invalid_argument("need --workload, --seed and --simd");
    }
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
      throw std::invalid_argument("bad --seconds or --trace");
    }
  }
  return a;
}

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return Json::parse(s.str());
}

double num(const Json& obj, const char* key) { return obj[key].as_double(); }

/// carbon_simd worker threads, and as many connections: the server pins one
/// connection per worker, so an extra connection would only measure that
/// starvation.  One, because with two workers the service capacity of the
/// 4-vCPU host the benchmark was tuned on swung by 2x between runs a few
/// minutes apart while the one-thread batch moved by 20%.
constexpr int kServeWorkers = 1;
/// Set-ups timed in each segment; setup_s is the median over the run.  A
/// set-up takes about a millisecond, and how fast a process starts on a
/// shared host changes from second to second, so the trials are spread
/// over the run rather than made in one burst.
constexpr int kSetupTrialsPerSegment = 3;
/// A service step whose generator-lag p99 exceeds this fell behind: it is
/// repeated, and stamped invalid if it stays late.
constexpr double kLagP99LimitMs = 5.0;
/// The batch slices and fixed-rate steps are spread over this many
/// interleaved segments, so a slow spell on the host lands on every figure
/// a little instead of on one of them entirely.  Each segment replays the
/// same low-rate and high-rate request stream.
constexpr int kSegments = 8;
/// The max_rps_slo ladder climbs this many times, spread over the
/// segments; each climb replays the same rung streams, and the best climb
/// stands, so the figure does not rest on one spell of the host.
constexpr int kLadders = 3;
/// Shares of --seconds: all batch slices together, all low-rate and all
/// high-rate step segments together, and each ladder rung.
constexpr double kBatchShare = 0.25, kLowShare = 0.2, kHighShare = 0.25,
                 kRungShare = 0.01;

/// Collects the result line's metrics, in order.
struct Metrics {
  Json obj = Json::object();
  void add(const std::string& name, double value, const char* unit) {
    auto m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    obj.set(name, std::move(m));
    std::fprintf(stderr, "  %-36s %14.6g %s\n", name.c_str(), value, unit);
  }
};

long self_peak_rss_kb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void print_summary(const char* what, const Summary& s, const char* unit) {
  std::fprintf(stderr, "  %-22s p50 %.4g %s, p%.4g %.4g %s, n=%ld\n", what,
               s.p50, unit, s.tail_pct, s.tail, unit, s.n);
}

Json counts_json(const WorkCounts& c) {
  auto j = Json::object();
  j.set("decks", c.decks);
  j.set("cache_hits", c.cache_hits);
  j.set("symbolic_analyses", c.symbolic_analyses);
  j.set("newton_iterations", c.newton_iterations);
  j.set("tran_accepted", c.tran_accepted);
  j.set("tran_rejected", c.tran_rejected);
  j.set("output_bytes", c.output_bytes);
  return j;
}

/// Write the traced run's spans — the library's own (obs::Tracer) and the
/// benchmark's id-tagged layer calls — as one Chrome trace document.
void write_trace(const std::string& path, const carbon::obs::Tracer& tracer,
                 const SpanLog& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const Json lib = tracer.chrome_json();
  const Json& lev = lib["traceEvents"];
  const char* sep = "";
  for (std::size_t i = 0; i < lev.size(); ++i, sep = ",") {
    out << sep << lev.at(i).dump();
  }
  // Streamed: one traced run holds tens of thousands of spans.
  char buf[256];
  for (const Span& s : spans.spans()) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":1,"
                  "\"args\":{\"id\":%ld}}",
                  sep, s.name, static_cast<double>(s.ts_ns) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3, s.id);
    out << buf;
    sep = ",";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

/// CPU placement: the load generator on the last CPU; the simulation —
/// carbon_simd and its workers, and the batch slices — on the others,
/// leaving out the first CPU when there are four or more, because the
/// kernel services most device interrupts there (on the 4-vCPU host the
/// benchmark was tuned on, CPU 0 spent a third of its time in softirq).
/// Needs three CPUs; otherwise a no-op.
class Placement {
 public:
  Placement() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
    if (cpus.size() < 3) return;
    on_ = true;
    CPU_ZERO(&gen_);
    CPU_ZERO(&work_);
    CPU_SET(cpus.back(), &gen_);
    for (std::size_t i = cpus.size() >= 4 ? 1 : 0; i + 1 < cpus.size(); ++i) {
      CPU_SET(cpus[i], &work_);
    }
  }
  bool on() const { return on_; }
  void for_generator() const { set(gen_); }
  /// Child processes (carbon_simd) inherit the mask.
  void for_work() const { set(work_); }

 private:
  void set(const cpu_set_t& mask) const {
    if (on_) sched_setaffinity(0, sizeof mask, &mask);
  }
  bool on_ = false;
  cpu_set_t gen_, work_;
};

/// One fixed-rate step from its segments: counts and latency samples
/// pooled, so its tail percentile rests on every segment's requests.
StepResult pool_segments(const std::vector<StepResult>& segs) {
  StepResult pooled = segs.front();
  for (std::size_t i = 1; i < segs.size(); ++i) pooled.merge(segs[i]);
  return pooled;
}

/// Generator determinism: two independent generations of the deck pool and
/// the request stream of one seed must be byte-identical.
bool streams_repeat(const std::string& workload, std::uint64_t seed,
                    int pool_size, std::uint64_t* digest) {
  const auto p1 = make_pool(workload, seed, pool_size);
  const auto p2 = make_pool(workload, seed, pool_size);
  std::uint64_t h1 = pool_digest(p1), h2 = pool_digest(p2);
  for (const std::string& s :
       LoadGen::requests(p1, LoadGen::deck_order(p1, pool_size, seed), 0)) {
    h1 = fnv1a(s, h1);
  }
  for (const std::string& s :
       LoadGen::requests(p2, LoadGen::deck_order(p2, pool_size, seed), 0)) {
    h2 = fnv1a(s, h2);
  }
  const auto a1 = LoadGen::arrivals(seed, 1000, 1.0);
  const auto a2 = LoadGen::arrivals(seed, 1000, 1.0);
  *digest = h1;
  return h1 == h2 && a1 == a2;
}

int selftest(const Json& cfg) {
  int bad = 0;
  const auto reg = builtin_models();
  for (const std::string& w : workload_names()) {
    const int pool = static_cast<int>(num(cfg["workloads"][w], "pool"));
    std::uint64_t d1 = 0, d2 = 0;
    if (!streams_repeat(w, 1, pool, &d1)) {
      std::fprintf(stderr, "FAIL %s: one seed gave two streams\n", w.c_str());
      ++bad;
    }
    streams_repeat(w, 2, pool, &d2);
    if (d1 == d2) {
      std::fprintf(stderr, "FAIL %s: seeds 1 and 2 gave one stream\n", w.c_str());
      ++bad;
    }
    // Exact counts repeat across fresh sessions over one deck sequence,
    // with and without phase collection.
    const auto decks = make_pool(w, 1, pool);
    std::vector<WorkCounts> counts;
    for (int pass = 0; pass < 3; ++pass) {
      BatchRunner r(decks, reg, pass == 2, nullptr, nullptr);
      r.run_decks(pool);
      counts.push_back(r.result().counts);
      for (const auto& f : r.result().failures) {
        std::fprintf(stderr, "FAIL %s: %s\n", w.c_str(), f.c_str());
      }
      bad += r.result().failed > 0;
    }
    if (counts[0] != counts[1] || !counts[0].same_solver_work(counts[2])) {
      std::fprintf(stderr, "FAIL %s: exact work counts drift\n", w.c_str());
      ++bad;
    }
    std::fprintf(stderr, "%s: stream digest %016llx, counts %s\n", w.c_str(),
                 static_cast<unsigned long long>(d1),
                 counts_json(counts[0]).dump().c_str());
  }
  std::fprintf(stderr, bad ? "selftest FAILED\n" : "selftest passed\n");
  return bad ? 1 : 0;
}

int run(const Args& args, const Json& cfg) {
  const Json& wc = cfg["workloads"][args.workload];
  const int pool_size = static_cast<int>(num(wc, "pool"));
  const double S = args.seconds;
  const bool traced = args.trace == 1;
  const unsigned ncpu = std::thread::hardware_concurrency();
  const int workers = kServeWorkers;
  const double low_rps = num(wc, "low_rps"), high_rps = num(wc, "high_rps");
  const double p99_limit = num(wc, "p99_limit_ms");
  std::vector<std::string> problems;  // anything making the run not correct

  // ---- provenance
  auto prov = Json::object();
  prov.set("workload", args.workload);
  prov.set("seed", static_cast<long long>(args.seed));
  prov.set("held_out_seed", cfg["held_out_seed"]);
  prov.set("trace", args.trace);
  prov.set("seconds", S);
  prov.set("nproc", static_cast<long>(ncpu));
  prov.set("compiler", std::string(__VERSION__));
  prov.set("build_type", PERFBENCH_BUILD_TYPE);
  prov.set("commit", args.commit);
  prov.set("serve_workers", workers);
  prov.set("connections", workers);  // one per worker: the server pins them
  auto ladder = Json::array();
  ladder.push(low_rps);
  ladder.push(high_rps);
  const Json& rungs = wc["ladder_rps"];
  for (std::size_t i = 0; i < rungs.size(); ++i) ladder.push(rungs.at(i));
  prov.set("rate_ladder_rps", ladder);
  prov.set("p99_limit_ms", p99_limit);
  // The service runs `workers` solves plus the generator at once.
  const bool parallel_flag = ncpu < static_cast<unsigned>(workers + 1);
  prov.set("parallel_figures_flagged", parallel_flag);
  if (parallel_flag) {
    std::fprintf(stderr, "warning: %u CPU(s) for %d workers + generator: "
                 "service figures are not parallel figures\n", ncpu, workers);
  }

  // ---- inputs, and the determinism guard on them
  std::uint64_t digest = 0;
  if (!streams_repeat(args.workload, args.seed, pool_size, &digest)) {
    problems.push_back("generator is not deterministic for this seed");
  }
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  prov.set("stream_digest", std::string(hex));
  const std::vector<GenDeck> pool =
      make_pool(args.workload, args.seed, pool_size);

  const std::string sock =
      args.out_dir + "/simd-" + std::to_string(::getpid()) + ".sock";
  const Placement place;
  prov.set("cpu_pinning", place.on());

  // How near a service step came to missing: the larger of its p99 over
  // the limit and its backlog growth (StepResult::backlog); above 1 it
  // missed.
  const auto miss = [&](const StepResult& r) {
    return std::max(r.latency.tail / p99_limit, r.backlog);
  };

  // ---- set-up: registry + SimSession in process, carbon_simd to ready
  std::vector<double> setup_local, setup_daemon;
  auto time_setups = [&] {
    place.for_work();
    for (int t = 0; t < kSetupTrialsPerSegment; ++t) {
      const long long t0 = now_ns();
      {
        carbon::spice::SimSession session(builtin_models());
        setup_local.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      }
      Daemon d(args.simd, sock + ".setup", workers);
      setup_daemon.push_back(d.ready_s());
      if (d.stop() != 0) problems.push_back("carbon_simd did not drain cleanly");
    }
  };

  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto note = [&](long a, long f, const std::vector<std::string>& why) {
    attempted += a;
    failed += f;
    for (const auto& w : why) {
      if (failures.size() < 40) failures.push_back(w);
    }
  };

  // ---- both surfaces, interleaved: the batch slices and the low/high
  // service steps alternate over the run, so a slow spell on the host
  // lands on all of them instead of on one figure.
  const auto registry = builtin_models();
  BatchRunner batch(pool, registry, false, nullptr, nullptr);
  SpanLog spans;
  // Traced run: the same decks again in a second session with the tracer
  // attached and phases collected, slice for slice right after the
  // untraced ones, so the two passes see the same host and their
  // difference is the tracing overhead.
  carbon::obs::Tracer tracer;
  std::optional<BatchRunner> traced_batch;
  if (traced) traced_batch.emplace(pool, registry, true, &spans, &tracer);
  // Per-segment batch rates, for the provenance: the wall-clock rate,
  // host interference included.
  std::vector<double> seg_rate;
  std::vector<StepResult> seg_low, seg_high;
  std::vector<std::vector<StepResult>> ladders;  // the rungs of each climb
  double low_bytes_per_req = 0.0;
  long server_rss_kb = 0;
  auto invalid_steps = Json::array();  // generator fell behind on these
  {
    place.for_work();
    Daemon daemon(args.simd, sock, workers);
    LoadGen gen(sock, workers);
    long next_id = 0;
    long client_ok = 0, client_notok = 0;  // every attempt, kept or not
    // A step's request stream is fixed by two seeds: its decks by one
    // drawn from --seed, its arrival times by one drawn from the workload
    // alone, so every seed meets the same load shape.  A repeat with both
    // seeds replays the stream.
    struct Stream {
      std::uint64_t decks, arrivals;
    };
    Stream last{args.seed * 0x100000001b3ull + fnv1a(args.workload),
                fnv1a(args.workload)};
    auto next_stream = [&] {
      ++last.decks;
      ++last.arrivals;
      return last;
    };
    auto step = [&](const std::string& name, double rate, double secs,
                    const Stream& st) {
      for (int attempt = 0;; ++attempt) {
        StepResult r =
            gen.run_step(name, pool, &next_id, rate, secs, st.decks,
                         st.arrivals, traced ? &spans : nullptr);
        note(r.sent, r.failed, r.failures);
        client_ok += r.client_ok_docs;
        client_notok += r.client_notok_docs;
        if (r.lag.tail <= kLagP99LimitMs || attempt == 2) {
          // Still late after two repeats: kept, but stamped invalid.  The
          // generator's lateness is part of the latency it reports.
          if (r.lag.tail > kLagP99LimitMs) invalid_steps.push(name);
          return r;
        }
        std::fprintf(stderr, "step %s invalid (generator lag p%.4g %.3f ms); "
                     "repeating it\n", name.c_str(), r.lag.tail_pct, r.lag.tail);
      }
    };
    const double low_s = kLowShare * S / kSegments;
    const double high_s = kHighShare * S / kSegments;
    // Every segment replays the same low-rate and high-rate stream, and
    // every ladder climb the same rung streams.
    const Stream low_stream = next_stream(), high_stream = next_stream();
    std::vector<Stream> rung_streams;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      rung_streams.push_back(next_stream());
    }
    // One climb, from the lowest rung until one misses.
    auto climb = [&] {
      std::vector<StepResult> climbed;
      for (std::size_t i = 0; i < rungs.size(); ++i) {
        climbed.push_back(step("rung" + std::to_string(i + 1),
                               rungs.at(i).as_double(), kRungShare * S,
                               rung_streams[i]));
        if (climbed.back().failed > 0 || miss(climbed.back()) > 1.0) break;
      }
      ladders.push_back(std::move(climbed));
    };
    for (int k = 0; k < kSegments; ++k) {
      time_setups();
      const std::size_t from = batch.result().wall_ms.size();
      batch.run_for(kBatchShare * S / kSegments);
      const std::vector<double> slice(batch.result().wall_ms.begin() + from,
                                      batch.result().wall_ms.end());
      double busy_ms = 0.0;
      for (double w : slice) busy_ms += w;
      seg_rate.push_back(1e3 * static_cast<double>(slice.size()) / busy_ms);
      if (traced) traced_batch->run_decks(static_cast<long>(slice.size()));
      place.for_generator();
      seg_low.push_back(step("low", low_rps, low_s, low_stream));
      seg_high.push_back(step("high", high_rps, high_s, high_stream));
      // The climbs after evenly spaced segments, the last one included.
      if (!traced && (k + 1) * kLadders / kSegments > k * kLadders / kSegments) {
        climb();
      }
    }
    // The daemon's first requests are a repeatable set, so their response
    // size is an exact count.
    low_bytes_per_req =
        static_cast<double>(seg_low[0].response_bytes) /
        static_cast<double>(std::max(1L, seg_low[0].completed));
    const ServerSnap total = gen.scrape();
    long server_notok = 0;
    for (const auto& [k, v] : total.outcomes) {
      if (k != "ok") server_notok += v;
    }
    const auto ok_it = total.outcomes.find("ok");
    const long server_ok = ok_it == total.outcomes.end() ? 0 : ok_it->second;
    if (server_ok != client_ok || server_notok != client_notok) {
      problems.push_back("client ok/not-ok " + std::to_string(client_ok) + "/" +
                         std::to_string(client_notok) +
                         " != server counters " + std::to_string(server_ok) +
                         "/" + std::to_string(server_notok));
    }
    place.for_work();
    server_rss_kb = daemon.peak_rss_kb();
    if (daemon.stop() != 0) problems.push_back("carbon_simd did not drain cleanly");
  }
  const double setup_s = median(setup_local) + median(setup_daemon);
  // The exact counts need one whole pass over the pool.
  if (batch.result().timed_decks < pool_size) {
    batch.run_decks(pool_size - batch.result().timed_decks);
  }
  const BatchResult& br = batch.result();
  note(br.attempted, br.failed, br.failures);
  prov.set("work_counts", counts_json(br.counts));
  if (invalid_steps.size() > 0) {
    std::fprintf(stderr, "warning: generator fell behind on %s\n",
                 invalid_steps.dump().c_str());
  }
  prov.set("invalid_steps", std::move(invalid_steps));

  if (traced) {
    traced_batch->run_decks(br.timed_decks - traced_batch->result().timed_decks);
    const BatchResult& tb = traced_batch->result();
    note(tb.attempted, tb.failed, tb.failures);
    if (!tb.counts.same_solver_work(br.counts)) {
      problems.push_back("exact work counts drifted between two passes over "
                         "one deck sequence: " + counts_json(br.counts).dump() +
                         " vs " + counts_json(tb.counts).dump());
    }
  }

  // The fixed-rate steps: each request at its best over the replays.
  const StepResult low = best_of_replays(seg_low);
  const StepResult high = best_of_replays(seg_high);
  // max_rps_slo: the offered rate at which a step reaches its limits,
  // interpolated in log(miss) between the last step that met them and the
  // next, so the figure does not jump from rung to rung.  A step with a
  // failed request ends the climb at the last rate met.  Steps run in
  // ascending rate: low, high, then the rungs of one climb.
  auto climb_rate = [&](const std::vector<StepResult>& climbed) {
    std::vector<const StepResult*> path = {&low, &high};
    for (const StepResult& r : climbed) path.push_back(&r);
    double rate = 0.0;
    const StepResult* met = nullptr;
    for (const StepResult* r : path) {
      if (r->failed == 0 && miss(*r) <= 1.0) {
        met = r;
        rate = r->rate;
        continue;
      }
      if (r->failed == 0 && met) {
        const double f =
            std::log(1.0 / miss(*met)) / std::log(miss(*r) / miss(*met));
        rate = met->rate + f * (r->rate - met->rate);
      } else if (r->failed == 0) {
        rate = r->rate / miss(*r);  // below the ladder
      }
      break;
    }
    return rate;
  };
  double max_rps = 0.0;
  auto climb_rates = Json::array();
  for (const auto& climbed : ladders) {
    const double rate = climb_rate(climbed);
    climb_rates.push(rate);
    max_rps = std::max(max_rps, rate);
  }
  // Not a metric: the service's capacity at saturation magnifies the
  // shared host's swings in speed (see README.md, Steadiness).
  prov.set("max_rps_slo", max_rps);
  prov.set("climb_rps", std::move(climb_rates));

  // ---- report
  const Summary deck = summarize(br.wall_ms);
  // The batch figures rest on each pool deck's fastest run: a shared
  // host's slow spells, however long, only add to a deck's time, so the
  // fastest of its 20-45 runs spread over the whole run is the steady one.
  std::vector<double> best;
  for (double b : br.best_ms) {
    if (std::isfinite(b)) best.push_back(b);
  }
  double best_sum_ms = 0.0;
  for (double b : best) best_sum_ms += b;
  const double best_rate = 1e3 * static_cast<double>(best.size()) / best_sum_ms;
  prov.set("batch_wall_decks_per_s", median(seg_rate));
  std::fprintf(stderr, "perfbench %s seed %llu trace %d (%u CPUs)\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace, ncpu);
  print_summary("batch deck wall", deck, "ms");
  // The tail of each timing: the highest percentile with at least ten
  // samples beyond it (capped at p99), its value and the sample count.
  // The request tails are not metrics: a shared host's stalls set them.
  auto tails = Json::object();
  auto tail = [&](const std::string& name, const Summary& s) {
    auto t = Json::object();
    t.set("pct", s.tail_pct);
    t.set("ms", s.tail);
    t.set("n", s.n);
    tails.set(name, std::move(t));
  };
  tail("deck", deck);
  // Every request the fixed-rate steps sent, each replay's own latency.
  const StepResult low_all = pool_segments(seg_low);
  const StepResult high_all = pool_segments(seg_high);
  tail("req.low", low_all.latency);
  tail("req.high", high_all.latency);
  prov.set("tails", std::move(tails));
  std::vector<const StepResult*> shown = {&low, &high};
  for (const auto& climbed : ladders) {
    for (const StepResult& r : climbed) shown.push_back(&r);
  }
  for (const StepResult* rp : shown) {
    const StepResult& r = *rp;
    std::fprintf(stderr, "  step %-6s %7.1f req/s offered, %7.1f achieved, "
                 "%ld/%ld ok%s\n", r.name.c_str(), r.rate, r.achieved_rps,
                 r.ok, r.sent, r.backlog > 1.0 ? ", backlog growing" : "");
    print_summary("    latency", r.latency, "ms");
    print_summary("    generator lag", r.lag, "ms");
  }
  for (const auto& f : failures) std::fprintf(stderr, "  FAILED %s\n", f.c_str());
  for (const auto& p : problems) std::fprintf(stderr, "  PROBLEM %s\n", p.c_str());

  Metrics m;
  const auto per_deck_us = [](long long ns, long decks) {
    return static_cast<double>(ns) * 1e-3 / static_cast<double>(std::max(1L, decks));
  };
  if (!traced) {
    m.add("decks_per_s", best_rate, "1/s");
    m.add("deck_p50_ms", median(best), "ms");
    m.add("deck_p99_ms", deck.tail, "ms");
    m.add("req_p50_ms.low", low.latency.p50, "ms");
    m.add("req_p50_ms.high", high.latency.p50, "ms");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", static_cast<double>(server_rss_kb) / 1024.0, "MB");
  } else {
    const BatchResult& tb = traced_batch->result();
    const Ledger& l = tb.ledger;
    const auto us = [&](long long ns) { return per_deck_us(ns, tb.timed_decks); };
    const long long solver = l.eval + l.stamp + l.factor + l.solve;
    m.add("ledger.deck_us", us(l.wall), "us");
    m.add("netlist_parser.parse_us", us(l.parse), "us");
    m.add("session.other_us", us(l.run - solver), "us");
    m.add("device.eval_us", us(l.eval), "us");
    m.add("mna.stamp_us", us(l.stamp), "us");
    m.add("sparse.factor_us", us(l.factor), "us");
    m.add("sparse.solve_us", us(l.solve), "us");
    m.add("report.render_us", us(l.render), "us");
    m.add("unattributed_us", us(l.wall - l.parse - l.run - l.render), "us");
    m.add("trace.overhead_pct",
          100.0 * (us(l.wall) / per_deck_us(br.ledger.wall, br.timed_decks) - 1.0),
          "%");
    const WorkCounts& c = br.counts;
    const double cd = static_cast<double>(std::max(1L, c.decks));
    m.add("session.cache_hit_ratio", static_cast<double>(c.cache_hits) / cd, "1");
    m.add("mna.symbolic_analyses_per_deck",
          static_cast<double>(c.symbolic_analyses) / cd, "count");
    m.add("newton.iters_per_deck", static_cast<double>(c.newton_iterations) / cd,
          "count");
    m.add("tran.steps_accepted_per_deck",
          static_cast<double>(c.tran_accepted) / cd, "count");
    const long tran_steps = c.tran_accepted + c.tran_rejected;
    m.add("tran.reject_ratio",
          tran_steps ? static_cast<double>(c.tran_rejected) / tran_steps : 0.0,
          "1");
    m.add("batch.output_bytes_per_deck", static_cast<double>(c.output_bytes) / cd,
          "B");
    m.add("serve.response_bytes_per_req", low_bytes_per_req, "B");
    m.add("serve.service_p50_ms", high_all.server.ok_percentile_ms(50.0), "ms");
    m.add("serve.service_p99_ms", high_all.server.ok_percentile_ms(99.0), "ms");
    for (const StepResult* r : {&low_all, &high_all}) {
      const double service_mean =
          r->server.ok_count ? 1e3 * r->server.ok_sum_s /
                                   static_cast<double>(r->server.ok_count)
                             : 0.0;
      m.add("serve.wait_ms." + r->name, r->latency.mean - service_mean, "ms");
    }
    double lag = 0.0;
    for (const StepResult* r : shown) lag = std::max(lag, r->lag.tail);
    m.add("gen.lag_p99_ms", lag, "ms");
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    write_trace(path, tracer, spans);
    prov.set("trace_file", path);
  }
  prov.set("batch_peak_rss_mb",
           static_cast<double>(self_peak_rss_kb()) / 1024.0);
  std::fprintf(stderr, "  fail_ratio %.6g (%ld of %ld)\n",
               static_cast<double>(failed) /
                   static_cast<double>(std::max(1L, attempted)),
               failed, attempted);

  auto prov_line = Json::object();
  prov_line.set("provenance", std::move(prov));
  std::cout << prov_line.dump() << "\n";
  auto out = Json::object();
  out.set("correct", failed == 0 && problems.empty());
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(m.obj));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  Json cfg;
  try {
    args = parse_args(argc, argv);
    cfg = read_json(args.config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // Provenance: timings from anything but an optimized Release build of
  // libcarbon are refused outright.
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!release) {
    std::fprintf(stderr, "perfbench: refusing to measure a non-Release build "
                 "(build type '%s')\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    if (args.selftest) return selftest(cfg);
    return run(args, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
