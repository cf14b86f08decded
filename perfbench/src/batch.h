#pragma once

/// @file batch.h
/// The batch surface: one SimSession on one thread, deck text in, compact
/// JSON text out — what carbon_sim does per deck — driven through the
/// public entry points spice::parse_deck, SimSession::run_deck and
/// core::Json::dump.

#include <string>
#include <vector>

#include "common.h"
#include "spice/netlist_parser.h"
#include "spice/session.h"
#include "workloads.h"

namespace carbon::obs {
class Tracer;
}

namespace perfbench {

/// Exact work counts: deterministic functions of the deck sequence, so
/// they must repeat bit-for-bit for one seed.
struct WorkCounts {
  long decks = 0;
  long cache_hits = 0;
  long symbolic_analyses = 0;  ///< real + complex, attributed per deck
  long newton_iterations = 0;  ///< Newton solves' iterations incl. OPs
  long tran_accepted = 0;
  long tran_rejected = 0;      ///< LTE + Newton rejects
  long output_bytes = 0;       ///< compact JSON bytes rendered

  bool operator==(const WorkCounts& o) const {
    return decks == o.decks && cache_hits == o.cache_hits &&
           symbolic_analyses == o.symbolic_analyses &&
           newton_iterations == o.newton_iterations &&
           tran_accepted == o.tran_accepted &&
           tran_rejected == o.tran_rejected && output_bytes == o.output_bytes;
  }
  bool operator!=(const WorkCounts& o) const { return !(*this == o); }
  /// Equal solver work; output size aside (phase collection adds a
  /// "phase_ns" block to every document).
  bool same_solver_work(const WorkCounts& o) const {
    WorkCounts a = *this;
    a.output_bytes = o.output_bytes;
    return a == o;
  }
};

/// Folds one result document into a WorkCounts (tracks per-topology
/// symbolic-analysis totals to attribute them to single decks).
class CountAccumulator {
 public:
  void add(const carbon::core::Json& doc, std::size_t bytes);
  const WorkCounts& counts() const { return c_; }

 private:
  WorkCounts c_;
  std::vector<std::pair<std::string, long>> seen_;  ///< hash -> last total
};

/// Per-deck layer ledger totals [ns] (solver phases only when collected).
struct Ledger {
  long long wall = 0, parse = 0, run = 0, render = 0;
  long long eval = 0, stamp = 0, factor = 0, solve = 0;
};

struct BatchResult {
  long timed_decks = 0;
  long attempted = 0;  ///< warm-up + timed
  long failed = 0;
  std::vector<std::string> failures;  ///< "deck <id>: reason" (first few)
  std::vector<double> wall_ms;        ///< per timed deck, parse..render
  /// Per pool deck: its fastest timed run [ms] (+inf until it has run).
  /// The pool cycles in a fixed order, so every repeat of a deck meets the
  /// same session state; the fastest is the one the host disturbed least.
  std::vector<double> best_ms;
  WorkCounts counts;  ///< over the first pass of the pool (timed decks)
  Ledger ledger;                      ///< over the timed decks
};

/// One SimSession working through @p pool (cycled) in timed slices, so the
/// batch measurement can be spread over a whole run.  A few untimed decks
/// fill the session cache first.  @p collect_phases turns on the solver
/// phase split (SessionOptions::collect_phases).  @p spans (nullable)
/// records the id-tagged parse/run/dump spans; @p tracer (nullable) is
/// attached to the thread while decks run, so the library's own spans land
/// in it too.  @p pool and @p registry must outlive the runner.
class BatchRunner {
 public:
  BatchRunner(const std::vector<GenDeck>& pool,
              const carbon::spice::ModelRegistry& registry,
              bool collect_phases, SpanLog* spans,
              carbon::obs::Tracer* tracer);

  /// Timed decks until @p seconds of wall time have passed (at least one).
  void run_for(double seconds);
  /// Exactly @p decks timed decks.
  void run_decks(long decks);

  const BatchResult& result() const { return res_; }

 private:
  void run_one(bool timed);

  const std::vector<GenDeck>& pool_;
  const carbon::spice::ModelRegistry& registry_;
  SpanLog* spans_;
  carbon::obs::Tracer* tracer_;
  carbon::spice::SimSession session_;
  CountAccumulator counts_;
  long next_ = 0;  ///< decks run so far (warm-up included)
  BatchResult res_;
};

/// The built-in model registry carbon_sim and carbon_simd start with.
carbon::spice::ModelRegistry builtin_models();

}  // namespace perfbench
