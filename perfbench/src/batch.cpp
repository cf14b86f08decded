/// @file batch.cpp
/// In-process batch loop and its per-deck layer ledger.

#include "batch.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "device/alpha_power.h"
#include "device/ivmodel.h"
#include "device/linear_fet.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using carbon::core::Json;

constexpr int kWarmupDecks = 8;

long int_at(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v && v->is_number() ? static_cast<long>(v->as_int()) : 0;
}

/// Sum the solver counters of every analysis "stats" block of a document.
void add_solver_stats(const Json& doc, WorkCounts& c) {
  const Json* steps = doc.find("steps");
  if (!steps || !steps->is_array()) return;
  for (std::size_t i = 0; i < steps->size(); ++i) {
    const Json* analyses = steps->at(i).find("analyses");
    if (!analyses || !analyses->is_array()) continue;
    for (std::size_t a = 0; a < analyses->size(); ++a) {
      const Json* stats = analyses->at(a).find("stats");
      if (!stats || !stats->is_object()) continue;
      c.newton_iterations +=
          int_at(*stats, "newton_iterations") + int_at(*stats, "iterations");
      if (const Json* op = stats->find("op")) {
        c.newton_iterations += int_at(*op, "iterations");
      }
      c.tran_accepted += int_at(*stats, "steps_accepted");
      c.tran_rejected += int_at(*stats, "steps_rejected_lte") +
                         int_at(*stats, "steps_rejected_newton");
    }
  }
}

}  // namespace

void CountAccumulator::add(const Json& doc, std::size_t bytes) {
  ++c_.decks;
  c_.output_bytes += static_cast<long>(bytes);
  if (const Json* topo = doc.find("topology")) {
    const Json* hit = topo->find("cache_hit");
    if (hit && hit->is_bool() && hit->as_bool()) ++c_.cache_hits;
    const Json* session = doc.find("session");
    const Json* hash = topo->find("hash");
    if (session && hash && hash->is_string()) {
      // The session reports per-topology running totals; attribute the
      // increase since this topology's previous deck (a fresh entry,
      // topology_uses == 1, starts from zero).
      const long total = int_at(*session, "symbolic_analyses") +
                         int_at(*session, "ac_symbolic_analyses");
      long last = 0;
      bool found = false;
      for (auto& [h, t] : seen_) {
        if (h == hash->as_string()) {
          found = true;
          last = t;
          t = total;
        }
      }
      if (!found) seen_.emplace_back(hash->as_string(), total);
      if (int_at(*session, "topology_uses") <= 1) last = 0;
      c_.symbolic_analyses += total - last;
    }
  }
  add_solver_stats(doc, c_);
}

carbon::spice::ModelRegistry builtin_models() {
  using namespace carbon::device;
  carbon::spice::ModelRegistry reg;
  auto nfet = std::make_shared<AlphaPowerModel>(make_fig2_saturating_params());
  reg["nfet"] = nfet;
  reg["pfet"] = std::make_shared<PTypeMirror>(nfet);
  auto linn = std::make_shared<LinearFetModel>(make_fig2_linear_params());
  reg["linfet_n"] = linn;
  reg["linfet_p"] = std::make_shared<PTypeMirror>(linn);
  return reg;
}

BatchRunner::BatchRunner(const std::vector<GenDeck>& pool,
                         const carbon::spice::ModelRegistry& registry,
                         bool collect_phases, SpanLog* spans,
                         carbon::obs::Tracer* tracer)
    : pool_(pool),
      registry_(registry),
      spans_(spans),
      tracer_(tracer),
      session_(registry, [&] {
        carbon::spice::SessionOptions s;
        s.collect_phases = collect_phases;
        return s;
      }()) {
  res_.best_ms.assign(pool_.size(), std::numeric_limits<double>::infinity());
  carbon::obs::TraceAttach attach(tracer_);
  for (int i = 0; i < kWarmupDecks; ++i) run_one(false);
}

void BatchRunner::run_for(double seconds) {
  carbon::obs::TraceAttach attach(tracer_);
  const long long end = now_ns() + static_cast<long long>(seconds * 1e9);
  do {
    run_one(true);
  } while (now_ns() < end);
}

void BatchRunner::run_decks(long decks) {
  carbon::obs::TraceAttach attach(tracer_);
  for (long i = 0; i < decks; ++i) run_one(true);
}

void BatchRunner::run_one(bool timed) {
  const std::size_t slot =
      static_cast<std::size_t>(next_ % static_cast<long>(pool_.size()));
  const GenDeck& gd = pool_[slot];
  ++next_;
  const carbon::obs::PhaseTimes ph0 = session_.phase_times();
  Json doc;
  std::string text;
  std::string error;
  long long t_parse = 0, t_run = 0, t_render = 0;
  const long long t0 = now_ns();
  try {
    const carbon::spice::Deck deck = [&] {
      SpanLog::Scope s(spans_, "parse_deck", gd.id);
      return carbon::spice::parse_deck(gd.text, registry_);
    }();
    t_parse = now_ns();
    {
      SpanLog::Scope s(spans_, "run_deck", gd.id);
      doc = session_.run_deck(deck);
    }
    t_run = now_ns();
    {
      SpanLog::Scope s(spans_, "dump", gd.id);
      text = doc.dump();
    }
    t_render = now_ns();
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }
  const long long t1 = now_ns();
  if (spans_) spans_->add("bench.deck", t0, t1 - t0, gd.id);

  ++res_.attempted;
  if (error.empty()) error = check_result(gd, doc);
  if (!error.empty()) {
    ++res_.failed;
    if (res_.failures.size() < 20) {
      res_.failures.push_back("deck " + std::to_string(gd.id) + ": " + error);
    }
  }
  if (!timed) return;

  if (res_.timed_decks < static_cast<long>(pool_.size())) {
    counts_.add(doc, text.size());
    res_.counts = counts_.counts();
  }
  ++res_.timed_decks;
  res_.wall_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  res_.best_ms[slot] = std::min(res_.best_ms[slot], res_.wall_ms.back());
  Ledger& l = res_.ledger;
  l.wall += t1 - t0;
  if (t_render > 0) {
    const carbon::obs::PhaseTimes& ph = session_.phase_times();
    l.parse += t_parse - t0;
    l.run += t_run - t_parse;
    l.render += t_render - t_run;
    l.eval += ph.eval_ns - ph0.eval_ns;
    l.stamp += ph.stamp_ns - ph0.stamp_ns;
    l.factor += ph.factor_ns - ph0.factor_ns;
    l.solve += ph.solve_ns - ph0.solve_ns;
  }
}

}  // namespace perfbench
