#pragma once

/// @file workloads.h
/// Seeded deck generators for the benchmark workloads and the
/// independent output checks every result document must pass.
///
/// The program under test only ever receives the generated deck text; the
/// generator keeps, next to each deck, the parameters the checks need to
/// compute what the answer must be without asking the simulator.

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.h"

namespace perfbench {

enum class DeckKind {
  kRing,          ///< 3-stage ring oscillator, .tran
  kSram,          ///< 6T SRAM write, .tran
  kInverterVtc,   ///< inverter VTC, .dc (optionally .step'ed supply)
  kInverterOp,    ///< inverter chain operating point, .op
  kRcFilter,      ///< first-order RC, .ac + .noise
  kLadderAc,      ///< N-section RC ladder, .ac
  kLadderTran,    ///< N-section RC ladder step response, .tran
};

struct GenDeck {
  long id = 0;
  DeckKind kind = DeckKind::kRcFilter;
  std::string text;
  // Parameters the independent checks use (unused ones stay 0).
  double vdd = 0.0, vdd2 = 0.0;  ///< supply (vdd2: second .step point)
  double r = 0.0, c = 0.0;       ///< per-section R and C
  int n = 0;                     ///< ladder sections / chain stages
  double vin = 0.0;              ///< chain input level
  double delay = 0.0;            ///< ladder step-input delay
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Deterministic deck pool of workload @p name for @p seed: the same
/// (name, seed) always yields byte-identical texts.  Throws
/// std::invalid_argument for an unknown workload.
std::vector<GenDeck> make_pool(const std::string& name, std::uint64_t seed,
                               int size);

/// Digest of a pool's deck texts (the determinism fingerprint).
std::uint64_t pool_digest(const std::vector<GenDeck>& pool);

/// Check one result document against the deck's independent oracle.
/// Returns "" when the result is right, else the reason it is wrong.
std::string check_result(const GenDeck& deck, const carbon::core::Json& doc);

}  // namespace perfbench
