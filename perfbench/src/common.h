#pragma once

/// @file common.h
/// Small shared pieces of the end-to-end benchmark: the seeded generator
/// RNG, sample statistics, the FNV stream digest and the benchmark's own
/// id-tagged span ledger.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: a fixed, library-independent stream, so one seed yields
/// byte-identical decks on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Log-uniform in [lo, hi).
  double log_uniform(double lo, double hi) {
    return lo * std::pow(hi / lo, uniform());
  }
  /// Uniform integer in [lo, hi].
  int integer(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over a byte stream (generator determinism digest).
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A timing summary: the median plus the highest percentile that still has
/// at least ten samples beyond it (capped at p99), with the sample count.
struct Summary {
  long n = 0;
  double p50 = 0.0;
  double tail = 0.0;       ///< value at tail_pct
  double tail_pct = 0.0;   ///< e.g. 99.0, or lower when n < 1000
  double mean = 0.0;
};

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& v, double pct) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[i];
}

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<long>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 50.0);
  // Highest percentile with >= 10 samples above it, never beyond p99.
  const double supported =
      100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  s.tail_pct = std::clamp(std::floor(supported * 10.0) / 10.0, 50.0, 99.0);
  s.tail = percentile_sorted(v, s.tail_pct);
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// One benchmark-side span: the call into a layer, tagged with the deck or
/// request id it served.  Kept in memory, exported as Chrome trace JSON.
struct Span {
  const char* name;  ///< string literal
  long long ts_ns;
  long long dur_ns;
  long id;
};

/// The benchmark's span ledger (one per traced run, single recording
/// thread).  Null ledger = tracing off: Scope costs one branch.
class SpanLog {
 public:
  void add(const char* name, long long ts, long long dur, long id) {
    spans_.push_back({name, ts, dur, id});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, long id)
        : log_(log), name_(name), id_(id), t0_(log ? now_ns() : 0) {}
    ~Scope() {
      if (log_) log_->add(name_, t0_, now_ns() - t0_, id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    long id_;
    long long t0_;
  };

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
