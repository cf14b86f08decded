/// @file workloads.cpp
/// Deck generators (seeded) and independent result checks.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Shared alpha-power device pair; n and p are matched (PTypeMirror).
std::string fet_models(double k) {
  return ".model ndev alphan(vt=0.2 alpha=1.3 k=" + num(k) +
         " lambda=0.08)\n"
         ".model pdev alphap(vt=0.2 alpha=1.3 k=" + num(k) +
         " lambda=0.08)\n";
}

// ------------------------------------------------- sweep_hot topologies
// The four examples/decks circuits, with their values drawn per deck.

GenDeck ring(Rng& rng) {
  GenDeck d;
  d.kind = DeckKind::kRing;
  d.vdd = rng.uniform(0.9, 1.1);
  const double cl = rng.uniform(4e-15, 6e-15);
  const double k = rng.uniform(50e-6, 70e-6);
  d.text = "* 3-stage ring oscillator\n.title ring oscillator\n.param vdd=" +
           num(d.vdd) + " cl=" + num(cl) + "\n" + fet_models(k) +
           ".subckt inv in out vdd cl=5f v0=0\n"
           "mp out in vdd pdev\n"
           "mn out in 0 ndev\n"
           "cload out 0 {cl} ic={v0}\n"
           ".ends\n"
           "vdd vdd 0 {vdd}\n"
           "x1 a b vdd inv cl={cl} v0={vdd}\n"
           "x2 b c vdd inv cl={cl}\n"
           "x3 c a vdd inv cl={cl}\n"
           ".options backend=sparse\n"
           ".tran 5p 4n ic=init\n"
           ".probe none\n"
           ".measure tran period period v(a) vdd={vdd} skip=3\n"
           ".measure tran aswing pp v(a) from=0.5n\n"
           ".end\n";
  return d;
}

GenDeck sram(Rng& rng) {
  GenDeck d;
  d.kind = DeckKind::kSram;
  d.vdd = rng.uniform(0.9, 1.1);
  const double cacc = rng.uniform(1.5e-15, 3e-15);
  const double k = rng.uniform(50e-6, 70e-6);
  d.text = "* 6T SRAM cell write\n.title sram cell write\n.param vdd=" +
           num(d.vdd) + " cacc=" + num(cacc) + "\n" + fet_models(k) +
           ".subckt inv in out vdd v0=0\n"
           "mp out in vdd pdev\n"
           "mn out in 0 ndev\n"
           "cout out 0 {cacc} ic={v0}\n"
           ".ends\n"
           "vdd vdd 0 {vdd}\n"
           "vbl  bl  0 {vdd}\n"
           "vblb blb 0 0\n"
           "vwl  wl  0 PULSE(0 {vdd} 0.5n 20p 20p 1n 4n)\n"
           "x1 q  qb vdd inv v0={vdd}\n"
           "x2 qb q  vdd inv v0=0\n"
           "maxl q  wl bl  ndev\n"
           "maxr qb wl blb ndev\n"
           ".options backend=sparse\n"
           ".tran 10p 2.5n ic=init\n"
           ".probe v(q) v(qb) v(wl)\n"
           ".measure tran tflip  cross v(q) val={vdd/2} rise after=0.5n\n"
           ".measure tran qfinal find  v(q) at=2.4n\n"
           ".measure tran qbfinal find v(qb) at=2.4n\n"
           ".end\n";
  return d;
}

/// Inverter VTC at two supply points (.step).
GenDeck inverter_vtc(Rng& rng) {
  GenDeck d;
  d.kind = DeckKind::kInverterVtc;
  d.vdd = rng.uniform(0.7, 0.9);
  d.vdd2 = d.vdd + 0.2;
  const double k = rng.uniform(50e-6, 70e-6);
  d.text = "* CMOS inverter voltage-transfer curve\n.title inverter vtc\n"
           ".param vdd=" + num(d.vdd) + "\n" + fet_models(k) +
           "vdd vdd 0 {vdd}\n"
           "vin in 0 0\n"
           "mp out in vdd pdev\n"
           "mn out in 0 ndev\n"
           ".options backend=sparse\n"
           ".dc vin 0 {vdd} 0.025\n"
           ".step param vdd list " + num(d.vdd) + " " + num(d.vdd2) + "\n"
           ".probe v(out)\n"
           ".measure dc gain vtc v(in) v(out) vdd={vdd} metric=gain\n"
           ".measure dc nml  vtc v(in) v(out) vdd={vdd} metric=nml\n"
           ".measure dc nmh  vtc v(in) v(out) vdd={vdd} metric=nmh\n"
           ".measure dc vswitch vtc v(in) v(out) vdd={vdd} metric=vswitch\n"
           ".end\n";
  return d;
}

GenDeck rc_filter(Rng& rng) {
  GenDeck d;
  d.kind = DeckKind::kRcFilter;
  d.r = rng.log_uniform(1e3, 1e5);
  d.c = rng.log_uniform(1e-10, 1e-8);
  d.text = "* first-order RC low-pass: AC response and output noise\n"
           ".title rc low-pass filter\n.param r=" + num(d.r) + " c=" +
           num(d.c) + "\n"
           "vin in 0 dc 0 ac 1\n"
           "r1 in out {r}\n"
           "c1 out 0 {c}\n"
           ".options temp=300\n"
           ".ac dec 10 1 10meg\n"
           ".noise v(out) vin dec 10 10 1meg\n"
           ".probe v(out)\n"
           ".measure ac f3db   corner v(out)\n"
           ".measure ac dcgain find v(out) at=1\n"
           ".measure noise onpeak max onoise_v2_hz\n"
           ".end\n";
  // Checks use the values as printed in the deck.
  d.r = std::stod(num(d.r));
  d.c = std::stod(num(d.c));
  return d;
}

/// Inverter chain operating point: @p stages inverters driven at 0 or vdd.
GenDeck inverter_chain_op(Rng& rng, int stages) {
  GenDeck d;
  d.kind = DeckKind::kInverterOp;
  d.n = stages;
  d.vdd = rng.uniform(0.8, 1.2);
  d.vin = (rng.next() & 1) ? d.vdd : 0.0;
  const double k = rng.uniform(50e-6, 70e-6);
  d.text = "* inverter chain operating point, " + std::to_string(stages) +
           " stages\n.title inverter chain op\n.param vdd=" + num(d.vdd) +
           " vin=" + num(d.vin) + "\n" + fet_models(k) +
           "vdd vdd 0 {vdd}\n"
           "vin c0 0 {vin}\n";
  for (int s = 1; s <= stages; ++s) {
    const std::string in = "c" + std::to_string(s - 1);
    const std::string out = "c" + std::to_string(s);
    d.text += "mp" + std::to_string(s) + " " + out + " " + in + " vdd pdev\n";
    d.text += "mn" + std::to_string(s) + " " + out + " " + in + " 0 ndev\n";
  }
  d.text += ".op\n.measure op vout value v(c" + std::to_string(stages) +
            ")\n.end\n";
  d.vdd = std::stod(num(d.vdd));
  d.vin = std::stod(num(d.vin));
  return d;
}

// --------------------------------------------- cold_topology topologies

/// Elmore delay of an unloaded uniform N-section RC ladder.
double elmore(int n, double r, double c) { return r * c * n * (n + 1) / 2.0; }

GenDeck ladder_ac(Rng& rng, int n) {
  GenDeck d;
  d.kind = DeckKind::kLadderAc;
  d.n = n;
  d.r = std::stod(num(rng.log_uniform(100.0, 1e4)));
  d.c = std::stod(num(rng.log_uniform(1e-14, 1e-12)));
  const double fel = 1.0 / (2.0 * kPi * elmore(n, d.r, d.c));
  const std::string out = "a" + std::to_string(n);
  std::string t = "* RC ladder, " + std::to_string(n) +
                  " sections: AC response\n.title rc ladder ac\n"
                  "vin a0 0 dc 0 ac 1\n";
  t.reserve(t.size() + static_cast<std::size_t>(n) * 40);
  for (int s = 1; s <= n; ++s) {
    const std::string k = std::to_string(s);
    t += "r" + k + " a" + std::to_string(s - 1) + " a" + k + " " + num(d.r) +
         "\n";
    t += "c" + k + " a" + k + " 0 " + num(d.c) + "\n";
  }
  const std::string fl = num(fel / 100.0);
  t += ".ac dec 10 " + fl + " " + num(fel * 100.0) + "\n";
  t += ".probe v(" + out + ")\n";
  t += ".measure ac dcgain find v(" + out + ") at=" + fl + "\n";
  t += ".measure ac f3db corner v(" + out + ")\n.end\n";
  d.text = std::move(t);
  return d;
}

GenDeck ladder_tran(Rng& rng, int n) {
  GenDeck d;
  d.kind = DeckKind::kLadderTran;
  d.n = n;
  d.vdd = std::stod(num(rng.uniform(0.8, 1.2)));
  d.r = std::stod(num(rng.log_uniform(100.0, 1e4)));
  d.c = std::stod(num(rng.log_uniform(1e-14, 1e-12)));
  const double tau = elmore(n, d.r, d.c);
  const double td = tau / 50.0;
  const double tstop = 12.0 * tau + td;
  const std::string out = "t" + std::to_string(n);
  std::string t = "* RC ladder, " + std::to_string(n) +
                  " sections: step response\n.title rc ladder step\n"
                  "vin t0 0 PULSE(0 " + num(d.vdd) + " " + num(td) + " " +
                  num(tau / 100.0) + " " + num(tau / 100.0) + " " +
                  num(100.0 * tstop) + " " + num(200.0 * tstop) + ")\n";
  for (int s = 1; s <= n; ++s) {
    const std::string k = std::to_string(s);
    t += "r" + k + " t" + std::to_string(s - 1) + " t" + k + " " + num(d.r) +
         "\n";
    t += "c" + k + " t" + k + " 0 " + num(d.c) + "\n";
  }
  t += ".tran " + num(tstop / 200.0) + " " + num(tstop) + "\n";
  t += ".probe v(" + out + ")\n";
  t += ".measure tran vfinal find v(" + out + ") at=" + num(0.99 * tstop) +
       "\n";
  t += ".measure tran t50 cross v(" + out + ") val=" + num(d.vdd / 2.0) +
       " rise\n.end\n";
  d.text = std::move(t);
  d.delay = td;
  return d;
}

/// Fisher-Yates draw of @p count distinct integers from [lo, hi].
std::vector<int> distinct(Rng& rng, int lo, int hi, int count) {
  std::vector<int> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
    std::swap(v[static_cast<std::size_t>(i)],
              v[static_cast<std::size_t>(rng.integer(0, i))]);
  }
  v.resize(static_cast<std::size_t>(std::min<int>(count, static_cast<int>(v.size()))));
  return v;
}

// ------------------------------------------------------------- checks

const carbon::core::Json* measure(const carbon::core::Json& step,
                                  const char* name) {
  const carbon::core::Json* m = step.find("measures");
  if (!m) return nullptr;
  const carbon::core::Json* v = m->find(name);
  return v && v->is_number() ? v : nullptr;
}

bool near(double got, double want, double rel) {
  return std::isfinite(got) && std::fabs(got - want) <= rel * std::fabs(want);
}

/// |H(f)| of an unloaded uniform RC ladder, by backward recursion from
/// the open output (independent of the simulator's MNA/LU path).
double ladder_gain(int n, double r, double c, double f) {
  const std::complex<double> jwc(0.0, 2.0 * kPi * f * c);
  std::complex<double> v = 1.0, i = 0.0;
  for (int k = n; k >= 1; --k) {
    i += jwc * v;
    v += r * i;
  }
  return 1.0 / std::abs(v);
}

std::string fail(const std::string& what, double got) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (got %.6g)", what.c_str(), got);
  return buf;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep_hot", "cold_topology"};
  return names;
}

std::vector<GenDeck> make_pool(const std::string& name, std::uint64_t seed,
                               int size) {
  // Each workload draws from its own stream of the seed.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + fnv1a(name));
  std::vector<GenDeck> pool;
  if (name == "sweep_hot") {
    // The four example topologies, values swept.  VTC and RC take two
    // slots of six each, so the batch median falls in the middle of the
    // VTC class instead of on the gap between two classes (a median that
    // jumps between classes from run to run).
    for (int i = 0; i < size; ++i) {
      switch (i % 6) {
        case 0: pool.push_back(ring(rng)); break;
        case 1: pool.push_back(sram(rng)); break;
        case 2:
        case 3: pool.push_back(inverter_vtc(rng)); break;
        default: pool.push_back(rc_filter(rng)); break;
      }
    }
  } else if (name == "cold_topology") {
    // Every deck a distinct topology: ~3/4 AC ladders of 8..200 sections,
    // ~1/6 step-response ladders of 8..40, the rest inverter chains.
    const int n_tran = size / 6;
    const int n_chain = std::min(9, size / 10);
    const int n_ac = size - n_tran - n_chain;
    for (int n : distinct(rng, 8, 200, n_ac)) pool.push_back(ladder_ac(rng, n));
    for (int n : distinct(rng, 8, 40, n_tran)) {
      pool.push_back(ladder_tran(rng, n));
    }
    for (int n : distinct(rng, 2, 10, n_chain)) {
      pool.push_back(inverter_chain_op(rng, n));
    }
    // Dealt so that every run of consecutive decks carries the pool's mix
    // of kinds and sizes: ordered by kind and size, then slot i takes the
    // deck whose rank matches frac(phase + i / golden ratio), a sequence
    // that spreads any run of consecutive slots evenly.  A request stream
    // takes consecutive decks, so its mix does not hang on the seed.
    std::stable_sort(pool.begin(), pool.end(),
                     [](const GenDeck& a, const GenDeck& b) {
                       return std::make_pair(a.kind, a.n) <
                              std::make_pair(b.kind, b.n);
                     });
    const double phase = rng.uniform();
    std::vector<std::pair<double, std::size_t>> u(pool.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double x = phase + 0.6180339887498949 * static_cast<double>(i);
      u[i] = {x - std::floor(x), i};
    }
    std::sort(u.begin(), u.end());
    std::vector<GenDeck> dealt(pool.size());
    for (std::size_t r = 0; r < u.size(); ++r) {
      dealt[u[r].second] = std::move(pool[r]);
    }
    pool = std::move(dealt);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].id = static_cast<long>(i);
  }
  return pool;
}

std::uint64_t pool_digest(const std::vector<GenDeck>& pool) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const GenDeck& d : pool) h = fnv1a(d.text, h);
  return h;
}

std::string check_result(const GenDeck& d, const carbon::core::Json& doc) {
  const carbon::core::Json* ok = doc.find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) {
    const carbon::core::Json* err = doc.find("error");
    const carbon::core::Json* type = err ? err->find("type") : nullptr;
    return "document not ok (" +
           (type && type->is_string() ? type->as_string()
                                      : std::string("no error type")) +
           ")";
  }
  const carbon::core::Json* steps = doc.find("steps");
  if (!steps || !steps->is_array() || steps->size() == 0) return "no steps";
  const carbon::core::Json& s0 = steps->at(0);
  auto get = [&](const carbon::core::Json& step, const char* name,
                 double* out) {
    const carbon::core::Json* v = measure(step, name);
    if (!v) return false;
    *out = v->as_double();
    return std::isfinite(*out);
  };
  double a = 0.0, b = 0.0;
  switch (d.kind) {
    case DeckKind::kRing: {
      if (!get(s0, "period", &a) || !get(s0, "aswing", &b)) {
        return "missing period/aswing";
      }
      if (!(a > 0.2e-9 && a < 1.5e-9)) return fail("period out of range", a);
      if (!(b > 0.8 * d.vdd && b < 1.05 * d.vdd)) {
        return fail("aswing not ~vdd", b);
      }
      return "";
    }
    case DeckKind::kSram: {
      if (!get(s0, "qfinal", &a) || !get(s0, "qbfinal", &b)) {
        return "missing qfinal/qbfinal";
      }
      if (!near(a, d.vdd, 0.03)) return fail("qfinal not ~vdd", a);
      if (!(std::fabs(b) < 0.05 * d.vdd)) return fail("qbfinal not ~0", b);
      return "";
    }
    case DeckKind::kInverterVtc: {
      if (steps->size() != 2) return "wrong number of .step points";
      for (std::size_t i = 0; i < 2; ++i) {
        const double vdd = i == 0 ? d.vdd : d.vdd2;
        if (!get(steps->at(i), "vswitch", &a) ||
            !get(steps->at(i), "gain", &b)) {
          return "missing vswitch/gain";
        }
        // Matched devices: the switching point sits at vdd/2.
        if (!near(a, vdd / 2.0, 0.02)) return fail("vswitch not ~vdd/2", a);
        if (!(b > 2.0)) return fail("vtc gain too low", b);
      }
      return "";
    }
    case DeckKind::kInverterOp: {
      if (!get(s0, "vout", &a)) return "missing vout";
      const bool in_high = d.vin > 0.5 * d.vdd;
      const bool out_high = (d.n % 2 == 1) != in_high;
      const double want = out_high ? d.vdd : 0.0;
      if (!(std::fabs(a - want) < 0.02 * d.vdd)) {
        return fail("chain output not at the logic level", a);
      }
      return "";
    }
    case DeckKind::kRcFilter: {
      if (!get(s0, "f3db", &a) || !get(s0, "dcgain", &b)) {
        return "missing f3db/dcgain";
      }
      const double fc = 1.0 / (2.0 * kPi * d.r * d.c);
      if (!near(a, fc, 0.01)) return fail("corner not 1/(2 pi R C)", a);
      if (!near(b, 1.0, 1e-3)) return fail("dc gain not 1", b);
      double onpeak = 0.0;
      if (!get(s0, "onpeak", &onpeak) || !(onpeak > 0.0)) {
        return "missing/non-positive output noise";
      }
      return "";
    }
    case DeckKind::kLadderAc: {
      if (!get(s0, "f3db", &a) || !get(s0, "dcgain", &b)) {
        return "missing f3db/dcgain";
      }
      if (!near(b, 1.0, 1e-3)) return fail("dc gain not 1", b);
      const double g = ladder_gain(d.n, d.r, d.c, a);
      if (!near(g, 1.0 / std::sqrt(2.0), 0.01)) {
        return fail("|H| at the reported corner is not -3 dB", g);
      }
      return "";
    }
    case DeckKind::kLadderTran: {
      if (!get(s0, "vfinal", &a) || !get(s0, "t50", &b)) {
        return "missing vfinal/t50";
      }
      if (!near(a, d.vdd, 0.01)) return fail("step response not settled", a);
      const double tau = elmore(d.n, d.r, d.c);
      const double t50 = b - d.delay;
      if (!(t50 > 0.1 * tau && t50 < 2.0 * tau)) {
        return fail("50% crossing far from the Elmore delay", t50);
      }
      return "";
    }
  }
  return "unknown deck kind";
}

}  // namespace perfbench
