#pragma once

/// @file dual.h
/// Forward-mode dual number with two derivative lanes, used to get a
/// closed-form model's current and both conductances from one pass of its
/// current expression: seed vgs as (v, 1, 0) and vds as (v, 0, 1), evaluate
/// the model's `current<Dual>`, and read {id, gm, gds} off the result.
///
/// The value lane performs exactly the floating-point operations of the
/// plain-double expression, in the same order, so `current<Dual>(...).v` is
/// bit-identical to `current<double>(...)`.  Every operator below keeps that
/// property: mixed Dual/double operations compute the value lane with the
/// same operator on the same operands (x / s divides, it never multiplies by
/// a reciprocal).  Comparisons look at the value lane only.

#include <cmath>

#include "device/ivmodel.h"
#include "phys/fermi.h"

namespace carbon::device {

struct Dual {
  double v = 0.0;   ///< value
  double dg = 0.0;  ///< derivative with respect to vgs
  double dd = 0.0;  ///< derivative with respect to vds

  Dual() = default;
  // Implicit on purpose: constants in a templated expression promote.
  Dual(double value) : v(value) {}  // NOLINT(google-explicit-constructor)
  Dual(double value, double d_vgs, double d_vds)
      : v(value), dg(d_vgs), dd(d_vds) {}
};

/// Evaluate a templated current expression `f(vgs, vds)` once with duals.
template <class F>
DeviceEval eval_dual(F&& f, double vgs, double vds) {
  const Dual r = f(Dual(vgs, 1.0, 0.0), Dual(vds, 0.0, 1.0));
  return {r.v, r.dg, r.dd};
}

// ------------------------------------------------------------- arithmetic

inline Dual operator-(const Dual& a) { return {-a.v, -a.dg, -a.dd}; }

inline Dual operator+(const Dual& a, const Dual& b) {
  return {a.v + b.v, a.dg + b.dg, a.dd + b.dd};
}
inline Dual operator+(const Dual& a, double b) { return {a.v + b, a.dg, a.dd}; }
inline Dual operator+(double a, const Dual& b) { return {a + b.v, b.dg, b.dd}; }

inline Dual operator-(const Dual& a, const Dual& b) {
  return {a.v - b.v, a.dg - b.dg, a.dd - b.dd};
}
inline Dual operator-(const Dual& a, double b) { return {a.v - b, a.dg, a.dd}; }
inline Dual operator-(double a, const Dual& b) { return {a - b.v, -b.dg, -b.dd}; }

inline Dual operator*(const Dual& a, const Dual& b) {
  return {a.v * b.v, a.dg * b.v + a.v * b.dg, a.dd * b.v + a.v * b.dd};
}
inline Dual operator*(const Dual& a, double b) {
  return {a.v * b, a.dg * b, a.dd * b};
}
inline Dual operator*(double a, const Dual& b) {
  return {a * b.v, a * b.dg, a * b.dd};
}

inline Dual operator/(const Dual& a, const Dual& b) {
  const double b2 = b.v * b.v;
  return {a.v / b.v, (a.dg * b.v - a.v * b.dg) / b2,
          (a.dd * b.v - a.v * b.dd) / b2};
}
inline Dual operator/(const Dual& a, double b) {
  return {a.v / b, a.dg / b, a.dd / b};
}

// ------------------------------------------------------------ comparisons

inline bool operator<(const Dual& a, double b) { return a.v < b; }
inline bool operator>(const Dual& a, double b) { return a.v > b; }
inline bool operator<=(const Dual& a, double b) { return a.v <= b; }
inline bool operator>=(const Dual& a, double b) { return a.v >= b; }
inline bool operator>=(const Dual& a, const Dual& b) { return a.v >= b.v; }

// -------------------------------------------------------------- functions

inline Dual exp(const Dual& a) {
  const double e = std::exp(a.v);
  return {e, e * a.dg, e * a.dd};
}

inline Dual log1p(const Dual& a) {
  const double s = 1.0 + a.v;
  return {std::log1p(a.v), a.dg / s, a.dd / s};
}

/// x^p.  The derivative is p * x^(p-1), never p * x^p / x: at x = 0 (an
/// underflowed overdrive) the quotient form is 0/0.
inline Dual pow(const Dual& a, double p) {
  const double s = p * std::pow(a.v, p - 1.0);
  return {std::pow(a.v, p), a.dg * s, a.dd * s};
}

inline Dual tanh(const Dual& a) {
  const double t = std::tanh(a.v);
  const double s = 1.0 - t * t;
  return {t, a.dg * s, a.dd * s};
}

/// ln(1 + e^x) with phys::softplus on the value lane; its derivative is the
/// logistic function, evaluated without overflow on either side.
inline Dual softplus(const Dual& a) {
  double sig;
  if (a.v >= 0.0) {
    sig = 1.0 / (1.0 + std::exp(-a.v));
  } else {
    const double e = std::exp(a.v);
    sig = e / (1.0 + e);
  }
  return {phys::softplus(a.v), a.dg * sig, a.dd * sig};
}

}  // namespace carbon::device
