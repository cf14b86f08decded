#include "device/alpha_power.h"

#include <cmath>

#include "device/dual.h"
#include "phys/require.h"

namespace carbon::device {

AlphaPowerModel::AlphaPowerModel(AlphaPowerParams params)
    : params_(std::move(params)),
      ss_v_(params_.ss_mv_dec * 1e-3 / std::log(10.0)) {  // V/e-fold
  CARBON_REQUIRE(params_.alpha >= 1.0 && params_.alpha <= 2.0,
                 "alpha outside the physical 1..2 range");
  CARBON_REQUIRE(params_.k_sat > 0.0, "k_sat must be positive");
  CARBON_REQUIRE(params_.ss_mv_dec > 0.0, "SS must be positive");
}

template <class T>
T AlphaPowerModel::current(T vgs, T vds) const {
  using std::exp;
  using std::log1p;
  using std::pow;
  using std::tanh;
  if (vds < 0.0) return -current(vgs - vds, -vds);

  // Smooth overdrive: exponential subthreshold blending into (Vgs-Vt).
  const T ov = ss_v_ * log1p(exp((vgs - params_.v_t) / ss_v_));

  const T i_dsat =
      params_.k_sat * pow(ov, params_.alpha) * (1.0 + params_.lambda * vds);
  // Vdsat scales with overdrive (alpha-power form: Vdsat = Kv * ov^(a/2)),
  // floored at 50 mV.
  T v_dsat = 0.9 * pow(ov, params_.alpha / 2.0);
  if (v_dsat < 0.05) v_dsat = 0.05;
  T i;
  if (vds >= v_dsat) {
    i = i_dsat;
  } else {
    const T x = vds / v_dsat;
    i = i_dsat * x * (2.0 - x);  // parabolic triode, C1 at the knee
  }
  return i + params_.i_off_floor * tanh(vds / 0.025);
}

double AlphaPowerModel::drain_current(double vgs, double vds) const {
  return current(vgs, vds);
}

DeviceEval AlphaPowerModel::eval(double vgs, double vds) const {
  return eval_dual([this](Dual g, Dual d) { return current(g, d); }, vgs,
                   vds);
}

AlphaPowerParams make_fig2_saturating_params() {
  AlphaPowerParams p;
  p.name = "fig2-saturating-fet";
  p.v_t = 0.2;
  p.alpha = 1.3;
  p.k_sat = 5.0e-4;   // ~0.4 mA at 1 V overdrive ^ 1.3 with lambda term
  p.lambda = 0.08;    // realistic, imperfect saturation
  p.ss_mv_dec = 80.0;
  p.width = 1e-6;
  return p;
}

}  // namespace carbon::device
