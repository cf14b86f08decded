#include "device/linear_fet.h"

#include <cmath>

#include "device/dual.h"
#include "phys/fermi.h"
#include "phys/require.h"

namespace carbon::device {

LinearFetModel::LinearFetModel(LinearFetParams params)
    : params_(std::move(params)) {
  CARBON_REQUIRE(params_.k_s_per_v > 0.0, "k must be positive");
  CARBON_REQUIRE(params_.smooth_v > 0.0, "smoothing must be positive");
}

template <class T>
T LinearFetModel::current(T vgs, T vds) const {
  using phys::softplus;
  const T ov = params_.smooth_v *
               softplus((vgs - params_.v_t) / params_.smooth_v);
  const T g = params_.k_s_per_v * ov + params_.g_off;
  return g * vds;  // straight lines through the origin
}

double LinearFetModel::conductance(double vgs) const {
  return current(vgs, 1.0);  // G * 1 V, exact
}

double LinearFetModel::drain_current(double vgs, double vds) const {
  return current(vgs, vds);
}

DeviceEval LinearFetModel::eval(double vgs, double vds) const {
  return eval_dual([this](Dual g, Dual d) { return current(g, d); }, vgs,
                   vds);
}

LinearFetParams make_fig2_linear_params() {
  LinearFetParams p;
  p.name = "fig2-linear-fet";
  p.v_t = 0.0;
  p.k_s_per_v = 4.3e-4;  // I(1,1) ~ 0.43 mA, matching the saturating twin
  p.smooth_v = 0.05;
  return p;
}

}  // namespace carbon::device
