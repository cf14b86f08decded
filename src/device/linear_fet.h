#pragma once

/// @file linear_fet.h
/// The "FET without current saturation" of the paper's Fig. 2(b)/(d): a
/// gate-steered triode that turns off below threshold but whose output
/// characteristic is a family of straight lines through the origin —
/// exactly the experimentally observed short-channel GNR behaviour.
///
/// With equally spaced linear output curves (conductance linear in the
/// gate overdrive, threshold near zero) the inverter built from a
/// complementary pair of these devices has a maximum absolute gain that
/// never exceeds unity, so its noise margins are zero: the paper's
/// Fig. 2(d).
///
/// Note the contrast with RealGnrModel: that model reproduces the
/// *measured* wide-sweep transfer data of refs [4,5] (a 1e6 on/off ratio
/// developed over several volts of back-gate drive), while LinearFetModel
/// is the idealized constant-field-scaled device of the Fig. 2 SPICE study.

#include <string>

#include "device/ivmodel.h"

namespace carbon::device {

/// Linear-FET parameters.
struct LinearFetParams {
  std::string name = "linear-fet";
  double v_t = 0.0;          ///< threshold [V] (Fig. 2(b) turns off ~0)
  double k_s_per_v = 4e-4;   ///< transconductance of G(vgs): G = k * ov [S/V]
  double smooth_v = 0.05;    ///< softplus smoothing of the overdrive [V]
  double g_off = 1e-10;      ///< off-state conductance floor [S]
  double width = 1e-6;       ///< normalization width [m]
};

/// Gate-steered linear resistor FET (no saturation whatsoever).
class LinearFetModel final : public IDeviceModel {
 public:
  explicit LinearFetModel(LinearFetParams params);

  double drain_current(double vgs, double vds) const override;
  /// Exact current and conductances from one dual-number pass.
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return params_.name; }
  double width_normalization() const override { return params_.width; }

  /// G(vgs) [S].
  double conductance(double vgs) const;

  const LinearFetParams& params() const { return params_; }

 private:
  /// The I-V expression, written once for double and Dual.
  template <class T>
  T current(T vgs, T vds) const;

  LinearFetParams params_;
};

/// Fig. 2(b) calibration: same on-current as the Fig. 2(a) saturating FET
/// at VGS = VDS = 1 V (~0.4 mA), equally spaced linear curves.
LinearFetParams make_fig2_linear_params();

}  // namespace carbon::device
