#pragma once

/// @file alpha_power.h
/// Sakurai–Newton alpha-power-law MOSFET: the classic "well-behaved FET
/// with current saturation" used for the paper's Fig. 2(a)/(c) inverter.
/// It saturates above Vdsat but keeps a finite output conductance — the
/// paper notes its Fig. 2(a) device is "a more realistic model as it has
/// not a perfect saturation behavior".

#include <string>

#include "device/ivmodel.h"

namespace carbon::device {

/// Alpha-power-law parameters.
struct AlphaPowerParams {
  std::string name = "alpha-power-fet";
  double v_t = 0.2;          ///< threshold voltage [V]
  double alpha = 1.3;        ///< velocity-saturation exponent (1..2)
  double k_sat = 60e-6;      ///< saturation current factor [A/V^alpha]
  double lambda = 0.08;      ///< channel-length modulation [1/V]
  double ss_mv_dec = 80.0;   ///< subthreshold swing [mV/dec]
  double i_off_floor = 1e-12;///< leakage floor [A]
  double width = 1e-6;       ///< normalization width [m]
};

/// n-type alpha-power-law FET with a smooth subthreshold tail.
class AlphaPowerModel final : public IDeviceModel {
 public:
  explicit AlphaPowerModel(AlphaPowerParams params);

  double drain_current(double vgs, double vds) const override;
  /// Exact current and conductances from one dual-number pass.
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return params_.name; }
  double width_normalization() const override { return params_.width; }

  const AlphaPowerParams& params() const { return params_; }

 private:
  /// The I-V expression, written once for double and Dual.
  template <class T>
  T current(T vgs, T vds) const;

  AlphaPowerParams params_;
  double ss_v_;  ///< subthreshold slope as volts per e-fold
};

/// The Fig. 2 inverter device: saturating I-V reaching ~0.4 mA at
/// VGS = 1 V (constant-field-scaled family as plotted in Fig. 2(a)).
AlphaPowerParams make_fig2_saturating_params();

}  // namespace carbon::device
