#pragma once

/// @file series_resistance.h
/// Source/drain series resistance handling.  The paper's Fig. 4 shows how a
/// 50 kOhm resistance on each contact degrades an ideal CNTFET: the current
/// drops and the output characteristic becomes linear (saturation is pushed
/// out of the usable voltage window).  This wrapper reproduces exactly that
/// experiment for any intrinsic model.

#include "device/ivmodel.h"

namespace carbon::device {

/// Solve the internal bias of a transistor with external series resistors:
/// given external (vgs, vds) find I such that
///   I = intrinsic(vgs - I*rs, vds - I*(rs + rd)).
/// Works for both polarities; monotone in I so the root is unique.
double solve_with_series_resistance(const IDeviceModel& intrinsic, double vgs,
                                    double vds, double rs_ohm, double rd_ohm);

/// Current and conductances with series resistors, from one solve: the
/// current I comes from solve_with_series_resistance (so `id` equals the
/// adapter's drain_current bit for bit) and one intrinsic eval() at the
/// internal bias (vgs - I rs, vds - I (rs + rd)) gives g_m and g_ds.  The
/// implicit-function theorem on I = intrinsic(vgs - I rs, vds - I (rs+rd))
/// then gives the external conductances
///   gm = g_m / D,  gds = g_ds / D,  D = 1 + g_m rs + g_ds (rs + rd).
DeviceEval eval_with_series_resistance(const IDeviceModel& intrinsic,
                                       double vgs, double vds, double rs_ohm,
                                       double rd_ohm);

/// IDeviceModel adapter adding rs/rd around an intrinsic model.
class SeriesResistanceModel final : public IDeviceModel {
 public:
  SeriesResistanceModel(DeviceModelPtr intrinsic, double rs_ohm,
                        double rd_ohm);

  double drain_current(double vgs, double vds) const override;
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return name_; }
  Polarity polarity() const override { return intrinsic_->polarity(); }
  double width_normalization() const override {
    return intrinsic_->width_normalization();
  }
  NoiseParams noise_params() const override {
    return intrinsic_->noise_params();
  }

  double rs() const { return rs_; }
  double rd() const { return rd_; }

 private:
  DeviceModelPtr intrinsic_;
  double rs_, rd_;
  std::string name_;
};

}  // namespace carbon::device
