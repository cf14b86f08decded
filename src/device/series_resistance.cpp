#include "device/series_resistance.h"

#include <algorithm>
#include <cmath>

#include "phys/require.h"
#include "phys/roots.h"

namespace carbon::device {

double solve_with_series_resistance(const IDeviceModel& intrinsic, double vgs,
                                    double vds, double rs_ohm, double rd_ohm) {
  CARBON_REQUIRE(rs_ohm >= 0.0 && rd_ohm >= 0.0,
                 "series resistances must be non-negative");
  if (rs_ohm == 0.0 && rd_ohm == 0.0) {
    return intrinsic.drain_current(vgs, vds);
  }
  const double i0 = intrinsic.drain_current(vgs, vds);
  if (i0 == 0.0) return 0.0;

  // F(I) = intrinsic(vgs - I rs, vds - I (rs+rd)) - I is strictly
  // decreasing in I (raising I lowers both internal drives), so the root is
  // bracketed by 0 and the ideal current i0 (for either current sign).
  const auto f = [&](double i) {
    return intrinsic.drain_current(vgs - i * rs_ohm,
                                   vds - i * (rs_ohm + rd_ohm)) -
           i;
  };
  double lo = std::min(0.0, i0);
  double hi = std::max(0.0, i0);
  // Guard against flat numerical edges: expand a hair.
  const double pad = 1e-3 * (hi - lo) + 1e-18;
  lo -= pad;
  hi += pad;
  return phys::brent(f, lo, hi, std::abs(i0) * 1e-10 + 1e-18);
}

DeviceEval eval_with_series_resistance(const IDeviceModel& intrinsic,
                                       double vgs, double vds, double rs_ohm,
                                       double rd_ohm) {
  if (rs_ohm == 0.0 && rd_ohm == 0.0) return intrinsic.eval(vgs, vds);
  const double i =
      solve_with_series_resistance(intrinsic, vgs, vds, rs_ohm, rd_ohm);
  const DeviceEval in =
      intrinsic.eval(vgs - i * rs_ohm, vds - i * (rs_ohm + rd_ohm));
  const double denom = 1.0 + in.gm * rs_ohm + in.gds * (rs_ohm + rd_ohm);
  return {i, in.gm / denom, in.gds / denom};
}

SeriesResistanceModel::SeriesResistanceModel(DeviceModelPtr intrinsic,
                                             double rs_ohm, double rd_ohm)
    : intrinsic_(std::move(intrinsic)), rs_(rs_ohm), rd_(rd_ohm) {
  CARBON_REQUIRE(intrinsic_ != nullptr, "null intrinsic model");
  CARBON_REQUIRE(rs_ >= 0.0 && rd_ >= 0.0,
                 "series resistances must be non-negative");
  name_ = intrinsic_->name() + "+Rsd";
}

double SeriesResistanceModel::drain_current(double vgs, double vds) const {
  return solve_with_series_resistance(*intrinsic_, vgs, vds, rs_, rd_);
}

DeviceEval SeriesResistanceModel::eval(double vgs, double vds) const {
  return eval_with_series_resistance(*intrinsic_, vgs, vds, rs_, rd_);
}

}  // namespace carbon::device
