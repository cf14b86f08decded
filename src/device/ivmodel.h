#pragma once

/// @file ivmodel.h
/// The common transistor-model interface every compact model in this
/// library implements, plus numeric characterization helpers (sweeps,
/// threshold, subthreshold slope, small-signal parameters).

#include <cmath>
#include <memory>
#include <string>

#include "phys/table.h"

namespace carbon::device {

/// Channel polarity.  P-type models use mirrored conventions: for a pFET
/// both vgs and vds are <= 0 in normal operation and the drain current is
/// <= 0 (current flows source -> drain internally).
enum class Polarity { kNType, kPType };

/// One-shot small-signal evaluation of a device model at a bias point: the
/// drain current together with both conductances.  This is the unit of work
/// a SPICE Newton iteration consumes per transistor.
struct DeviceEval {
  double id = 0.0;   ///< drain current [A]
  double gm = 0.0;   ///< transconductance dId/dVgs [S]
  double gds = 0.0;  ///< output conductance dId/dVds [S]

  /// True when every component is finite.  The stamp layer rejects a
  /// non-finite evaluation by element name instead of letting a NaN/Inf
  /// poison the Jacobian silently.
  bool is_finite() const {
    return std::isfinite(id) && std::isfinite(gm) && std::isfinite(gds);
  }
};

/// Small-signal noise parameters of a transistor model, SPICE-style.  The
/// channel thermal noise is S_id = gamma * 4kT * gm [A^2/Hz] (gamma = 2/3
/// is the classic long-channel saturation value; quasi-ballistic CNT/GNR
/// channels measure closer to 1); flicker noise is S_id = kf * |Id|^af / f.
/// spice::noise_sweep reads these through Fet::collect_noise.
struct NoiseParams {
  double gamma = 2.0 / 3.0;  ///< channel thermal excess factor
  double kf = 0.0;           ///< flicker (1/f) coefficient [A^(2-af)]
  double af = 1.0;           ///< flicker current exponent
};

/// Abstract DC transistor model: terminal current as a function of terminal
/// voltages.  Implementations must be:
///  * deterministic and continuous in (vgs, vds),
///  * monotone non-decreasing in vgs and in vds for n-type devices in
///    forward operation (the SPICE Newton solver relies on sane curvature),
///  * thread-compatible (const member functions without mutable state).
class IDeviceModel {
 public:
  virtual ~IDeviceModel() = default;

  /// Drain current [A] for gate-source voltage @p vgs and drain-source
  /// voltage @p vds (source is the reference terminal).
  virtual double drain_current(double vgs, double vds) const = 0;

  /// Current and conductances in one call.  The base implementation falls
  /// back to central finite differences (five drain_current calls); the
  /// numeric models (CntTfetModel, GnrfetModel, the intrinsic CntfetModel)
  /// and RealGnrModel use it.  The closed-form models (AlphaPowerModel, LinearFetModel,
  /// VirtualSourceModel) override it with one dual-number pass of their
  /// current expression (device/dual.h): exact derivatives, `id` equal to
  /// drain_current bit for bit.  Series-resistance wrappers map the
  /// intrinsic eval through the implicit-function theorem
  /// (eval_with_series_resistance), and TabulatedDeviceModel reads table
  /// derivatives.
  virtual DeviceEval eval(double vgs, double vds) const;

  /// Human-readable model name used in reports.
  virtual const std::string& name() const = 0;

  /// Polarity of the device.
  virtual Polarity polarity() const { return Polarity::kNType; }

  /// Normalization width [m] used to express currents in mA/um for
  /// cross-technology comparison (CNT: diameter; GNR: ribbon width;
  /// MOSFET: gate width).  Zero means "not normalizable".
  virtual double width_normalization() const { return 0.0; }

  /// Noise parameters of the device (channel thermal gamma, flicker
  /// kf/af).  Defaults to long-channel thermal noise with no flicker;
  /// adapter models forward to their base, and with_noise() overrides them
  /// on any model.
  virtual NoiseParams noise_params() const { return {}; }
};

/// Shared pointer alias used across the circuit layers.
using DeviceModelPtr = std::shared_ptr<const IDeviceModel>;

/// Mirror adapter that turns an n-type model into its complementary p-type
/// twin: Id_p(vgs, vds) = -Id_n(-vgs, -vds).  This is how the paper builds
/// its "symmetrical pFET and nFET" inverter (Fig. 2).
class PTypeMirror final : public IDeviceModel {
 public:
  explicit PTypeMirror(DeviceModelPtr n_model);

  double drain_current(double vgs, double vds) const override;
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return name_; }
  Polarity polarity() const override { return Polarity::kPType; }
  double width_normalization() const override;
  NoiseParams noise_params() const override {
    return n_model_->noise_params();
  }

 private:
  DeviceModelPtr n_model_;
  std::string name_;
};

/// Rigid gate-voltage shift (threshold retargeting):
/// Id'(vgs, vds) = Id(vgs + shift, vds).  The Fig. 5 benchmark uses this to
/// re-target every technology to the same off-current before comparing
/// on-currents.
class GateShifted final : public IDeviceModel {
 public:
  GateShifted(DeviceModelPtr base, double shift_v);

  double drain_current(double vgs, double vds) const override;
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return name_; }
  Polarity polarity() const override { return base_->polarity(); }
  double width_normalization() const override {
    return base_->width_normalization();
  }
  NoiseParams noise_params() const override { return base_->noise_params(); }
  double shift() const { return shift_; }

 private:
  DeviceModelPtr base_;
  double shift_;
  std::string name_;
};

/// Decorator that attaches explicit noise parameters to any model without
/// touching its I–V behaviour: the Kf/Af flicker pair and the channel
/// thermal gamma the paper-level RF/analog comparisons sweep.
class WithNoise final : public IDeviceModel {
 public:
  WithNoise(DeviceModelPtr base, NoiseParams params);

  double drain_current(double vgs, double vds) const override {
    return base_->drain_current(vgs, vds);
  }
  DeviceEval eval(double vgs, double vds) const override {
    return base_->eval(vgs, vds);
  }
  const std::string& name() const override { return base_->name(); }
  Polarity polarity() const override { return base_->polarity(); }
  double width_normalization() const override {
    return base_->width_normalization();
  }
  NoiseParams noise_params() const override { return params_; }

 private:
  DeviceModelPtr base_;
  NoiseParams params_;
};

/// Convenience factory for the WithNoise decorator.
DeviceModelPtr with_noise(DeviceModelPtr base, NoiseParams params);

// ---------------------------------------------------------------------------
// Characterization helpers
// ---------------------------------------------------------------------------

/// Transconductance gm = dId/dVgs by central difference [S].
double transconductance(const IDeviceModel& m, double vgs, double vds,
                        double h = 1e-4);

/// Output conductance gds = dId/dVds by central difference [S].
double output_conductance(const IDeviceModel& m, double vgs, double vds,
                          double h = 1e-4);

/// Intrinsic voltage gain gm/gds (the quantity that collapses for the
/// paper's non-saturating GNRs).
double intrinsic_gain(const IDeviceModel& m, double vgs, double vds);

/// Subthreshold swing [mV/dec] evaluated between two gate voltages on the
/// transfer curve at fixed vds (log-slope average).
double subthreshold_swing_mv_dec(const IDeviceModel& m, double vgs_lo,
                                 double vgs_hi, double vds);

/// Minimum point subthreshold swing over a swept range [mV/dec]: the "best
/// individual sweep points" number the paper quotes for the TFET.
double min_point_swing_mv_dec(const IDeviceModel& m, double vgs_lo,
                              double vgs_hi, double vds, int points = 101);

/// Constant-current threshold voltage: vgs where |Id| crosses
/// @p i_crit_a at the given vds.  Requires the transfer curve to cross.
double threshold_voltage(const IDeviceModel& m, double i_crit_a, double vds,
                         double vgs_lo, double vgs_hi);

/// DIBL [mV/V] from the threshold shift between a low and a high drain bias.
double dibl_mv_per_v(const IDeviceModel& m, double i_crit_a, double vds_lin,
                     double vds_sat, double vgs_lo, double vgs_hi);

/// Transfer curve Id(vgs) at fixed vds.  Columns: vgs, id_a.
phys::DataTable transfer_curve(const IDeviceModel& m, double vgs_lo,
                               double vgs_hi, int points, double vds);

/// Output family Id(vds) for a list of gate voltages.
/// Columns: vds, id_a@vg0, id_a@vg1, ...
phys::DataTable output_family(const IDeviceModel& m, double vds_lo,
                              double vds_hi, int points,
                              const std::vector<double>& vgs_values);

}  // namespace carbon::device
