#pragma once

/// @file mosfet.h
/// Virtual-source (MVS-class) compact model for the benchmark baselines of
/// the paper's Fig. 5: the Intel-style Si trigate FinFET and the
/// InAs/InGaAs high-mobility HEMTs benchmarked by del Alamo (ref [18]).
/// Short-channel degradation (SS, DIBL) follows scale-length electrostatics
/// including the Skotnicki–Boeuf dark-space penalty of low-DOS high-k
/// channels (ref [1]) — the effect that makes III-V FETs fall off at short
/// gate length while the single-atomic-layer CNT does not (Section III.C).

#include <string>

#include "device/ivmodel.h"

namespace carbon::device {

/// Virtual-source MOSFET parameters (all per-width quantities in SI).
struct VirtualSourceParams {
  std::string name = "vs-mosfet";

  double gate_length = 30e-9;       ///< [m]
  double width = 1e-6;              ///< normalization width [m]

  double v_t0 = 0.35;               ///< long-channel threshold [V]
  double ss_long_mv_dec = 68.0;     ///< long-channel subthreshold swing
  double c_inv = 2.6e-2;            ///< effective inversion cap [F/m^2]
  double v_inj = 0.9e5;             ///< injection velocity [m/s]
  double mobility = 0.025;          ///< apparent mobility [m^2/Vs]
  double beta_sat = 1.8;            ///< saturation-knee sharpness
  double rs_ohm_um = 80.0;          ///< source access resistance [Ohm um]
  double rd_ohm_um = 80.0;          ///< drain access resistance [Ohm um]

  // --- short-channel electrostatics ---
  double eps_ch = 11.7;             ///< channel permittivity (relative)
  double eps_ox = 3.9;              ///< gate-oxide permittivity (relative)
  double t_ch = 8e-9;               ///< electrostatic body thickness [m]
  double t_ox_phys = 1.0e-9;        ///< physical EOT [m]
  double dark_space = 0.4e-9;       ///< charge-centroid dark space [m]
  double dibl_prefactor_mv_v = 900; ///< DIBL at Lg -> 0 [mV/V]
  double ss_degradation = 1.2;      ///< SS growth prefactor

  double temperature_k = 300.0;

  /// Electrostatic scale length including the dark-space EOT penalty [m].
  double scale_length_m() const;
  /// Effective DIBL [V/V] at this gate length.
  double dibl() const;
  /// Effective subthreshold ideality n = SS / (60 mV/dec at 300 K).
  double ideality() const;
};

/// Virtual-source MOSFET model (n-type).  Current flow:
///   Id/W = Q_inv(vgs', vds) * v_inj * Fsat(vds'),
/// with the standard smooth-log charge, DIBL-shifted threshold and a
/// beta-knee saturation function; access resistances are solved
/// self-consistently.
class VirtualSourceModel final : public IDeviceModel {
 public:
  explicit VirtualSourceModel(VirtualSourceParams params);
  ~VirtualSourceModel() override;  // out-of-line: IntrinsicView is incomplete

  double drain_current(double vgs, double vds) const override;
  /// Exact conductances: one dual-number pass of the intrinsic current at
  /// the solved internal bias, mapped through the access resistances.
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return params_.name; }
  double width_normalization() const override { return params_.width; }

  const VirtualSourceParams& params() const { return params_; }

 private:
  class IntrinsicView;

  /// The intrinsic I-V expression, written once for double and Dual.
  template <class T>
  T current(T vgs, T vds) const;

  VirtualSourceParams params_;
  // Bias-independent constants derived from params_ at construction.
  double dibl_;      ///< DIBL [V/V]
  double n_vt_;      ///< ideality x kT/q [V]
  double q_scale_;   ///< c_inv x ideality x kT/q [C/m^2]
  double v_dsat_;    ///< saturation-knee voltage [V]
  double inv_beta_;  ///< 1 / beta_sat
  double rs_, rd_;   ///< access resistances at this width [Ohm]
  std::unique_ptr<IntrinsicView> intrinsic_view_;
};

/// Intel-class 30 nm trigate Si FinFET (fin 35 nm tall / 18 nm wide,
/// Weff = 88 nm) calibrated to ~66 uA per fin at VGS = VDS = 1 V (paper
/// Section III.E).
VirtualSourceParams make_si_trigate_params(double gate_length_m = 30e-9);

/// InAs HEMT per del Alamo's benchmark (high v_inj, large dark space).
VirtualSourceParams make_inas_hemt_params(double gate_length_m = 30e-9);

/// In(0.7)Ga(0.3)As HEMT: slightly lower injection velocity than InAs.
VirtualSourceParams make_ingaas_hemt_params(double gate_length_m = 30e-9);

}  // namespace carbon::device
