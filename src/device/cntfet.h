#pragma once

/// @file cntfet.h
/// Quasi-ballistic CNT-FET compact model: zone-folded CNT subbands inside a
/// self-consistent top-of-barrier solver, with phonon-limited transmission,
/// an optical-phonon current ceiling, and optional contact series
/// resistance.  This is the model used for the paper's Figs. 1, 2, 4 and the
/// CNT points of Fig. 5.

#include <optional>
#include <string>

#include "band/cnt.h"
#include "device/electrostatics.h"
#include "device/ivmodel.h"
#include "transport/mfp.h"
#include "transport/top_of_barrier.h"

namespace carbon::device {

/// Construction parameters of a CntfetModel.
struct CntfetParams {
  std::string name = "cntfet";

  /// Tube chirality; ignored when band_gap_override is set.
  band::Chirality chirality{19, 0};  // d ~ 1.49 nm, Eg ~ 0.57 eV

  /// Directly prescribe the band gap [eV] (Fig. 1 uses exactly 0.56 eV).
  std::optional<double> band_gap_override;

  /// Number of conduction subbands to keep.
  int num_subbands = 3;

  /// Physical gate length = transport length for the MFP model [m].
  double gate_length = 20e-9;

  /// Gate stack (geometry, oxide, dielectric).
  GateStack gate;

  /// Override the gate/drain coupling derived from the gate stack.  Used to
  /// model measured devices whose electrostatics are worse than their
  /// nominal geometry (e.g. the bottom-gated length-scaling devices behind
  /// Fig. 5, SS ~ 90-95 mV/dec).
  std::optional<double> alpha_g_override;
  std::optional<double> alpha_d_override;

  /// Source Fermi level relative to midgap at flat band [eV]; sets Ioff.
  double ef_source_ev = -0.30;

  /// Phonon mean-free paths.
  transport::MfpModel mfp;

  /// Fully ballistic (transmission = 1, no OP ceiling) when true.
  bool ballistic = false;

  /// Optical-phonon-limited per-tube current ceiling [A] applied as a
  /// smooth soft-minimum; experimental single-tube currents saturate around
  /// 20-25 uA.  Ignored when ballistic.
  double op_current_ceiling_a = 30e-6;
  /// Sharpness of the soft-minimum (higher = later, harder limiting).
  double op_ceiling_order = 4.0;

  /// Contact series resistance per terminal [Ohm] (0 = ideal; Fig. 4 uses
  /// 50 kOhm on each side).
  double r_source_ohm = 0.0;
  double r_drain_ohm = 0.0;

  /// Include the valence band (ambipolar branch).  Off by default: the
  /// benchmark devices are MOSFET-like CNTFETs with doped contacts that
  /// block the hole path; enable for Schottky-type ambipolar studies.
  bool include_holes = false;

  double temperature_k = 300.0;
};

/// n-type CNT-FET model (wrap with PTypeMirror for the complementary FET).
class CntfetModel final : public IDeviceModel {
 public:
  explicit CntfetModel(CntfetParams params);
  ~CntfetModel() override;  // out-of-line: IntrinsicView is incomplete here

  double drain_current(double vgs, double vds) const override;
  /// Finite-difference conductances of the intrinsic device, mapped
  /// through the contact resistances (one series solve, not five).
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return params_.name; }
  double width_normalization() const override { return diameter_; }

  const CntfetParams& params() const { return params_; }
  double diameter() const { return diameter_; }
  double band_gap() const { return band_gap_; }
  const transport::TopOfBarrierSolver& barrier_solver() const {
    return *solver_;
  }

  /// Intrinsic current (no series resistance) — used by the series solver
  /// and exposed for diagnostics.
  double intrinsic_current(double vgs, double vds) const;

 private:
  CntfetParams params_;
  double diameter_ = 0.0;
  double band_gap_ = 0.0;
  std::unique_ptr<transport::TopOfBarrierSolver> solver_;

  /// Private intrinsic view used by solve_with_series_resistance.
  class IntrinsicView;
  std::unique_ptr<IntrinsicView> intrinsic_view_;
};

/// The paper's Fig. 1 CNT-FET: Eg = 0.56 eV, ballistic, ideal GAA gate.
CntfetParams make_fig1_cntfet_params();

/// A realistic scaled CNT-FET in the spirit of Franklin et al. (refs [6],
/// [13], [14]): d ~ 1.3 nm tube, GAA high-k gate, quasi-ballistic.
CntfetParams make_franklin_cntfet_params(double gate_length_m);

}  // namespace carbon::device
