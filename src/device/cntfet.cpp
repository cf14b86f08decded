#include "device/cntfet.h"

#include <cmath>

#include "device/series_resistance.h"
#include "phys/require.h"

namespace carbon::device {

/// Adapter exposing the intrinsic (resistance-free) device as an
/// IDeviceModel so the generic series-resistance solver can drive it.
class CntfetModel::IntrinsicView final : public IDeviceModel {
 public:
  explicit IntrinsicView(const CntfetModel& owner) : owner_(owner) {}
  double drain_current(double vgs, double vds) const override {
    return owner_.intrinsic_current(vgs, vds);
  }
  const std::string& name() const override { return owner_.name(); }

 private:
  const CntfetModel& owner_;
};

CntfetModel::~CntfetModel() = default;

CntfetModel::CntfetModel(CntfetParams params) : params_(std::move(params)) {
  CARBON_REQUIRE(params_.gate_length > 0.0, "gate length must be positive");
  CARBON_REQUIRE(params_.num_subbands >= 1, "need at least one subband");

  band::GrapheneParams gp;
  band::SubbandLadder ladder;
  if (params_.band_gap_override.has_value()) {
    band_gap_ = *params_.band_gap_override;
    ladder = band::make_cnt_ladder_from_gap(band_gap_, params_.num_subbands,
                                            gp);
    diameter_ = band::cnt_diameter_from_gap(band_gap_, gp);
  } else {
    band::CntBandStructure bs(params_.chirality, gp);
    CARBON_REQUIRE(!bs.is_metallic(),
                   "CNTFET channel must be a semiconducting tube");
    band_gap_ = bs.band_gap();
    ladder = bs.ladder(params_.num_subbands);
    diameter_ = bs.diameter();
  }
  // Keep the gate stack consistent with the tube geometry.
  params_.gate.diameter = diameter_;

  transport::TopOfBarrierParams tob;
  tob.ladder = std::move(ladder);
  tob.alpha_g = params_.alpha_g_override.value_or(params_.gate.alpha_g());
  tob.alpha_d = params_.alpha_d_override.value_or(params_.gate.alpha_d());
  tob.c_total = params_.gate.total_capacitance();
  tob.ef_source_ev = params_.ef_source_ev;
  tob.temperature_k = params_.temperature_k;
  tob.include_holes = params_.include_holes;
  tob.transmission = 1.0;  // per-bias transmission applied to the current
  solver_ = std::make_unique<transport::TopOfBarrierSolver>(tob);
  intrinsic_view_ = std::make_unique<IntrinsicView>(*this);
}

double CntfetModel::intrinsic_current(double vgs, double vds) const {
  // The model is defined for vds >= 0; use source/drain exchange symmetry
  // I(vgs, -vds) = -I(vgs - vds, vds) of a symmetric device for reverse
  // bias so the SPICE engine can hand us any operating point.
  if (vds < 0.0) return -intrinsic_current(vgs - vds, -vds);

  const double ballistic_i = solver_->current(vgs, vds);
  if (params_.ballistic) return ballistic_i;

  // Quasi-ballistic: low-field transmission through the channel.
  const double t_channel =
      params_.mfp.lambda_acoustic /
      (params_.mfp.lambda_acoustic + params_.gate_length);
  double i = ballistic_i * t_channel;

  // Optical-phonon ceiling: a smooth soft-min toward the per-tube
  // saturation current.  Preserves monotonicity in both terminals and the
  // saturating shape of the output characteristic.
  const double i_max = params_.op_current_ceiling_a;
  if (i_max > 0.0) {
    const double m = params_.op_ceiling_order;
    const double ratio = std::abs(i) / i_max;
    i = i / std::pow(1.0 + std::pow(ratio, m), 1.0 / m);
  }
  return i;
}

double CntfetModel::drain_current(double vgs, double vds) const {
  if (params_.r_source_ohm == 0.0 && params_.r_drain_ohm == 0.0) {
    return intrinsic_current(vgs, vds);
  }
  return solve_with_series_resistance(*intrinsic_view_, vgs, vds,
                                      params_.r_source_ohm,
                                      params_.r_drain_ohm);
}

DeviceEval CntfetModel::eval(double vgs, double vds) const {
  return eval_with_series_resistance(*intrinsic_view_, vgs, vds,
                                     params_.r_source_ohm,
                                     params_.r_drain_ohm);
}

CntfetParams make_fig1_cntfet_params() {
  CntfetParams p;
  p.name = "cnt-fet(Eg=0.56eV)";
  p.band_gap_override = 0.56;
  p.num_subbands = 3;
  p.gate_length = 15e-9;
  p.gate.geometry = GateGeometry::kGateAllAround;
  p.gate.t_ox = 2e-9;
  p.gate.eps_r = 16.0;
  p.ef_source_ev = -0.14;  // threshold ~0.35 V: on-current ~5 uA at 0.5 V
  p.ballistic = true;  // ref [3] simulated ballistic limits
  return p;
}

CntfetParams make_franklin_cntfet_params(double gate_length_m) {
  CntfetParams p;
  p.name = "cnt-fet(franklin)";
  p.chirality = {17, 0};  // d ~ 1.33 nm, Eg ~ 0.64 eV
  p.num_subbands = 3;
  p.gate_length = gate_length_m;
  p.gate.geometry = GateGeometry::kGateAllAround;
  p.gate.t_ox = 3e-9;
  p.gate.eps_r = 16.0;
  p.ef_source_ev = -0.06;  // ~20 uA at VGS=VDS=0.6 V (Franklin wrap gate)
  p.ballistic = false;
  return p;
}

}  // namespace carbon::device
