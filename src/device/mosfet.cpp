#include "device/mosfet.h"

#include <cmath>

#include "device/dual.h"
#include "device/electrostatics.h"
#include "device/series_resistance.h"
#include "phys/constants.h"
#include "phys/fermi.h"
#include "phys/require.h"

namespace carbon::device {

using phys::kBoltzmannEv;

double VirtualSourceParams::scale_length_m() const {
  // Dark space adds to the electrical oxide thickness in inversion,
  // referred through the permittivity ratio (Skotnicki & Boeuf).
  const double t_ox_inv = t_ox_phys + dark_space * eps_ox / eps_ch;
  return scale_length(eps_ch, eps_ox, t_ch, t_ox_inv);
}

double VirtualSourceParams::dibl() const {
  const double lambda = scale_length_m();
  return dibl_prefactor_mv_v * 1e-3 * std::exp(-gate_length / (2.0 * lambda));
}

double VirtualSourceParams::ideality() const {
  const double lambda = scale_length_m();
  const double ss = ss_long_mv_dec *
                    (1.0 + ss_degradation *
                               std::exp(-gate_length / (2.0 * lambda)));
  const double ss_ideal = kBoltzmannEv * temperature_k * std::log(10.0) * 1e3;
  return ss / ss_ideal;
}

/// Resistance-free inner model handed to the generic series solver.
class VirtualSourceModel::IntrinsicView final : public IDeviceModel {
 public:
  explicit IntrinsicView(const VirtualSourceModel& owner) : owner_(owner) {}
  double drain_current(double vgs, double vds) const override {
    return owner_.current(vgs, vds);
  }
  DeviceEval eval(double vgs, double vds) const override {
    return eval_dual([this](Dual g, Dual d) { return owner_.current(g, d); },
                     vgs, vds);
  }
  const std::string& name() const override { return owner_.name(); }

 private:
  const VirtualSourceModel& owner_;
};

VirtualSourceModel::~VirtualSourceModel() = default;

VirtualSourceModel::VirtualSourceModel(VirtualSourceParams params)
    : params_(std::move(params)) {
  CARBON_REQUIRE(params_.gate_length > 0.0, "gate length must be positive");
  CARBON_REQUIRE(params_.width > 0.0, "width must be positive");
  CARBON_REQUIRE(params_.c_inv > 0.0 && params_.v_inj > 0.0 &&
                     params_.mobility > 0.0,
                 "transport parameters must be positive");
  const double vt_th = kBoltzmannEv * params_.temperature_k;  // kT/q
  const double n = params_.ideality();
  dibl_ = params_.dibl();
  n_vt_ = n * vt_th;
  q_scale_ = params_.c_inv * n * vt_th;
  v_dsat_ = params_.v_inj * params_.gate_length / params_.mobility +
            2.0 * vt_th;
  inv_beta_ = 1.0 / params_.beta_sat;
  const double w_um = params_.width * 1e6;
  rs_ = params_.rs_ohm_um / w_um;
  rd_ = params_.rd_ohm_um / w_um;
  intrinsic_view_ = std::make_unique<IntrinsicView>(*this);
}

template <class T>
T VirtualSourceModel::current(T vgs, T vds) const {
  using phys::softplus;
  using std::pow;
  if (vds < 0.0) return -current(vgs - vds, -vds);

  const T vt_eff = params_.v_t0 - dibl_ * vds;

  // Smooth unified charge: exponential below threshold, linear above.
  const T eta = (vgs - vt_eff) / n_vt_;
  const T q_inv = q_scale_ * softplus(eta);  // [C/m^2]

  // Saturation knee between the mobility-limited linear region and the
  // injection-velocity-limited saturation region.
  const T x = vds / v_dsat_;
  const T f_sat = x / pow(1.0 + pow(x, params_.beta_sat), inv_beta_);

  return q_inv * params_.v_inj * f_sat * params_.width;
}

double VirtualSourceModel::drain_current(double vgs, double vds) const {
  if (rs_ == 0.0 && rd_ == 0.0) return current(vgs, vds);
  return solve_with_series_resistance(*intrinsic_view_, vgs, vds, rs_, rd_);
}

DeviceEval VirtualSourceModel::eval(double vgs, double vds) const {
  return eval_with_series_resistance(*intrinsic_view_, vgs, vds, rs_, rd_);
}

VirtualSourceParams make_si_trigate_params(double gate_length_m) {
  VirtualSourceParams p;
  p.name = "si-trigate";
  p.gate_length = gate_length_m;
  p.width = 88e-9;  // Weff = 2*35 + 18 nm per fin
  p.v_t0 = 0.40;
  p.ss_long_mv_dec = 66.0;
  p.c_inv = 2.7e-2;        // EOT ~ 1.1 nm incl. Si dark space
  p.v_inj = 0.50e5;        // ~0.5e7 cm/s apparent (Rext-degraded)
  p.mobility = 0.020;
  p.beta_sat = 1.8;
  p.rs_ohm_um = 90.0;
  p.rd_ohm_um = 90.0;
  p.eps_ch = 11.7;
  p.eps_ox = 3.9;
  p.t_ch = 9e-9;           // fin half-width electrostatics (trigate)
  p.t_ox_phys = 0.9e-9;
  p.dark_space = 0.35e-9;  // Si: high DOS, small centroid offset
  return p;
}

VirtualSourceParams make_inas_hemt_params(double gate_length_m) {
  VirtualSourceParams p;
  p.name = "inas-hemt";
  p.gate_length = gate_length_m;
  p.width = 1e-6;
  p.v_t0 = 0.30;
  p.ss_long_mv_dec = 70.0;
  p.c_inv = 1.4e-2;        // low-DOS channel: large effective EOT
  p.v_inj = 3.2e5;         // ~3.2e7 cm/s (del Alamo)
  p.mobility = 0.9;        // 9000 cm^2/Vs
  p.beta_sat = 1.6;
  p.rs_ohm_um = 190.0;
  p.rd_ohm_um = 190.0;
  p.eps_ch = 15.1;
  p.eps_ox = 9.0;          // Al2O3/high-k composite
  p.t_ch = 10e-9;          // quantum-well channel
  p.t_ox_phys = 1.2e-9;
  p.dark_space = 1.8e-9;   // low DOS + high eps: large dark space (ref [1])
  return p;
}

VirtualSourceParams make_ingaas_hemt_params(double gate_length_m) {
  VirtualSourceParams p = make_inas_hemt_params(gate_length_m);
  p.name = "ingaas-hemt";
  p.v_inj = 2.5e5;
  p.mobility = 0.55;
  p.c_inv = 1.5e-2;
  p.dark_space = 1.5e-9;
  p.eps_ch = 13.9;
  return p;
}

}  // namespace carbon::device
