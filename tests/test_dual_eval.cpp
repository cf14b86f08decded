// Exact one-pass device evaluation: the dual-number eval() of the
// closed-form models (alpha-power, linear FET, virtual-source) and the
// implicit-function series-resistance eval, each checked against the
// central-difference oracle on a bias grid that crosses every branch of the
// I-V expressions: reverse bias (the exchange-symmetry recursion), vds = 0,
// the triode/saturation knee, the 50 mV v_dsat floor and a gate driven deep
// enough (-30 V) to underflow the subthreshold overdrive to zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "device/alpha_power.h"
#include "device/cntfet.h"
#include "device/linear_fet.h"
#include "device/mosfet.h"
#include "device/series_resistance.h"

namespace {

namespace dev = carbon::device;

/// The triode/saturation knee of the alpha-power model at @p vgs: the same
/// v_dsat expression the model evaluates, floor included.
double alpha_power_knee(const dev::AlphaPowerParams& p, double vgs) {
  const double ss_v = p.ss_mv_dec * 1e-3 / std::log(10.0);
  const double ov = ss_v * std::log1p(std::exp((vgs - p.v_t) / ss_v));
  return std::max(0.9 * std::pow(ov, p.alpha / 2.0), 0.05);
}

std::vector<double> gate_grid() {
  return {-30.0, -1.0, -0.2, 0.0, 0.1, 0.2, 0.25, 0.4, 0.7, 1.0, 1.2};
}

std::vector<double> drain_grid() {
  return {-1.0, -0.5, -0.05, -0.01, 0.0, 0.01, 0.03, 0.0499, 0.05, 0.0501,
          0.1,  0.3,  0.5,   0.8,   1.0};
}

/// |a - b| <= rel * |b| + abs_floor.
::testing::AssertionResult near_rel(double a, double b, double rel,
                                    double abs_floor) {
  if (std::abs(a - b) <= rel * std::abs(b) + abs_floor) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs oracle " << b << " (diff " << std::abs(a - b) << ")";
}

/// eval() against drain_current (bit for bit) and the h = 1e-6 central
/// differences (1e-6 relative plus @p abs_floor) at every bias in the grid.
/// The floor covers the oracle's own error where the I-V is C1 but not C2
/// (vds = 0, the knee, the v_dsat floor): a central difference straddling
/// such a point is off by about h |jump of d2I| / 4, a few 1e-10 S here.
void expect_matches_oracle(const dev::IDeviceModel& m,
                           const std::vector<double>& vgs_grid,
                           const std::vector<double>& vds_grid,
                           double abs_floor) {
  for (double vgs : vgs_grid) {
    for (double vds : vds_grid) {
      const dev::DeviceEval e = m.eval(vgs, vds);
      ASSERT_TRUE(e.is_finite()) << m.name() << " at " << vgs << ", " << vds;
      EXPECT_EQ(e.id, m.drain_current(vgs, vds))
          << m.name() << " at vgs=" << vgs << " vds=" << vds;
      const double gm = dev::transconductance(m, vgs, vds, 1e-6);
      const double gds = dev::output_conductance(m, vgs, vds, 1e-6);
      EXPECT_TRUE(near_rel(e.gm, gm, 1e-6, abs_floor))
          << m.name() << " gm at vgs=" << vgs << " vds=" << vds;
      EXPECT_TRUE(near_rel(e.gds, gds, 1e-6, abs_floor))
          << m.name() << " gds at vgs=" << vgs << " vds=" << vds;
    }
  }
}

/// The same grid through the p-type mirror: negated biases.
std::vector<double> negated(std::vector<double> v) {
  for (double& x : v) x = -x;
  return v;
}

void expect_model_and_mirror_match(const dev::DeviceModelPtr& n,
                                   const std::vector<double>& vds_grid,
                                   double abs_floor) {
  expect_matches_oracle(*n, gate_grid(), vds_grid, abs_floor);
  const dev::PTypeMirror p(n);
  expect_matches_oracle(p, negated(gate_grid()), negated(vds_grid),
                        abs_floor);
}

TEST(DualEval, AlphaPowerMatchesFiniteDifferences) {
  const dev::AlphaPowerParams params = dev::make_fig2_saturating_params();
  std::vector<double> vds = drain_grid();
  for (double vgs : {0.4, 0.7, 1.0}) {  // straddle and hit the knee
    const double knee = alpha_power_knee(params, vgs);
    for (double dv : {-1e-3, 0.0, 1e-3}) vds.push_back(knee + dv);
  }
  expect_model_and_mirror_match(
      std::make_shared<dev::AlphaPowerModel>(params), vds, 1e-9);
}

TEST(DualEval, LinearFetMatchesFiniteDifferences) {
  expect_model_and_mirror_match(
      std::make_shared<dev::LinearFetModel>(dev::make_fig2_linear_params()),
      drain_grid(), 1e-12);
}

TEST(DualEval, VirtualSourceMatchesFiniteDifferences) {
  dev::VirtualSourceParams params = dev::make_si_trigate_params();
  params.rs_ohm_um = params.rd_ohm_um = 0.0;  // the intrinsic dual pass
  expect_model_and_mirror_match(
      std::make_shared<dev::VirtualSourceModel>(params), drain_grid(), 1e-9);
}

TEST(DualEval, DeepSubthresholdIsFiniteAndFlat) {
  // vgs - vt = -30 V underflows the alpha-power overdrive to exactly 0;
  // the pow derivative must stay 0, not 0/0.
  const dev::AlphaPowerModel m(dev::make_fig2_saturating_params());
  const dev::DeviceEval e = m.eval(-30.0, 0.5);
  ASSERT_TRUE(e.is_finite());
  EXPECT_EQ(e.gm, 0.0);
}

TEST(SeriesResistanceEval, MatchesFiniteDifferencesOfSolvedCurrent) {
  // gm and gds from one solve + one intrinsic eval (implicit-function
  // theorem) against central differences of the solved current, at smooth
  // biases.  The solve stops at 1e-10 relative, so the oracle step is
  // 1e-5 V and the bound 1e-5 relative (the worst point agrees to ~1e-6).
  std::vector<dev::DeviceModelPtr> models = {
      std::make_shared<dev::SeriesResistanceModel>(
          std::make_shared<dev::AlphaPowerModel>(
              dev::make_fig2_saturating_params()),
          500.0, 800.0),
      std::make_shared<dev::VirtualSourceModel>(dev::make_si_trigate_params()),
      std::make_shared<dev::VirtualSourceModel>(dev::make_inas_hemt_params()),
  };
  for (const auto& m : models) {
    for (double vgs : {-0.3, 0.0, 0.3, 0.6, 1.0}) {
      for (double vds : {-0.8, -0.3, 0.2, 0.6}) {
        const dev::DeviceEval e = m->eval(vgs, vds);
        EXPECT_EQ(e.id, m->drain_current(vgs, vds));
        const double gm = dev::transconductance(*m, vgs, vds, 1e-5);
        const double gds = dev::output_conductance(*m, vgs, vds, 1e-5);
        EXPECT_TRUE(near_rel(e.gm, gm, 1e-5, 1e-12))
            << m->name() << " gm at vgs=" << vgs << " vds=" << vds;
        EXPECT_TRUE(near_rel(e.gds, gds, 1e-5, 1e-12))
            << m->name() << " gds at vgs=" << vgs << " vds=" << vds;
      }
    }
  }
}

TEST(SeriesResistanceEval, ClosedFormForLinearDevice) {
  // A gate-steered linear FET in series with rs/rd: gds = G / (1 + G R)
  // at fixed vgs when rs = 0 (the drain resistor only divides the bias).
  const auto lin =
      std::make_shared<dev::LinearFetModel>(dev::make_fig2_linear_params());
  const double rd = 2e3;
  const dev::DeviceEval e =
      dev::eval_with_series_resistance(*lin, 0.8, 0.3, 0.0, rd);
  const double g = lin->conductance(0.8);
  EXPECT_NEAR(e.gds, g / (1.0 + g * rd), 1e-12);
  EXPECT_NEAR(e.id, 0.3 * g / (1.0 + g * rd), 1e-12);
}

TEST(SeriesResistanceEval, CntfetContactsMatchFiniteDifferences) {
  // The intrinsic CNTFET stays on the finite-difference fallback; only the
  // contact-resistance map is exact, so the bound is the 1e-4 V steps'.
  dev::CntfetParams p = dev::make_franklin_cntfet_params(20e-9);
  p.r_source_ohm = p.r_drain_ohm = 5.5e3;
  const dev::CntfetModel m(p);
  for (double vgs : {0.2, 0.5}) {
    for (double vds : {0.1, 0.5}) {
      const dev::DeviceEval e = m.eval(vgs, vds);
      EXPECT_EQ(e.id, m.drain_current(vgs, vds));
      EXPECT_TRUE(near_rel(e.gm, dev::transconductance(m, vgs, vds), 1e-4,
                           1e-12));
      EXPECT_TRUE(near_rel(e.gds, dev::output_conductance(m, vgs, vds), 1e-4,
                           1e-12));
    }
  }
}

}  // namespace
