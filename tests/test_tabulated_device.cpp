// The table-compiled fast path: BicubicTable partial derivatives, the
// DeviceEval API (finite-difference fallback, mirror/shift chain rules) and
// TabulatedDeviceModel accuracy against the exact self-consistent CNTFET —
// including the vds < 0 exchange-symmetry branch the SPICE engine exercises.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "circuit/cells.h"
#include "circuit/vtc.h"
#include "device/alpha_power.h"
#include "device/cntfet.h"
#include "device/tabulated.h"
#include "device/tfet.h"
#include "phys/interp.h"
#include "phys/require.h"

namespace {

namespace dev = carbon::device;
using carbon::phys::BicubicTable;

// ------------------------------------------------------------ BicubicTable

BicubicTable make_table(int nx, int ny, double (*f)(double, double),
                        double x_max = 1.0, double y_max = 1.0) {
  std::vector<double> x(nx), y(ny), z(nx * ny);
  for (int i = 0; i < nx; ++i) x[i] = x_max * i / (nx - 1);
  for (int j = 0; j < ny; ++j) y[j] = y_max * j / (ny - 1);
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) z[i * ny + j] = f(x[i], y[j]);
  }
  return BicubicTable(std::move(x), std::move(y), std::move(z));
}

TEST(BicubicTable, RecoversPlanesExactly) {
  const auto t =
      make_table(5, 7, [](double x, double y) { return 2.0 * x - 3.0 * y + 1.0; });
  for (double x : {0.13, 0.5, 0.87}) {
    for (double y : {0.09, 0.41, 0.93}) {
      const auto e = t.eval(x, y);
      EXPECT_NEAR(e.f, 2.0 * x - 3.0 * y + 1.0, 1e-12);
      EXPECT_NEAR(e.fx, 2.0, 1e-12);
      EXPECT_NEAR(e.fy, -3.0, 1e-12);
    }
  }
}

TEST(BicubicTable, HitsSamplePoints) {
  const auto t = make_table(9, 9, [](double x, double y) {
    return std::sin(3.0 * x) * std::cos(2.0 * y);
  });
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      EXPECT_NEAR(t(i / 8.0, j / 8.0),
                  std::sin(3.0 * i / 8.0) * std::cos(2.0 * j / 8.0), 1e-13);
    }
  }
}

TEST(BicubicTable, SmoothSurfaceAccurate) {
  const auto t = make_table(41, 41, [](double x, double y) {
    return std::exp(-x) * std::sin(2.0 * y);
  });
  for (double x = 0.03; x < 1.0; x += 0.11) {
    for (double y = 0.05; y < 1.0; y += 0.13) {
      EXPECT_NEAR(t(x, y), std::exp(-x) * std::sin(2.0 * y), 5e-4)
          << "at (" << x << ", " << y << ")";
    }
  }
}

TEST(BicubicTable, PartialsMatchFiniteDifferences) {
  const auto t = make_table(33, 33, [](double x, double y) {
    return x * x * y + 0.5 * std::sin(2.0 * x + y);
  });
  const double h = 1e-6;
  for (double x : {0.21, 0.55, 0.83}) {
    for (double y : {0.17, 0.49, 0.91}) {
      const auto e = t.eval(x, y);
      EXPECT_NEAR(e.fx, (t(x + h, y) - t(x - h, y)) / (2 * h), 1e-5);
      EXPECT_NEAR(e.fy, (t(x, y + h) - t(x, y - h)) / (2 * h), 1e-5);
    }
  }
}

TEST(BicubicTable, ExtrapolatesContinuouslyPastEdges) {
  const auto t =
      make_table(9, 9, [](double x, double y) { return x + 2.0 * y; });
  // Just outside vs just inside the box: C1 edge patch, no jump.
  EXPECT_NEAR(t(-0.01, 0.5), t(0.0, 0.5) - 0.01, 1e-9);
  EXPECT_NEAR(t(1.01, 0.5), t(1.0, 0.5) + 0.01, 1e-9);
  EXPECT_NEAR(t(0.5, -0.01), t(0.5, 0.0) - 0.02, 1e-9);
}

TEST(BicubicTable, RejectsBadInput) {
  EXPECT_THROW(BicubicTable({0.0, 1.0}, {0.0, 1.0}, {1.0, 2.0, 3.0}),
               carbon::phys::PreconditionError);
  EXPECT_THROW(BicubicTable({1.0, 0.0}, {0.0, 1.0}, {1.0, 2.0, 3.0, 4.0}),
               carbon::phys::PreconditionError);
}

// -------------------------------------------------------------- DeviceEval

TEST(DeviceEval, BaseClassFallbackMatchesCentralDifferences) {
  // The numeric TFET has no eval() of its own: it takes the base class's
  // central-difference fallback.
  const dev::CntTfetModel m(dev::make_fig6_tfet_params());
  const auto e = m.eval(-1.0, -0.5);
  EXPECT_DOUBLE_EQ(e.id, m.drain_current(-1.0, -0.5));
  EXPECT_NEAR(e.gm, dev::transconductance(m, -1.0, -0.5), 1e-12);
  EXPECT_NEAR(e.gds, dev::output_conductance(m, -1.0, -0.5), 1e-12);
}

TEST(DeviceEval, PTypeMirrorChainRule) {
  auto n = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  const dev::PTypeMirror p(n);
  const double vgs = -0.6, vds = -0.4;
  const auto e = p.eval(vgs, vds);
  EXPECT_DOUBLE_EQ(e.id, p.drain_current(vgs, vds));
  EXPECT_NEAR(e.gm, dev::transconductance(p, vgs, vds), 1e-9);
  EXPECT_NEAR(e.gds, dev::output_conductance(p, vgs, vds), 1e-9);
}

TEST(DeviceEval, GateShiftedDelegatesWithShift) {
  auto base = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  const dev::GateShifted shifted(base, 0.12);
  const auto e = shifted.eval(0.5, 0.5);
  const auto direct = base->eval(0.62, 0.5);
  EXPECT_DOUBLE_EQ(e.id, direct.id);
  EXPECT_DOUBLE_EQ(e.gm, direct.gm);
  EXPECT_DOUBLE_EQ(e.gds, direct.gds);
}

// ------------------------------------------------- TabulatedDeviceModel

class TabulatedCntfet : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exact_ = std::make_shared<dev::CntfetModel>(
        dev::make_franklin_cntfet_params(20e-9));
    dev::TabulatedGrid g;
    g.vgs_min = -0.1;
    g.vgs_max = 0.8;
    g.n_vgs = 73;
    g.vds_min = 0.0;
    g.vds_max = 0.7;
    g.n_vds = 57;
    tab_ = std::make_shared<dev::TabulatedDeviceModel>(exact_, g);
  }
  static void TearDownTestSuite() {
    tab_.reset();
    exact_.reset();
  }

  static std::shared_ptr<const dev::CntfetModel> exact_;
  static std::shared_ptr<const dev::TabulatedDeviceModel> tab_;
};

std::shared_ptr<const dev::CntfetModel> TabulatedCntfet::exact_;
std::shared_ptr<const dev::TabulatedDeviceModel> TabulatedCntfet::tab_;

TEST_F(TabulatedCntfet, CurrentWithinOnePercentAcrossBiasBox) {
  // Off-grid sample points across the box: 1% relative or 1 nA absolute,
  // the ISSUE acceptance tolerance.
  for (double vgs = -0.07; vgs <= 0.78; vgs += 0.085) {
    for (double vds = 0.013; vds <= 0.69; vds += 0.068) {
      const double exact = exact_->drain_current(vgs, vds);
      const double tab = tab_->drain_current(vgs, vds);
      const double tol = std::max(1e-9, 0.01 * std::abs(exact));
      EXPECT_NEAR(tab, exact, tol) << "at vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_F(TabulatedCntfet, ConductancesTrackTheExactModel) {
  for (double vgs : {0.25, 0.45, 0.65}) {
    for (double vds : {0.08, 0.33, 0.61}) {
      const auto e = tab_->eval(vgs, vds);
      const double gm_exact = dev::transconductance(*exact_, vgs, vds);
      const double gds_exact = dev::output_conductance(*exact_, vgs, vds);
      EXPECT_NEAR(e.gm, gm_exact,
                  std::max(5e-7, 0.05 * std::abs(gm_exact)))
          << "gm at vgs=" << vgs << " vds=" << vds;
      EXPECT_NEAR(e.gds, gds_exact,
                  std::max(5e-7, 0.05 * std::abs(gds_exact)))
          << "gds at vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_F(TabulatedCntfet, AnalyticDerivativesConsistentWithOwnSurface) {
  const double h = 1e-6;
  for (double vgs : {0.2, 0.5}) {
    for (double vds : {-0.3, 0.15, 0.55}) {  // includes the mirror branch
      const auto e = tab_->eval(vgs, vds);
      const double gm_fd = (tab_->drain_current(vgs + h, vds) -
                            tab_->drain_current(vgs - h, vds)) /
                           (2 * h);
      const double gds_fd = (tab_->drain_current(vgs, vds + h) -
                             tab_->drain_current(vgs, vds - h)) /
                            (2 * h);
      EXPECT_NEAR(e.gm, gm_fd, 1e-8 + 1e-5 * std::abs(gm_fd));
      EXPECT_NEAR(e.gds, gds_fd, 1e-8 + 1e-5 * std::abs(gds_fd));
    }
  }
}

TEST_F(TabulatedCntfet, MirrorBranchMatchesExactModelForNegativeVds) {
  // The exact CNTFET applies the same source/drain exchange symmetry, so
  // the mirrored table must track it at vds < 0 too.  Points are chosen so
  // the mirrored lookup (vgs - vds, -vds) stays inside the grid — the
  // accuracy contract of the mirror branch.
  for (double vgs : {0.1, 0.3, 0.5}) {
    for (double vds : {-0.05, -0.15, -0.28}) {
      const double exact = exact_->drain_current(vgs, vds);
      const double tab = tab_->drain_current(vgs, vds);
      EXPECT_NEAR(tab, exact, std::max(1e-9, 0.01 * std::abs(exact)))
          << "at vgs=" << vgs << " vds=" << vds;
    }
  }
}

TEST_F(TabulatedCntfet, CurrentContinuousAcrossVdsZero) {
  for (double vgs : {0.2, 0.6}) {
    const double below = tab_->drain_current(vgs, -1e-7);
    const double above = tab_->drain_current(vgs, 1e-7);
    EXPECT_NEAR(below, above, 1e-10);
    EXPECT_NEAR(tab_->drain_current(vgs, 0.0), 0.0, 1e-10);
  }
}

TEST_F(TabulatedCntfet, MetadataPassesThrough) {
  EXPECT_EQ(tab_->name(), exact_->name() + "/tab");
  EXPECT_EQ(tab_->polarity(), exact_->polarity());
  EXPECT_DOUBLE_EQ(tab_->width_normalization(),
                   exact_->width_normalization());
}

TEST(TabulatedModel, InverterVtcMatchesDirectModel) {
  // End to end through the SPICE engine: the table-compiled CNTFET must
  // reproduce the direct model's inverter transfer curve.  This is the
  // fast path every VTC / SNM / oscillator study now takes.
  auto exact = std::make_shared<dev::CntfetModel>(
      dev::make_franklin_cntfet_params(20e-9));
  const dev::DeviceModelPtr tab = dev::make_tabulated(exact, 0.6, 73, 49);

  namespace ckt = carbon::circuit;
  ckt::CellOptions opt;
  opt.v_dd = 0.6;
  auto direct_bench = ckt::make_inverter(exact, opt);
  auto tab_bench = ckt::make_inverter(tab, opt);
  const auto direct = ckt::run_vtc(direct_bench, 31);
  const auto fast = ckt::run_vtc(tab_bench, 31);

  ASSERT_EQ(direct.num_rows(), fast.num_rows());
  for (int r = 0; r < direct.num_rows(); ++r) {
    EXPECT_NEAR(fast.at(r, 1), direct.at(r, 1), 2e-3)  // 2 mV on a 0.6 V VTC
        << "at vin=" << direct.at(r, 0);
  }
}

TEST(TabulatedModel, MakeTabulatedGuardsAndMirrors) {
  auto base = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  const auto tab = dev::make_tabulated(base, 1.0, 49, 33);
  // Forward box within 1%.
  for (double vgs : {0.3, 0.6, 0.9}) {
    for (double vds : {0.1, 0.5, 0.95}) {
      const double exact = base->drain_current(vgs, vds);
      EXPECT_NEAR(tab->drain_current(vgs, vds), exact,
                  std::max(1e-9, 0.01 * std::abs(exact)));
    }
  }
  EXPECT_THROW(dev::make_tabulated(base, -1.0),
               carbon::phys::PreconditionError);
}

}  // namespace
