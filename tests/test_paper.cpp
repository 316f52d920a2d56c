/// The paper's claims, checked on the scenario specs that reproduce them
/// and on the design-technique arms no spec expresses.
///
/// A figure's test runs one spec under scenarios/ through ScenarioRunner on
/// a temporary cache and asserts the rows EXPERIMENTS.md lists for it: a
/// number against the paper's within the tolerance EXPERIMENTS.md states,
/// or a shape (linear, flat, falling) with the threshold stated there. An
/// ablation test (A1-A4) flips one configuration arm of the nominal design,
/// runs the dynamic test, the power model or the area model on each arm, and
/// pins the simulated values inside two-sided bands. A model change that moves a reproduced figure out
/// of its tolerance fails here, not in a table someone has to read.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analog/switches.hpp"
#include "clocking/two_phase.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "oracles/linear_fit.hpp"
#include "pipeline/design.hpp"
#include "power/area.hpp"
#include "power/fom.hpp"
#include "power/power_model.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "testbench/dynamic_test.hpp"
#include "testbench/sweep.hpp"

namespace fs = std::filesystem;
namespace json = adc::common::json;
namespace ap = adc::pipeline;
namespace tb = adc::testbench;

namespace {

/// A cache root of this process's own, removed at exit.
struct ScratchCache {
  fs::path root = fs::temp_directory_path() / ("adc_paper_" + std::to_string(::getpid()));
  ScratchCache() { fs::remove_all(root); }
  ~ScratchCache() { fs::remove_all(root); }
};

/// The report of `scenarios/<name>.json`, run once per process.
const json::JsonValue& report(const std::string& name) {
  static const ScratchCache cache;
  static std::map<std::string, json::JsonValue> reports;
  auto it = reports.find(name);
  if (it == reports.end()) {
    adc::scenario::RunOptions options;
    options.cache_dir = cache.root.string();
    const auto spec =
        adc::scenario::load_spec_file(std::string(ADC_SCENARIO_DIR) + "/" + name + ".json");
    it = reports.emplace(name, adc::scenario::ScenarioRunner(options).run(spec).report).first;
  }
  return it->second;
}

/// One report row: its sweep value (0 for a spec without axes) and metrics.
struct Row {
  double x = 0.0;
  const json::JsonValue* metrics = nullptr;

  [[nodiscard]] double at(const std::string& key) const {
    const auto* value = metrics->find(key);
    EXPECT_NE(value, nullptr) << "payload lacks " << key;
    return value != nullptr ? value->as_double() : 0.0;
  }
};

std::vector<Row> rows(const json::JsonValue& report) {
  const auto& axes = report.find("axes")->items();
  std::vector<Row> out;
  for (const auto& result : report.find("results")->items()) {
    Row row;
    if (!axes.empty()) row.x = result.find("point")->find(axes[0].as_string())->as_double();
    row.metrics = result.find("metrics");
    out.push_back(row);
  }
  return out;
}

/// The row whose sweep value is `x`.
Row row_at(const std::vector<Row>& table, double x) {
  for (const auto& row : table) {
    if (std::abs(row.x - x) < 0.5) return row;  // axis values are whole hertz
  }
  ADD_FAILURE() << "no row at " << x;
  return table.front();
}

// Table I's dynamic column is the nominal die at 110 MS/s, fin = 10 MHz:
// inside the paper's bands, and inside two-sided bands around the simulated
// values, which the paper's bands are too wide to hold (0.5 dB of SNDR is
// 0.08 bit of ENOB).
TEST(Paper, Table1Dynamic) {
  const Row die = rows(report("table1")).front();
  EXPECT_NEAR(die.at("snr_db"), 67.1, 1.0);
  EXPECT_NEAR(die.at("sndr_db"), 64.2, 1.0);
  EXPECT_NEAR(die.at("sfdr_db"), 69.4, 1.5);
  EXPECT_NEAR(die.at("enob"), 10.4, 0.2);

  EXPECT_NEAR(die.at("snr_db"), 67.6, 0.5);
  EXPECT_NEAR(die.at("sndr_db"), 64.95, 0.5);
  EXPECT_NEAR(die.at("sfdr_db"), 70.2, 0.5);
  EXPECT_NEAR(die.at("enob"), 10.50, 0.08);
}

// Table I's static column: DNL inside the paper's +/-1.2 LSB, INL within
// 1 LSB of the paper's worst 1.5 LSB, and no missing code.
TEST(Paper, Table1Static) {
  const Row die = rows(report("table1_static")).front();
  EXPECT_LE(std::max(-die.at("dnl_min"), die.at("dnl_max")), 1.2);
  EXPECT_LE(std::max(-die.at("inl_min"), die.at("inl_max")), 2.5);
  EXPECT_EQ(die.metrics->find("missing_codes")->as_uint64(), 0U);
}

// Fig. 4: power linear in f_CR (eq. 1), 97 mW at 110 MS/s, 110 mW at 130.
TEST(Paper, Fig4PowerLinearInRate) {
  const auto table = rows(report("fig4"));
  std::vector<double> rate_msps;
  std::vector<double> power_mw;
  for (const auto& row : table) {
    rate_msps.push_back(row.x / 1e6);
    power_mw.push_back(row.at("total_w") * 1e3);
  }
  EXPECT_GT(adc::common::linear_fit(rate_msps, power_mw).r_squared, 0.999);
  EXPECT_NEAR(row_at(table, 110e6).at("total_w") * 1e3, 97.0, 3.0);
  EXPECT_NEAR(row_at(table, 130e6).at("total_w") * 1e3, 110.0, 3.0);
}

// Fig. 5: the nominal point, the paper's range claims, and both corners.
TEST(Paper, Fig5DynamicVsRate) {
  const auto table = rows(report("fig5"));
  EXPECT_NEAR(row_at(table, 110e6).at("snr_db"), 67.1, 1.0);
  EXPECT_NEAR(row_at(table, 110e6).at("sndr_db"), 64.2, 1.0);
  for (const auto& row : table) {
    if (row.x >= 20e6 && row.x <= 120e6) {
      EXPECT_GE(row.at("sndr_db"), 63.5) << "SNDR > 64 dB from 20 to 120 MS/s, at " << row.x;
    }
    if (row.x >= 20e6 && row.x <= 140e6) {
      EXPECT_GE(row.at("sndr_db"), 62.0) << "SNDR > 62 dB up to 140 MS/s, at " << row.x;
    }
    if (row.x >= 5e6 && row.x <= 140e6) {
      EXPECT_GE(row.at("sfdr_db"), 67.5) << "SFDR > 69 dB from 5 to 140 MS/s, at " << row.x;
    }
  }
  EXPECT_LT(row_at(table, 180e6).at("sndr_db"), row_at(table, 140e6).at("sndr_db"))
      << "SNDR rolls off above 140 MS/s (settling)";
  EXPECT_LT(row_at(table, 2e6).at("sfdr_db"), row_at(table, 10e6).at("sfdr_db"))
      << "SFDR droops below 5 MS/s (hold-cap leakage)";
}

// Fig. 6 in band (110 MS/s, fin 1..40 MHz): SNR and SNDR claims, and an
// SFDR that falls with every step of fin.
TEST(Paper, Fig6InBand) {
  const auto table = rows(report("fig6_inband"));
  for (const auto& row : table) {
    EXPECT_GE(row.at("snr_db"), 65.5) << "SNR > 66 dB up to 100 MHz, at " << row.x;
    EXPECT_GE(row.at("sndr_db"), 60.0) << "SNDR > 60 dB up to 40 MHz, at " << row.x;
  }
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(table[i].at("sfdr_db"), table[i - 1].at("sfdr_db"))
        << "SFDR falls with fin, at " << table[i].x;
  }
  EXPECT_NEAR(row_at(table, 10e6).at("sfdr_db"), 69.4, 1.5);
}

// Monte-Carlo extension: the paper's one die is a typical die of the
// population (within one sigma of its mean), and 90 % of dies reach 63 dB.
TEST(Paper, Yield200) {
  const auto& doc = report("yield200");
  std::vector<double> sndr;
  for (const auto& row : rows(doc)) sndr.push_back(row.at("sndr_db"));
  const auto& summary = *doc.find("summary");
  EXPECT_LE(std::abs(64.2 - summary.find("mean")->as_double()), adc::common::std_dev(sndr));
  EXPECT_GE(summary.find("yield_fraction")->as_double(), 0.90);
}

// Two-tone extension: IMD3 flat across tone centres (the worst product
// within 6 dB above its 5 MHz value) and IMD2 at least 10 dB below IMD3.
TEST(Paper, TwoToneImd) {
  const auto table = rows(report("twotone_imd"));
  auto imd3 = [](const Row& row) {
    return std::max(row.at("imd3_low_dbc"), row.at("imd3_high_dbc"));
  };
  const double first = imd3(table.front());
  for (const auto& row : table) {
    EXPECT_LT(imd3(row) - first, 6.0) << "IMD3 flat across centres, at " << row.x;
    EXPECT_LE(row.at("imd2_dbc"), imd3(row) - 10.0) << "IMD2 below IMD3, at " << row.x;
  }
}

// --- Design techniques: one configuration arm each, two-sided bands --------
//
// A dB value may move 0.5 dB, a power or an area 3 %, the FM 5 % and the GBW
// factor one search step (EXPERIMENTS.md, Tolerance column).

constexpr double kDb = 0.5;
constexpr double kShare = 0.03;

/// Relative band: `actual` within `fraction` of `expected`.
void expect_within(double actual, double expected, double fraction, const char* what) {
  EXPECT_NEAR(actual, expected, fraction * expected) << what;
}

/// Table I's dynamic test (10 MHz, 8k points) on a die built from `config`.
adc::dsp::SpectrumMetrics measure(const ap::AdcConfig& config) {
  ap::PipelineAdc converter(config);
  return tb::run_dynamic_test(converter).metrics;
}

/// Pipeline (stage opamp) power of a die built from `config` at `f_cr` [mW].
double pipeline_mw(const ap::AdcConfig& config, double f_cr) {
  const adc::power::PowerModel model(ap::nominal_power_spec());
  return model.estimate(ap::PipelineAdc(config), f_cr).pipeline_analog * 1e3;
}

/// Die area under `scaling` [mm^2].
double area_mm2(const ap::ScalingPolicy& scaling) {
  const adc::power::AreaModel model(ap::nominal_area_spec());
  return model.estimate(scaling, static_cast<std::size_t>(ap::nominal_design().num_stages))
             .total() *
         1e6;
}

// A1 (section 2): scaling the stages 1 : 2/3 : 1/3 gives "lower area and
// lower power consumption with only small degradation" against no scaling.
TEST(Paper, A1StageScaling) {
  auto unscaled = ap::nominal_design();
  unscaled.scaling = ap::ScalingPolicy::uniform();
  const auto scaled = ap::nominal_design();

  expect_within(pipeline_mw(unscaled, 110e6), 142.1, kShare, "unscaled pipeline power");
  expect_within(pipeline_mw(scaled, 110e6), 61.6, kShare, "scaled pipeline power");
  expect_within(area_mm2(unscaled.scaling), 1.21, kShare, "unscaled area");
  expect_within(area_mm2(scaled.scaling), 0.87, kShare, "scaled area");

  const double sndr_unscaled = measure(unscaled).sndr_db;
  const double sndr_scaled = measure(scaled).sndr_db;
  EXPECT_NEAR(sndr_unscaled, 65.67, kDb);
  EXPECT_NEAR(sndr_scaled, 64.95, kDb);
  EXPECT_NEAR(sndr_unscaled - sndr_scaled, 0.72, kDb) << "the SNDR scaling costs";
}

// A2 (section 3): removing the non-overlap guard leaves the stage longer to
// settle. Putting the conventional 700 ps guard back costs SNDR at high rates,
// none at 40 MS/s, and matching the local scheme at 110 MS/s takes x1.15 GBW,
// which is x1.32 bias current (gm ~ sqrt(I)).
TEST(Paper, A2NonOverlapRemoval) {
  const auto local = ap::nominal_design();
  auto guarded = ap::nominal_design();
  guarded.phases.scheme = adc::clocking::ClockingScheme::kConventionalNonOverlap;

  const std::vector<double> rates{40e6, 110e6, 130e6, 140e6};
  const std::vector<double> penalty_db{0.0, 0.75, 1.97, 2.82};
  const auto local_points = tb::sweep_conversion_rate(local, rates, {});
  const auto guarded_points = tb::sweep_conversion_rate(guarded, rates, {});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_NEAR(local_points[i].result.metrics.sndr_db -
                    guarded_points[i].result.metrics.sndr_db,
                penalty_db[i], kDb)
        << "non-overlap SNDR penalty at " << rates[i];
  }

  // The first GBW factor on a 0.05 grid at which the guarded scheme comes
  // within 0.1 dB of the local scheme's SNDR at 110 MS/s.
  const double target = local_points[1].result.metrics.sndr_db - 0.1;
  double gbw_factor = 0.0;
  for (int step = 0; step <= 12; ++step) {
    const double factor = 1.0 + 0.05 * step;
    auto cfg = guarded;
    cfg.stage.opamp.gbw_hz *= factor;
    cfg.stage.opamp.slew_rate *= factor;
    if (measure(cfg).sndr_db >= target) {
      gbw_factor = factor;
      break;
    }
  }
  EXPECT_NEAR(gbw_factor, 1.15, 0.05 + 1e-9) << "GBW the guarded scheme needs";
}

// A3 (section 3): bulk switching lowers the TG's distortion, and the
// bootstrap the paper rejects for lifetime reasons would remove the Fig. 6
// SFDR fall. SFDR at 100 MHz (under-sampled at 110 MS/s) per switch family.
TEST(Paper, A3BulkSwitchedInputSwitch) {
  const std::vector<std::pair<adc::analog::SwitchType, double>> families{
      {adc::analog::SwitchType::kTransmissionGate, 53.3},
      {adc::analog::SwitchType::kBulkSwitchedTg, 56.0},
      {adc::analog::SwitchType::kBootstrapped, 77.2},
  };
  for (const auto& [type, sfdr_db] : families) {
    auto cfg = ap::nominal_design();
    cfg.input_switch.type = type;
    const auto point = tb::sweep_input_frequency(cfg, {100e6}, {}).front();
    EXPECT_NEAR(point.result.metrics.sfdr_db, sfdr_db, kDb)
        << "SFDR at 100 MHz, switch type " << static_cast<int>(type);
  }
}

/// The nominal design at a global capacitor corner: the stage capacitors and
/// the SC generator's C_B move together, as they do on one die, and the
/// opamp's GBW at its nominal bias falls with the load it drives.
ap::AdcConfig at_cap_corner(double spread) {
  auto cfg = ap::nominal_design();
  cfg.stage.c1.global_spread = spread;
  cfg.stage.c2.global_spread = spread;
  cfg.sc_bias.cb.global_spread = spread;
  cfg.stage.opamp.gbw_hz /= 1.0 + spread;
  return cfg;
}

// A4 (section 3, eq. 1): the SC bias current tracks the capacitor corner, so
// SNDR holds across +/-20 % caps while the power follows the load. A fixed
// generator sized for the worst corner burns that current at every corner
// and every rate.
TEST(Paper, A4ScBiasTracksCapacitorCorner) {
  const std::vector<double> corners{-0.2, 0.0, 0.2};
  const std::vector<double> sc_sndr_db{64.84, 64.95, 64.91};
  const std::vector<double> sc_mw{49.3, 61.6, 73.9};
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const auto sc = at_cap_corner(corners[i]);
    auto fixed = sc;
    fixed.bias_scheme = ap::BiasScheme::kFixed;
    EXPECT_NEAR(measure(sc).sndr_db, sc_sndr_db[i], kDb) << "SC SNDR at " << corners[i];
    expect_within(pipeline_mw(sc, 110e6), sc_mw[i], kShare, "SC pipeline power");
    expect_within(pipeline_mw(fixed, 110e6), 89.5, kShare, "fixed pipeline power");
  }
  expect_within(pipeline_mw(ap::nominal_design(), 20e6), 11.2, kShare,
                "SC pipeline power at 20 MS/s");
  auto fixed = ap::nominal_design();
  fixed.bias_scheme = ap::BiasScheme::kFixed;
  expect_within(pipeline_mw(fixed, 20e6), 89.5, kShare, "fixed pipeline power at 20 MS/s");
}

// Table I's area and the paper's figure of merit (eq. 2) from Table I's ENOB,
// Fig. 4's power at 110 MS/s and the area model.
TEST(Paper, Table1AreaAndFm) {
  const double area = area_mm2(ap::ScalingPolicy::paper());
  expect_within(area, 0.87, kShare, "area [mm^2]");
  const double enob = rows(report("table1")).front().at("enob");
  const double power_w = row_at(rows(report("fig4")), 110e6).at("total_w");
  expect_within(adc::power::paper_fm(enob, 110e6, area * 1e-6, power_w), 1886.0, 0.05, "FM");
}

}  // namespace
