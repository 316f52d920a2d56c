/// The paper's claims, checked on the scenario specs that reproduce them.
///
/// Each test runs one spec under scenarios/ through ScenarioRunner on a
/// temporary cache and asserts the rows EXPERIMENTS.md lists for it: a
/// number against the paper's within the tolerance EXPERIMENTS.md states,
/// or a shape (linear, flat, falling) with the threshold stated there. A
/// model change that moves a reproduced figure out of its tolerance fails
/// here, not in a table someone has to read.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/math_util.hpp"
#include "oracles/linear_fit.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace fs = std::filesystem;
namespace json = adc::common::json;

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

// Table I's dynamic column is the nominal die at 110 MS/s, fin = 10 MHz.
TEST(Paper, Table1Dynamic) {
  const Row die = rows(report("table1")).front();
  EXPECT_NEAR(die.at("snr_db"), 67.1, 1.0);
  EXPECT_NEAR(die.at("sndr_db"), 64.2, 1.0);
  EXPECT_NEAR(die.at("sfdr_db"), 69.4, 1.5);
  EXPECT_NEAR(die.at("enob"), 10.4, 0.2);
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

}  // namespace
