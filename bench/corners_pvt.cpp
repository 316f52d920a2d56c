/// \file corners_pvt.cpp
/// Extension bench: the PVT corner matrix an IP block must sign off.
///
/// The paper reports room-temperature numbers; an IP datasheet guarantees
/// -40..125 C and VDD +/-10 %. The temperature physics in the model — kT/C
/// noise, junction leakage doubling every 10 K, mobility ~ T^-1.5 — plus the
/// bandgap-held references produce the corner behavior below.
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "pipeline/design.hpp"
#include "runtime/manifest.hpp"
#include "runtime/parallel.hpp"
#include "testbench/compare.hpp"
#include "testbench/dynamic_test.hpp"
#include "testbench/report.hpp"
#include "testbench/sweep.hpp"

int main() {
  using namespace adc;
  using testbench::AsciiTable;

  std::printf("=== PVT corners: SNDR/SNR at 110 MS/s, fin = 10 MHz ===\n\n");

  struct Corner {
    const char* label;
    double t_kelvin;
    double vdd;
  };
  const std::vector<Corner> corners{
      {"cold/-10% (233 K, 1.62 V)", 233.0, 1.62},
      {"cold/nom  (233 K, 1.80 V)", 233.0, 1.80},
      {"room/nom  (300 K, 1.80 V)", 300.0, 1.80},
      {"room/-10% (300 K, 1.62 V)", 300.0, 1.62},
      {"room/+10% (300 K, 1.98 V)", 300.0, 1.98},
      {"hot/nom   (398 K, 1.80 V)", 398.0, 1.80},
      {"hot/-10%  (398 K, 1.62 V)", 398.0, 1.62},
  };

  runtime::RunManifest manifest("corners_pvt");
  manifest.set("threads", std::uint64_t{runtime::effective_thread_count(0)});
  manifest.set("corner_count", std::uint64_t{corners.size()});

  // Every corner is an independent re-instantiation of the same die, so the
  // whole matrix is one batch on the runtime; results come back corner-ordered.
  std::vector<dsp::SpectrumMetrics> corner_metrics;
  {
    const auto scope = manifest.phase("corner_matrix", corners.size());
    corner_metrics = runtime::parallel_map<dsp::SpectrumMetrics>(
        corners.size(), [&corners](std::size_t i) {
          auto cfg = pipeline::nominal_design();
          cfg.temperature_k = corners[i].t_kelvin;
          cfg.vdd = corners[i].vdd;
          cfg.input_switch.vdd = corners[i].vdd;
          pipeline::PipelineAdc die(cfg);
          testbench::DynamicTestOptions corner_opt;
          corner_opt.record_length = 1 << 13;
          return testbench::run_dynamic_test(die, corner_opt).metrics;
        });
  }

  AsciiTable table({"corner", "SNR (dB)", "SNDR (dB)", "SFDR (dB)", "ENOB"});
  double worst_sndr = 1e9;
  double room_sndr = 0.0;
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const auto& corner = corners[i];
    const auto& m = corner_metrics[i];
    table.add_row({corner.label, AsciiTable::num(m.snr_db, 2), AsciiTable::num(m.sndr_db, 2),
                   AsciiTable::num(m.sfdr_db, 2), AsciiTable::num(m.enob, 2)});
    worst_sndr = std::min(worst_sndr, m.sndr_db);
    const bool room_nominal =
        std::abs(corner.t_kelvin - 300.0) < 0.5 && std::abs(corner.vdd - 1.80) < 0.005;
    if (room_nominal) room_sndr = m.sndr_db;
  }
  std::printf("%s\n", table.render().c_str());

  // Hot silicon also moves the Fig. 5 corners: show the low-rate edge.
  auto hot = pipeline::nominal_design();
  hot.temperature_k = 398.0;
  testbench::DynamicTestOptions opt;
  opt.record_length = 1 << 12;
  std::vector<testbench::SweepPoint> room_low;
  std::vector<testbench::SweepPoint> hot_low;
  {
    const auto scope = manifest.phase("low_rate_edges", 4);
    room_low = testbench::sweep_conversion_rate(pipeline::nominal_design(),
                                                {5e6, 20e6}, opt);
    hot_low = testbench::sweep_conversion_rate(hot, {5e6, 20e6}, opt);
  }

  testbench::PaperComparison cmp("PVT corners (extension)");
  cmp.add_numeric("room-temperature SNDR", 64.2, room_sndr, "dB");
  cmp.add("worst-corner SNDR", "not reported",
          AsciiTable::num(worst_sndr, 1) + " dB (hot & low VDD)",
          worst_sndr > 60.0 ? "IP still >9.7 ENOB" : "fails 10-bit spec");
  cmp.add("leakage corner moves with temperature",
          "low-rate droop grows with T",
          "SFDR @5 MS/s: " + AsciiTable::num(room_low[0].result.metrics.sfdr_db, 1) +
              " dB (300 K) -> " + AsciiTable::num(hot_low[0].result.metrics.sfdr_db, 1) +
              " dB (398 K)",
          "");
  std::printf("%s\n", cmp.render().c_str());

  runtime::global_pool().wait_idle();  // settle counters before the snapshot
  manifest.set_pool_telemetry(runtime::global_pool().counters(),
                              runtime::global_pool().latency_histogram());
  if (const auto path = manifest.write_to_env_dir()) {
    std::printf("manifest: %s\n", path->c_str());
  }
  return 0;
}
