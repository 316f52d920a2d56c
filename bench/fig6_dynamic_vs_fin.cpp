/// \file fig6_dynamic_vs_fin.cpp
/// Regenerates the paper's Fig. 6: SFDR, SNR and SNDR versus input frequency
/// at 110 MS/s, 2 Vpp (under-sampled above 55 MHz, as the paper measured).
///
/// Paper anchors: SNR > 66 dB up to 100 MHz, then jitter-limited; SNDR > 60
/// dB up to 40 MHz, then falling with SFDR; the SFDR fall is blamed on the
/// nonlinear on-resistance/parasitics of the un-bootstrapped input switches.
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "pipeline/design.hpp"
#include "runtime/manifest.hpp"
#include "runtime/parallel.hpp"
#include "testbench/compare.hpp"
#include "testbench/report.hpp"
#include "testbench/sweep.hpp"

int main() {
  using namespace adc;
  using testbench::AsciiTable;

  std::printf(
      "=== Fig. 6: SFDR/SNR/SNDR vs input frequency (110 MS/s, 2 Vpp) ===\n\n");

  const auto cfg = pipeline::nominal_design();
  testbench::DynamicTestOptions opt;
  opt.record_length = 1 << 13;

  const std::vector<double> fins{1e6,  5e6,  10e6, 20e6,  30e6,  40e6,  55e6,
                                 70e6, 85e6, 100e6, 120e6, 135e6, 150e6};

  runtime::RunManifest manifest("fig6_dynamic_vs_fin");
  manifest.set("first_seed", cfg.seed);
  manifest.set("seed_count", 1);
  manifest.set("threads", std::uint64_t{runtime::effective_thread_count(0)});
  manifest.set("sweep_points", std::uint64_t{fins.size()});
  std::vector<testbench::SweepPoint> points;
  {
    const auto scope = manifest.phase("fin_sweep", fins.size());
    points = testbench::sweep_input_frequency(cfg, fins, opt);
  }

  AsciiTable table({"f_in (MHz)", "SNR (dB)", "SNDR (dB)", "SFDR (dB)", "worst spur"});
  testbench::PlotSeries snr{"SNR", 'n', {}, {}};
  testbench::PlotSeries sndr{"SNDR", 'd', {}, {}};
  testbench::PlotSeries sfdr{"SFDR", 'f', {}, {}};
  for (const auto& p : points) {
    const auto& m = p.result.metrics;
    const std::string spur =
        m.spur_harmonic_order > 0 ? "HD" + std::to_string(m.spur_harmonic_order)
                                  : "non-harmonic";
    table.add_row({AsciiTable::num(p.x / 1e6, 1), AsciiTable::num(m.snr_db, 2),
                   AsciiTable::num(m.sndr_db, 2), AsciiTable::num(m.sfdr_db, 2), spur});
    snr.x.push_back(p.x / 1e6);
    snr.y.push_back(m.snr_db);
    sndr.x.push_back(p.x / 1e6);
    sndr.y.push_back(m.sndr_db);
    sfdr.x.push_back(p.x / 1e6);
    sfdr.y.push_back(m.sfdr_db);
  }
  std::printf("%s\n", table.render().c_str());

  testbench::PlotOptions plot;
  plot.title = "Fig. 6: dB vs input frequency (MHz) at 110 MS/s";
  plot.x_label = "input frequency (MHz)";
  plot.y_label = "dB";
  plot.fixed_y = true;
  plot.y_min = 0.0;
  plot.y_max = 80.0;
  std::printf("%s\n",
              testbench::render_plot(std::vector{sfdr, snr, sndr}, plot).c_str());

  auto at = [&](double f, auto getter) {
    double best = 1e12;
    double val = 0.0;
    for (const auto& p : points) {
      const double d = std::abs(p.x - f);
      if (d < best) {
        best = d;
        val = getter(p.result.metrics);
      }
    }
    return val;
  };
  auto snr_of = [](const dsp::SpectrumMetrics& m) { return m.snr_db; };
  auto sndr_of = [](const dsp::SpectrumMetrics& m) { return m.sndr_db; };
  auto sfdr_of = [](const dsp::SpectrumMetrics& m) { return m.sfdr_db; };

  bool snr66 = true;
  for (const auto& p : points) {
    if (p.x <= 100e6 && p.result.metrics.snr_db < 65.5) snr66 = false;
  }
  bool sndr60 = true;
  for (const auto& p : points) {
    if (p.x <= 40e6 && p.result.metrics.sndr_db < 60.0) sndr60 = false;
  }

  testbench::PaperComparison cmp("Fig. 6");
  cmp.add_numeric("SNR @ 10 MHz", 67.1, at(10e6, snr_of), "dB");
  cmp.add_numeric("SNDR @ 10 MHz", 64.2, at(10e6, sndr_of), "dB");
  cmp.add_numeric("SFDR @ 10 MHz", 69.4, at(10e6, sfdr_of), "dB");
  cmp.add_numeric("SNR @ 100 MHz (>66 claim)", 66.0, at(100e6, snr_of), "dB");
  cmp.add_numeric("SNDR @ 40 MHz (>60 claim)", 60.0, at(40e6, sndr_of), "dB");
  cmp.add_shape("SNR flat to 100 MHz, then jitter-limited", "holds",
                snr66 && at(150e6, snr_of) < at(10e6, snr_of) - 1.0 ? "holds" : "fails",
                snr66 && at(150e6, snr_of) < at(10e6, snr_of) - 1.0);
  cmp.add_shape("SNDR > 60 dB to 40 MHz, falling after", "holds",
                sndr60 && at(70e6, sndr_of) < 60.0 ? "holds" : "fails",
                sndr60 && at(70e6, sndr_of) < 60.0);
  cmp.add_shape("SFDR falls with fin (input-switch nonlinearity)", "holds",
                at(100e6, sfdr_of) < at(10e6, sfdr_of) - 8.0 ? "holds" : "fails",
                at(100e6, sfdr_of) < at(10e6, sfdr_of) - 8.0);
  std::printf("%s\n", cmp.render().c_str());

  common::CsvTable csv({"fin_mhz", "snr_db", "sndr_db", "sfdr_db"});
  for (const auto& p : points) {
    const auto& m = p.result.metrics;
    csv.add_row({p.x / 1e6, m.snr_db, m.sndr_db, m.sfdr_db});
  }
  if (const auto path = common::write_bench_csv("fig6_dynamic_vs_fin", csv)) {
    std::printf("csv: %s\n", path->c_str());
  }
  runtime::global_pool().wait_idle();  // settle counters before the snapshot
  manifest.set_pool_telemetry(runtime::global_pool().counters(),
                              runtime::global_pool().latency_histogram());
  if (const auto path = manifest.write_to_env_dir()) {
    std::printf("manifest: %s\n", path->c_str());
  }
  return 0;
}
