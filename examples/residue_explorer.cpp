/// \file residue_explorer.cpp
/// Educational example: visualize the 1.5-bit residue transfer (the
/// paper's Fig. 2 in action) and what each error mechanism does to it.
///
/// Prints the stage-1 residue curve for: the ideal stage, a capacitor-
/// mismatched stage, and a gain-starved stage — the plots that make the
/// redundancy and capacitor-matching discussions concrete.
#include <cstdio>
#include <vector>

#include "common/random.hpp"
#include "pipeline/design.hpp"
#include "pipeline/stage.hpp"
#include "testbench/report.hpp"

namespace {

/// Sample a stage's noiseless residue transfer over the input range.
adc::testbench::PlotSeries residue_curve(adc::pipeline::PipelineStage& stage,
                                         const char* label, char symbol) {
  adc::testbench::PlotSeries s{label, symbol, {}, {}};
  for (double v = -1.0; v <= 1.0; v += 0.01) {
    const auto d = stage.ideal_decision(v);
    s.x.push_back(v);
    s.y.push_back(stage.residue_target(v, d, 1.0));
  }
  return s;
}

adc::pipeline::PipelineStage make_stage(adc::pipeline::StageSpec spec,
                                        std::uint64_t seed) {
  adc::common::Rng rng(seed);
  return adc::pipeline::PipelineStage(spec, 1.0, 1.0, rng);
}

}  // namespace

int main() {
  using namespace adc;
  using testbench::PlotOptions;
  using testbench::PlotSeries;

  std::printf("The 1.5-bit stage residue transfer: V_res = 2*V_in - d*V_REF\n");
  std::printf("(d = -1 below -V_REF/4, 0 in the middle, +1 above +V_REF/4)\n\n");

  // Ideal stage.
  auto spec = pipeline::nominal_design().stage;
  spec.c1.sigma_mismatch = 0.0;
  spec.c2.sigma_mismatch = 0.0;
  spec.noise_excess = 0.0;
  auto ideal = make_stage(spec, 1);

  PlotOptions plot;
  plot.title = "ideal stage: sawtooth with slope 2, +/-V_REF/2 at the jumps";
  plot.x_label = "stage input (V)";
  plot.y_label = "residue (V)";
  plot.height = 14;
  std::printf("%s\n",
              render_plot(std::vector{residue_curve(ideal, "residue", '*')}, plot).c_str());

  // Exaggerated capacitor mismatch: the jumps no longer span exactly V_REF,
  // and the slope is no longer exactly 2 — the error the digital correction
  // cannot see, and the source of the converter's static DNL/INL.
  auto bad_spec = spec;
  bad_spec.c1.sigma_mismatch = 0.05;
  bad_spec.c2.sigma_mismatch = 0.05;
  auto mismatched = make_stage(bad_spec, 99);
  std::printf("mismatched stage: gain %.4f (ideal 2.0000), C1/C2 %.4f (ideal 1.0000)\n",
              mismatched.interstage_gain(), mismatched.c1() / mismatched.c2());
  PlotOptions plot2 = plot;
  plot2.title = "5% mismatched stage: same shape, wrong slope and jump size";
  std::printf(
      "%s\n",
      render_plot(std::vector{residue_curve(mismatched, "residue", 'o')}, plot2).c_str());

  // Where the residue leaves +/-V_REF the next stage cannot represent it:
  // the overload margin the redundancy spends on comparator offsets.
  double margin = 1.0;
  for (double v = -1.0; v <= 1.0; v += 0.001) {
    const auto d = ideal.ideal_decision(v);
    margin = std::min(margin, 1.0 - std::abs(ideal.residue_target(v, d, 1.0)));
  }
  std::printf("minimum overload margin of the ideal stage: %.3f V\n", margin);
  std::printf("-> any ADSC offset below V_REF/4 = 0.25 V keeps the residue in range,\n");
  std::printf("   which is exactly the redundancy the error correction exploits.\n");
  return 0;
}
