/// Integration tests: the ideal-configured converter must behave as a
/// perfect 12-bit quantizer (the golden reference for everything else).
#include <cmath>

#include <gtest/gtest.h>

#include "dsp/linearity.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"
#include "pipeline/design.hpp"
#include "testbench/dynamic_test.hpp"
#include "testbench/static_test.hpp"

namespace ap = adc::pipeline;

namespace {

ap::PipelineAdc make_ideal() { return ap::PipelineAdc(ap::ideal_design()); }

}  // namespace

TEST(IdealAdc, Geometry) {
  auto adc = make_ideal();
  EXPECT_EQ(adc.resolution_bits(), 12);
  EXPECT_EQ(adc.stage_count(), 10u);
  EXPECT_EQ(adc.flash().bits(), 2);
  EXPECT_DOUBLE_EQ(adc.full_scale_vpp(), 2.0);
  EXPECT_EQ(adc.latency_cycles(), 6);
}

TEST(IdealAdc, MidScaleAtZero) {
  auto adc = make_ideal();
  const int code = adc.convert_dc(0.0);
  EXPECT_NEAR(code, 2048, 1);
}

TEST(IdealAdc, EndCodesAtFullScale) {
  auto adc = make_ideal();
  EXPECT_EQ(adc.convert_dc(-1.05), 0);
  EXPECT_EQ(adc.convert_dc(1.05), 4095);
}

TEST(IdealAdc, TransferMatchesIdealQuantizer) {
  auto adc = make_ideal();
  for (int k = 0; k < 4096; k += 37) {
    // Mid-code voltage of code k.
    const double v = (static_cast<double>(k) + 0.5) / 2048.0 - 1.0;
    EXPECT_EQ(adc.convert_dc(v), k) << "code " << k;
  }
}

TEST(IdealAdc, MonotonicOnRamp) {
  auto adc = make_ideal();
  std::vector<double> ramp;
  for (double v = -1.1; v <= 1.1; v += 0.0007) ramp.push_back(v);
  const auto codes = adc.convert_samples(ramp);
  EXPECT_TRUE(adc::dsp::is_monotonic(codes));
}

TEST(IdealAdc, EnobIsTwelveBits) {
  auto adc = make_ideal();
  adc::testbench::DynamicTestOptions opt;
  opt.record_length = 1 << 13;
  const auto r = adc::testbench::run_dynamic_test(adc, opt);
  EXPECT_GT(r.metrics.enob, 11.95);
  EXPECT_LT(r.metrics.enob, 12.05);
  EXPECT_GT(r.metrics.sfdr_db, 85.0);
}

TEST(IdealAdc, EdgesLinearityNearZero) {
  auto adc = make_ideal();
  const auto edges = adc::testbench::extract_transfer_edges(adc, 36);
  const auto lin = adc::dsp::edges_linearity(edges, 12);
  EXPECT_LT(std::abs(lin.dnl_max), 0.02);
  EXPECT_LT(std::abs(lin.dnl_min), 0.02);
  EXPECT_LT(std::abs(lin.inl_max), 0.03);
  EXPECT_TRUE(lin.missing_codes.empty());
}

TEST(IdealAdc, StreamMatchesDirectConversion) {
  auto adc = make_ideal();
  const adc::dsp::SineSignal tone(0.9, 10.00341e6);
  const auto direct = adc.convert(tone, 256);
  auto adc2 = ap::PipelineAdc(ap::ideal_design());
  const auto stream = adc2.convert_stream(tone, 256);
  EXPECT_EQ(stream.latency_cycles, 6);
  ASSERT_EQ(stream.codes.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(stream.codes[i], direct[i]) << i;
  }
}

TEST(IdealAdc, ResidueCurveShape) {
  auto adc = make_ideal();
  // Stage-1 residue: sawtooth with slope 2 and +/- V_REF/2 plateaus at the
  // decision points.
  EXPECT_NEAR(adc.residue_after_stage(0, 0.0), 0.0, 1e-9);
  EXPECT_NEAR(adc.residue_after_stage(0, 0.1), 0.2, 1e-9);
  EXPECT_NEAR(adc.residue_after_stage(0, 0.3), -0.4, 1e-9);
  EXPECT_NEAR(adc.residue_after_stage(0, -0.3), 0.4, 1e-9);
  // Deeper stages keep the residue bounded.
  for (double v = -0.99; v <= 0.99; v += 0.03) {
    EXPECT_LE(std::abs(adc.residue_after_stage(5, v)), 1.0 + 1e-6) << v;
  }
}

TEST(IdealAdc, HistogramLinearityClean) {
  auto adc = make_ideal();
  adc::testbench::HistogramTestOptions opt;
  opt.samples = 1 << 20;
  const auto lin = adc::testbench::run_histogram_test(adc, opt);
  EXPECT_LT(std::abs(lin.dnl_max), 0.2);  // 256 hits/code: statistical bound
  EXPECT_LT(std::abs(lin.inl_max), 0.3);
  EXPECT_TRUE(lin.missing_codes.empty());
}

TEST(IdealAdc, BiasIntrospection) {
  auto adc = make_ideal();
  // Stage currents follow the paper's scaling ratios.
  EXPECT_NEAR(adc.stage_bias_current(1) / adc.stage_bias_current(0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(adc.stage_bias_current(5) / adc.stage_bias_current(0), 1.0 / 3.0, 1e-9);
  // Master current per eq. (1) at 110 MS/s.
  EXPECT_NEAR(adc.master_bias_current(), 12e-12 * 110e6 * 0.6, 1e-5);
}

TEST(IdealAdc, ConvertSamplesHandlesOverrange) {
  auto adc = make_ideal();
  const std::vector<double> v{-3.0, 3.0, 0.0};
  const auto codes = adc.convert_samples(v);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 4095);
  EXPECT_NEAR(codes[2], 2048, 1);
}
