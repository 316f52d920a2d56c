/// Tests for the Monte-Carlo yield runner and the die-block dynamic bench
/// (run_dynamic_test_block) that batches fast-profile dies.
#include "testbench/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "pipeline/design.hpp"
#include "testbench/dynamic_test.hpp"

namespace ap = adc::pipeline;
namespace tb = adc::testbench;

namespace {

double quick_sndr(ap::PipelineAdc& adc) {
  tb::DynamicTestOptions opt;
  opt.record_length = 1 << 11;
  return tb::run_dynamic_test(adc, opt).metrics.sndr_db;
}

}  // namespace

TEST(MonteCarlo, StatsAndDeterminism) {
  tb::MonteCarloOptions opt;
  opt.num_dies = 8;
  opt.first_seed = 500;
  const auto a = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  const auto b = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  ASSERT_EQ(a.values.size(), 8u);
  EXPECT_EQ(a.values, b.values);  // same seeds -> same dies -> same metrics
  EXPECT_GE(a.max, a.mean);
  EXPECT_LE(a.min, a.mean);
  EXPECT_GE(a.std_dev, 0.0);
}

TEST(MonteCarlo, DiesActuallyDiffer) {
  tb::MonteCarloOptions opt;
  opt.num_dies = 6;
  const auto r = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  EXPECT_GT(r.max - r.min, 0.01);  // mismatch draws differ between dies
  EXPECT_LT(r.max - r.min, 5.0);   // but the design is production-worthy
}

TEST(MonteCarlo, SingleThreadMatchesParallel) {
  tb::MonteCarloOptions serial;
  serial.num_dies = 5;
  serial.threads = 1;
  tb::MonteCarloOptions parallel = serial;
  parallel.threads = 4;
  const auto a = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, serial);
  const auto b = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, parallel);
  EXPECT_EQ(a.values, b.values);
}

TEST(MonteCarlo, ThrowingMetricPropagatesToCaller) {
  // Regression: the pre-runtime thread spawn std::terminate'd the process
  // when a DieMetric threw inside a worker. The runtime port must capture
  // the exception and rethrow it on the calling thread, serial and parallel.
  const auto faulty = [](ap::PipelineAdc& adc) -> double {
    if (adc.config().seed == 1003) {
      throw adc::common::MeasurementError("die 1003: no fundamental tone");
    }
    return quick_sndr(adc);
  };
  for (const int threads : {1, 4}) {
    tb::MonteCarloOptions opt;
    opt.num_dies = 8;
    opt.first_seed = 1000;
    opt.threads = threads;
    try {
      (void)tb::run_monte_carlo(ap::nominal_design(), faulty, opt);
      FAIL() << "expected MeasurementError at threads=" << threads;
    } catch (const adc::common::MeasurementError& e) {
      EXPECT_STREQ(e.what(), "die 1003: no fundamental tone");
    }
  }
  // The runner still works after a failed run.
  tb::MonteCarloOptions opt;
  opt.num_dies = 3;
  const auto ok = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  EXPECT_EQ(ok.values.size(), 3u);
}

TEST(MonteCarlo, RejectsBadInput) {
  tb::MonteCarloOptions opt;
  opt.num_dies = 0;
  EXPECT_THROW((void)tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt),
               adc::common::ConfigError);
  opt.num_dies = 1;
  EXPECT_THROW((void)tb::run_monte_carlo(ap::nominal_design(), nullptr, opt),
               adc::common::ConfigError);
}

namespace {

/// Every number a dynamic measurement reports, in one vector so a
/// comparison is bitwise and names no field twice.
std::vector<double> fields(const tb::DynamicTestResult& r) {
  const auto& m = r.metrics;
  return {r.tone.frequency_hz, static_cast<double>(r.tone.cycles),
          m.signal_power,      m.noise_power,
          m.thd_power,         m.snr_db,
          m.sndr_db,           m.thd_db,
          m.sfdr_db,           m.enob,
          m.spur_freq_hz,      m.spur_power};
}

/// `count` fast-profile nominal dies, seeds from `first_seed`.
std::vector<tb::DieTest> fast_dies(std::size_t count, std::uint64_t first_seed) {
  ap::AdcConfig fast = ap::nominal_design();
  fast.fidelity = adc::common::FidelityProfile::kFast;
  std::vector<tb::DieTest> dies(count, tb::DieTest{fast});
  for (std::size_t d = 0; d < count; ++d) dies[d].config.seed = first_seed + d;
  return dies;
}

/// run_dynamic_test_block on `dies` against run_dynamic_test on a fresh
/// PipelineAdc per die, bit for bit.
void expect_block_matches_per_die(const std::vector<tb::DieTest>& dies,
                                  const tb::DynamicTestOptions& options) {
  const auto block = tb::run_dynamic_test_block(dies, options);
  ASSERT_EQ(block.size(), dies.size());
  for (std::size_t d = 0; d < dies.size(); ++d) {
    tb::DynamicTestOptions die_options = options;
    die_options.target_fin_hz = dies[d].target_fin_hz;
    die_options.amplitude_fraction = dies[d].amplitude_fraction;
    ap::PipelineAdc adc(dies[d].config);
    EXPECT_EQ(fields(block[d]), fields(tb::run_dynamic_test(adc, die_options)))
        << "die " << d;  // bitwise: the engine is not a fidelity knob
  }
}

}  // namespace

TEST(MonteCarlo, DieBlockMatchesPerDieOnARaggedList) {
  // 34 dies = one batched run of 32 plus a die-by-die tail of 2, so one
  // comparison covers both paths of run_dynamic_test_block.
  tb::DynamicTestOptions options;
  options.record_length = 1 << 11;
  expect_block_matches_per_die(fast_dies(34, 700), options);
}

TEST(MonteCarlo, DieBlockMatchesPerDieWithAveraging) {
  // The averaged path interleaves captures differently (batch: one
  // convert() per record for all dies; scalar: all records per die) but the
  // positional noise draws make the per-die record sequences identical.
  tb::DynamicTestOptions options;
  options.record_length = 1 << 10;
  options.averages = 2;
  expect_block_matches_per_die(fast_dies(8, 900), options);
}

TEST(MonteCarlo, DieBlockSplitsDiesThatCannotShareABlock) {
  // Two temperatures, five dies each: the dies cannot share one kernel
  // block, so the list runs as two batched blocks of five.
  auto dies = fast_dies(10, 42);
  for (std::size_t d = 0; d < dies.size(); ++d) {
    dies[d].config.temperature_k = d < 5 ? 280.0 : 360.0;
  }
  tb::DynamicTestOptions options;
  options.record_length = 1 << 10;
  expect_block_matches_per_die(dies, options);
}

TEST(MonteCarlo, DieBlockRejectsAnEmptyList) {
  EXPECT_THROW((void)tb::run_dynamic_test_block({}, {}), adc::common::ConfigError);
}

TEST(MonteCarlo, IdealDiesAreIdentical) {
  // Without Monte-Carlo draws every seed fabricates the same (perfect) die.
  tb::MonteCarloOptions opt;
  opt.num_dies = 4;
  const auto r = tb::run_monte_carlo(ap::ideal_design(), quick_sndr, opt);
  EXPECT_NEAR(r.max - r.min, 0.0, 1e-9);
}
