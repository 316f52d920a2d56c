/// \file monte_carlo.hpp
/// Monte-Carlo yield analysis across fabricated dies.
///
/// An IP block (the paper's product) is sold against a datasheet that every
/// die must meet: the seed of `AdcConfig` is the die, so yield analysis is a
/// loop over seeds. The runner fabricates N dies, measures a user-supplied
/// metric on each (in parallel on the shared runtime pool, see
/// src/runtime/parallel.hpp), and reports the distribution plus the fraction
/// meeting a limit. Results are in seed order and bit-identical at any
/// thread count; a throwing metric cancels the remaining dies and the
/// exception is rethrown on the calling thread.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pipeline/adc.hpp"

namespace adc::testbench {

/// Options for a Monte-Carlo run.
struct MonteCarloOptions {
  int num_dies = 25;
  std::uint64_t first_seed = 1000;
  /// Worker threads (0 = runtime default: ADC_RUNTIME_THREADS, an active
  /// ScopedThreadOverride, or hardware concurrency — see runtime/parallel.hpp).
  int threads = 0;
};

/// Distribution summary of one metric across dies.
struct MonteCarloResult {
  std::vector<double> values;  ///< one per die, in seed order
  double mean = 0.0;
  double std_dev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Metric evaluated on one fabricated die.
using DieMetric = std::function<double(adc::pipeline::PipelineAdc&)>;

/// Fabricate `options.num_dies` dies from `base` (seeds first_seed,
/// first_seed+1, ...) and evaluate `metric` on each. Thread-safe as long as
/// `metric` touches only its own converter instance.
[[nodiscard]] MonteCarloResult run_monte_carlo(const adc::pipeline::AdcConfig& base,
                                               const DieMetric& metric,
                                               const MonteCarloOptions& options = {});

}  // namespace adc::testbench
