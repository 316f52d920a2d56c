#include "testbench/monte_carlo.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "runtime/parallel.hpp"

namespace adc::testbench {

double MonteCarloResult::yield_at_least(double limit) const {
  if (values.empty()) return 0.0;
  const auto pass = std::count_if(values.begin(), values.end(),
                                  [limit](double v) { return v >= limit; });
  return static_cast<double>(pass) / static_cast<double>(values.size());
}

double MonteCarloResult::yield_at_most(double limit) const {
  if (values.empty()) return 0.0;
  const auto pass = std::count_if(values.begin(), values.end(),
                                  [limit](double v) { return v <= limit; });
  return static_cast<double>(pass) / static_cast<double>(values.size());
}

MonteCarloResult run_monte_carlo(const adc::pipeline::AdcConfig& base, const DieMetric& metric,
                                 const MonteCarloOptions& options) {
  adc::common::require(options.num_dies >= 1, "run_monte_carlo: need at least one die");
  adc::common::require(static_cast<bool>(metric), "run_monte_carlo: empty metric");

  // Each die is one job keyed by (base config, first_seed + die): a pure
  // function of its index, so the runtime's determinism contract makes the
  // result vector bit-identical at any thread count. A throwing metric
  // cancels the remaining dies and rethrows here, on the caller.
  adc::runtime::BatchOptions batch;
  batch.threads = options.threads > 0 ? static_cast<unsigned>(options.threads) : 0;

  MonteCarloResult result;
  result.values = adc::runtime::parallel_map<double>(
      static_cast<std::size_t>(options.num_dies),
      [&base, &metric, &options](std::size_t die) {
        adc::pipeline::AdcConfig cfg = base;
        cfg.seed = options.first_seed + static_cast<std::uint64_t>(die);
        adc::pipeline::PipelineAdc converter(cfg);
        return metric(converter);
      },
      batch);

  result.mean = adc::common::mean(result.values);
  result.std_dev = adc::common::std_dev(result.values);
  const auto mm = adc::common::min_max(result.values);
  result.min = mm.min;
  result.max = mm.max;
  return result;
}

}  // namespace adc::testbench
