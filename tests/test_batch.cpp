/// \file test_batch.cpp
/// Bit-identity contract of the batch conversion engine (src/batch).
///
/// The batch engine is a throughput optimization, never a fidelity knob:
/// for every die, every sample and every ISA tier, its codes must be
/// byte-identical to PipelineAdc::convert() under the fast profile. These
/// tests pin that contract across batch shapes (single die, ragged blocks,
/// multi-block, every kernel width), capture sequences (the shared noise
/// epoch), stimulus kinds, blocks that mix conversion rates, tones and
/// seeds, and instruction tiers (every tier the CPU executes), plus the
/// golden fast codes of the characterized nominal die through the batch
/// entry point.
#include "batch/converter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "batch/batch_api.hpp"
#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "common/isa_dispatch.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"
#include "pipeline/design.hpp"

namespace {

using adc::batch::BatchConverter;
using adc::common::BatchIsa;
using adc::common::FidelityProfile;
using adc::pipeline::AdcConfig;
using adc::pipeline::PipelineAdc;

const adc::dsp::SineSignal& golden_tone() {
  static const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  return tone;
}

AdcConfig fast_nominal() {
  AdcConfig config = adc::pipeline::nominal_design();
  config.fidelity = FidelityProfile::kFast;
  return config;
}

std::vector<std::uint64_t> make_seeds(std::size_t dies) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t d = 0; d < dies; ++d) {
    seeds.push_back(adc::pipeline::kNominalSeed + d);
  }
  return seeds;
}

/// The batch tiers this CPU executes, baseline first.
std::vector<BatchIsa> supported_tiers() {
  const BatchIsa top = adc::common::detect_batch_isa();
  std::vector<BatchIsa> tiers;
  for (const BatchIsa isa : {BatchIsa::kSse2, BatchIsa::kAvx2, BatchIsa::kAvx512}) {
    if (isa <= top) tiers.push_back(isa);
  }
  return tiers;
}

/// Scalar reference: a fresh die per seed, `captures` sequential convert()
/// calls, returning the last capture's codes (the epoch count is part of the
/// pinned sequence).
std::vector<std::vector<int>> scalar_reference(const AdcConfig& base,
                                               const std::vector<std::uint64_t>& seeds,
                                               const adc::dsp::Signal& signal, std::size_t n,
                                               int captures = 1) {
  std::vector<std::vector<int>> out;
  for (const std::uint64_t seed : seeds) {
    AdcConfig cfg = base;
    cfg.seed = seed;
    PipelineAdc die(cfg);
    std::vector<int> codes;
    for (int c = 0; c < captures; ++c) codes = die.convert(signal, n);
    out.push_back(std::move(codes));
  }
  return out;
}

TEST(Batch, GoldenFastCodesThroughBatchEntryPoint) {
  // The first 64 fast-profile codes of the characterized nominal die — the
  // same pinned vector as test_golden_codes_fast.cpp. The batch engine must
  // reproduce the golden contract, not merely agree with today's scalar
  // binary.
  const std::vector<int> kFastConvert64 = {
      2039, 3145, 3901, 4068, 3595, 2629, 1478, 507,  27,   189,  940,  2044, 3148,
      3904, 4068, 3593, 2624, 1474, 503,  27,   190,  943,  2048, 3152, 3905, 4068,
      3589, 2619, 1469, 501,  27,   193,  947,  2054, 3157, 3907, 4067, 3586, 2616,
      1465, 498,  25,   194,  951,  2058, 3160, 3909, 4066, 3583, 2611, 1460, 495,
      25,   196,  955,  2063, 3164, 3911, 4065, 3580, 2607, 1456, 492,  24};
  const std::vector<std::uint64_t> seeds = {adc::pipeline::kNominalSeed};
  BatchConverter batch(fast_nominal(), seeds);
  const auto codes = batch.convert(golden_tone(), 64);
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], kFastConvert64);
}

TEST(Batch, BitIdenticalAcrossShapes) {
  // S x D shapes covering: single sample/die, ragged sub-block, multi-block
  // with a full and a ragged block, and a chunk-boundary-crossing capture.
  const struct {
    std::size_t samples;
    std::size_t dies;
  } shapes[] = {{1, 1}, {7, 3}, {64, 16}, {300, 5}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE(testing::Message() << shape.samples << "x" << shape.dies);
    const auto seeds = make_seeds(shape.dies);
    BatchConverter batch(fast_nominal(), seeds);
    const auto got = batch.convert(golden_tone(), shape.samples);
    const auto want = scalar_reference(fast_nominal(), seeds, golden_tone(), shape.samples);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < got.size(); ++d) {
      SCOPED_TRACE(testing::Message() << "die " << d);
      EXPECT_EQ(got[d], want[d]);
    }
  }
}

TEST(Batch, RepeatedCapturesAdvanceTheSharedEpoch) {
  // Capture #2 of a converter must match capture #2 of each scalar die —
  // the noise epoch advances identically on both paths.
  const auto seeds = make_seeds(3);
  BatchConverter batch(fast_nominal(), seeds);
  (void)batch.convert(golden_tone(), 32);
  const auto second = batch.convert(golden_tone(), 32);
  const auto want = scalar_reference(fast_nominal(), seeds, golden_tone(), 32, /*captures=*/2);
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    EXPECT_EQ(second[d], want[d]) << "die " << d;
  }
}

TEST(Batch, MultiToneStimulusBitIdentical) {
  const adc::dsp::MultiToneSignal tone({{0.49, 9.7e6, 0.0}, {0.49, 12.3e6, 1.25}});
  const auto seeds = make_seeds(2);
  BatchConverter batch(fast_nominal(), seeds);
  const auto got = batch.convert(tone, 100);
  const auto want = scalar_reference(fast_nominal(), seeds, tone, 100);
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    EXPECT_EQ(got[d], want[d]) << "die " << d;
  }
}

TEST(Batch, IdealAndPartialNonidealitiesBitIdentical) {
  // Exercises the kernel's disabled-path selects: the all-off design (no
  // noise, no jitter, no droop) and a mixed config (thermal off, rest on).
  AdcConfig ideal = adc::pipeline::ideal_design();
  ideal.fidelity = FidelityProfile::kFast;
  AdcConfig mixed = fast_nominal();
  mixed.enable.thermal_noise = false;
  mixed.enable.aperture_jitter = false;
  for (const AdcConfig& cfg : {ideal, mixed}) {
    const auto seeds = make_seeds(2);
    BatchConverter batch(cfg, seeds);
    const auto got = batch.convert(golden_tone(), 50);
    const auto want = scalar_reference(cfg, seeds, golden_tone(), 50);
    for (std::size_t d = 0; d < seeds.size(); ++d) {
      EXPECT_EQ(got[d], want[d]) << "die " << d;
    }
  }
}

TEST(Batch, EveryDieCountBitIdenticalOnEveryTier) {
  // Die counts on both sides of every kernel width (8, 16, 32) and of the
  // 32-die block ceiling, through every tier this CPU executes — so every
  // tier also equals every other (under ADC_BATCH_ISA too: the tiers are
  // forced here). 37 samples cross four noise-chunk boundaries and end on a
  // ragged chunk.
  constexpr std::size_t kSamples = 37;
  const auto all = make_seeds(65);
  const auto want = scalar_reference(fast_nominal(), all, golden_tone(), kSamples);
  for (const std::size_t dies : {1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 65}) {
    const std::vector<std::uint64_t> seeds(all.begin(),
                                           all.begin() + static_cast<std::ptrdiff_t>(dies));
    for (const BatchIsa isa : supported_tiers()) {
      SCOPED_TRACE(testing::Message() << dies << " dies, " << adc::common::to_string(isa));
      BatchConverter batch(fast_nominal(), seeds, isa);
      const auto got = batch.convert(golden_tone(), kSamples);
      ASSERT_EQ(got.size(), dies);
      for (std::size_t d = 0; d < dies; ++d) {
        EXPECT_EQ(got[d], want[d]) << "die " << d;
      }
    }
  }
}

TEST(Batch, SurrogateFallbackAndInjectionOffOnEveryTier) {
  // The front end's rare branches on every tier this CPU executes: a 1.9 V
  // tone whose crests leave the switch surrogates' span (|v| <= 0.999 x
  // 1.8 V) and take the out-of-span fallback; a 0.45 V common mode, which
  // trims that span inside the full scale so the fallback's values reach
  // the codes; and a die with charge injection off and tracking on.
  const adc::dsp::SineSignal big(1.9, 10.0037e6);
  AdcConfig low_cm = fast_nominal();
  low_cm.refs.common_mode = 0.45;
  AdcConfig no_injection = fast_nominal();
  no_injection.input_switch.injection_fraction = 0.0;
  const struct {
    const char* name;
    AdcConfig config;
    const adc::dsp::Signal& signal;
  } cases[] = {
      {"over-span tone", fast_nominal(), big},
      {"low common mode", low_cm, golden_tone()},
      {"injection off", no_injection, golden_tone()},
  };
  const auto seeds = make_seeds(9);
  for (const auto& c : cases) {
    const auto want = scalar_reference(c.config, seeds, c.signal, 40);
    for (const BatchIsa isa : supported_tiers()) {
      SCOPED_TRACE(testing::Message() << c.name << ", " << adc::common::to_string(isa));
      BatchConverter batch(c.config, seeds, isa);
      const auto got = batch.convert(c.signal, 40);
      ASSERT_EQ(got.size(), seeds.size());
      for (std::size_t d = 0; d < seeds.size(); ++d) {
        EXPECT_EQ(got[d], want[d]) << "die " << d;
      }
    }
  }
}

TEST(Batch, BlocksRunAtTheNarrowestWidthThatHoldsThem) {
  const struct {
    std::size_t dies;
    std::vector<std::size_t> widths;
  } cases[] = {
      {1, {8}},
      {8, {8}},
      {9, {16}},
      {16, {16}},
      {17, {32}},
      {32, {32}},
      {33, {32, 8}},
      {50, {32, 32}},
      {65, {32, 32, 8}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.dies << " dies");
    const BatchConverter batch(fast_nominal(), make_seeds(c.dies));
    ASSERT_EQ(batch.block_count(), c.widths.size());
    for (std::size_t b = 0; b < c.widths.size(); ++b) {
      EXPECT_EQ(batch.block_width(b), c.widths[b]) << "block " << b;
    }
  }
}

TEST(Batch, EveryKernelWidthGivesTheSameCodes) {
  // One shared die set, the first 8 dies, run through each kernel
  // instantiation: a block of W dies runs at width W, and the shared dies'
  // codes must not depend on which width carried them.
  constexpr std::size_t kShared = adc::batch::kLaneWidths[0];
  for (const BatchIsa isa : supported_tiers()) {
    std::vector<std::vector<int>> narrowest;
    for (const std::size_t lanes : adc::batch::kLaneWidths) {
      SCOPED_TRACE(testing::Message() << "W=" << lanes << ", " << adc::common::to_string(isa));
      BatchConverter batch(fast_nominal(), make_seeds(lanes), isa);
      ASSERT_EQ(batch.block_count(), 1u);
      EXPECT_EQ(batch.block_width(0), lanes);
      auto got = batch.convert(golden_tone(), 100);
      got.resize(kShared);
      if (narrowest.empty()) narrowest = got;
      for (std::size_t d = 0; d < kShared; ++d) {
        EXPECT_EQ(got[d], narrowest[d]) << "die " << d;
      }
    }
  }
}

TEST(Batch, UnitLanesTable) {
  // dies x pool threads -> dies per execute unit: the widest kernel width
  // that still cuts the dies into at least one unit per thread.
  const struct {
    std::size_t dies;
    std::size_t threads;
    std::size_t lanes;
  } table[] = {
      {0, 4, 8},
      {3, 4, 8},
      {48, 4, 8},
      {49, 4, 16},
      {64, 4, 16},
      {96, 4, 16},
      {97, 4, 32},
      {128, 4, 32},
      {2000, 4, 32},
      {64, 8, 8},
      {1000, 2, 32},
      {31, 1, 32},
      {1, 1, 32},
      {1, 0, 32},
      {64, 2, 32},
      {33, 2, 32},
      {32, 2, 16},
      {16, 2, 8},
      {2000, 64, 16},
      {2000, 251, 8},
  };
  for (const auto& row : table) {
    EXPECT_EQ(adc::batch::unit_lanes(row.dies, row.threads), row.lanes)
        << row.dies << " dies on " << row.threads << " threads";
  }
}

TEST(Batch, SoAMathPortsBitIdenticalAcrossTiers) {
  // The exported span kernels (Philox normal fill, exp) across every tier
  // the hardware can execute, element for element.
  const BatchIsa top = adc::common::detect_batch_isa();
  constexpr std::size_t kN = 1000;
  std::vector<double> ref_fill(kN);
  adc::batch::kernel_ops(BatchIsa::kSse2).normal_fill(0x1234u, 7u, 3u, ref_fill.data(), kN);
  std::vector<double> xs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    xs[i] = -720.0 + static_cast<double>(i) * 1.5;  // spans both exp clamps
  }
  std::vector<double> ref_exp(kN);
  adc::batch::kernel_ops(BatchIsa::kSse2).exp_span(xs.data(), ref_exp.data(), kN);
  for (const BatchIsa isa : {BatchIsa::kAvx2, BatchIsa::kAvx512}) {
    if (isa > top) continue;
    std::vector<double> fill(kN);
    adc::batch::kernel_ops(isa).normal_fill(0x1234u, 7u, 3u, fill.data(), kN);
    std::vector<double> ex(kN);
    adc::batch::kernel_ops(isa).exp_span(xs.data(), ex.data(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fill[i]), std::bit_cast<std::uint64_t>(ref_fill[i]))
          << adc::common::to_string(isa) << " fill[" << i << "]";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ex[i]), std::bit_cast<std::uint64_t>(ref_exp[i]))
          << adc::common::to_string(isa) << " exp[" << i << "]";
    }
  }
}

TEST(Batch, SupportGatesAndErrors) {
  EXPECT_TRUE(BatchConverter::supports(fast_nominal(), golden_tone()));
  EXPECT_FALSE(BatchConverter::supports_config(adc::pipeline::nominal_design()));  // exact
  const adc::dsp::RampSignal ramp(-1.0, 1.0, 1e-6);
  EXPECT_FALSE(BatchConverter::supports_signal(ramp));

  EXPECT_THROW(BatchConverter(adc::pipeline::nominal_design(), make_seeds(1)),
               adc::common::ConfigError);
  EXPECT_THROW(BatchConverter(fast_nominal(), std::span<const std::uint64_t>{}),
               adc::common::ConfigError);
  BatchConverter batch(fast_nominal(), make_seeds(1));
  EXPECT_THROW((void)batch.convert(ramp, 8), adc::common::ConfigError);
}

/// `count` fast dies at distinct seeds and rates spread from 2 to 180 MHz,
/// in an order that puts slow and fast dies side by side.
std::vector<AdcConfig> mixed_rate_dies(std::size_t count) {
  std::vector<AdcConfig> dies;
  for (std::size_t d = 0; d < count; ++d) {
    AdcConfig cfg = fast_nominal();
    cfg.seed = adc::pipeline::kNominalSeed + 7 * d;
    const std::size_t slot = (d * 5) % count;  // 5 is coprime with every count used
    const double frac = count > 1 ? static_cast<double>(slot) / static_cast<double>(count - 1)
                                  : 0.0;
    cfg.conversion_rate = 2e6 + frac * 178e6;
    dies.push_back(cfg);
  }
  return dies;
}

/// Per-die scalar reference: a fresh die from each configuration converting
/// its own stimulus.
std::vector<std::vector<int>> per_die_reference(
    const std::vector<AdcConfig>& configs, const std::vector<const adc::dsp::Signal*>& signals,
    std::size_t n) {
  std::vector<std::vector<int>> out;
  for (std::size_t d = 0; d < configs.size(); ++d) {
    PipelineAdc die(configs[d]);
    out.push_back(die.convert(*signals[d], n));
  }
  return out;
}

TEST(Batch, MixedRatesFrequenciesAndSeedsBitIdenticalOnEveryTier) {
  // Lanes are jobs: one block mixes conversion rates from 2 to 180 MHz,
  // input frequencies, amplitudes and seeds, and every die must still equal
  // its own PipelineAdc::convert. Full blocks at every kernel width, a
  // ragged padded block (13 dies at W = 16) and a two-block converter whose
  // second block is ragged (37 dies: 32 + 5 at W = 8). The fast dies take
  // the settle chain's slew arm while their slow neighbours stay linear.
  constexpr std::size_t kSamples = 100;
  for (const std::size_t count : {8, 16, 32, 13, 37}) {
    const auto configs = mixed_rate_dies(count);
    std::vector<adc::dsp::SineSignal> tones;
    tones.reserve(count);
    for (std::size_t d = 0; d < count; ++d) {
      const double fin = configs[d].conversion_rate * (0.05 + 0.04 * static_cast<double>(d % 9));
      tones.emplace_back(0.9 + 0.01 * static_cast<double>(d % 8), fin);
    }
    std::vector<const adc::dsp::Signal*> signals;
    for (const auto& tone : tones) signals.push_back(&tone);
    const auto want = per_die_reference(configs, signals, kSamples);
    for (const BatchIsa isa : supported_tiers()) {
      SCOPED_TRACE(testing::Message() << count << " dies, " << adc::common::to_string(isa));
      BatchConverter batch(configs, isa);
      for (std::size_t d = 0; d < count; ++d) {
        EXPECT_EQ(batch.conversion_rate(d), configs[d].conversion_rate) << "die " << d;
      }
      const auto got = batch.convert(signals, kSamples);
      ASSERT_EQ(got.size(), count);
      for (std::size_t d = 0; d < count; ++d) {
        EXPECT_EQ(got[d], want[d]) << "die " << d;
      }
    }
  }
}

TEST(Batch, MixedRateMultiToneBlockBitIdenticalOnEveryTier) {
  // Two-tone stimuli whose tones and phases differ per die, on a ragged
  // mixed-rate block, over two captures (the shared epoch).
  constexpr std::size_t kDies = 11;
  constexpr std::size_t kSamples = 60;
  const auto configs = mixed_rate_dies(kDies);
  std::vector<adc::dsp::MultiToneSignal> stimuli;
  stimuli.reserve(kDies);
  for (std::size_t d = 0; d < kDies; ++d) {
    const double f = configs[d].conversion_rate;
    const double k = static_cast<double>(d);
    stimuli.emplace_back(std::vector<adc::dsp::MultiToneSignal::Tone>{
        {0.45, 0.09 * f, 0.1 * k}, {0.48, 0.11 * f + 1e3 * k, 1.25}});
  }
  std::vector<const adc::dsp::Signal*> signals;
  for (const auto& stimulus : stimuli) signals.push_back(&stimulus);
  std::vector<std::vector<int>> want;
  for (std::size_t d = 0; d < kDies; ++d) {
    PipelineAdc die(configs[d]);
    (void)die.convert(*signals[d], kSamples);
    want.push_back(die.convert(*signals[d], kSamples));
  }
  for (const BatchIsa isa : supported_tiers()) {
    SCOPED_TRACE(adc::common::to_string(isa));
    BatchConverter batch(configs, isa);
    (void)batch.convert(signals, kSamples);
    const auto got = batch.convert(signals, kSamples);
    for (std::size_t d = 0; d < kDies; ++d) {
      EXPECT_EQ(got[d], want[d]) << "die " << d;
    }
  }
}

TEST(Batch, DiesDifferingBeyondSeedAndRateAreRejected) {
  // A block's dies may differ in seed and conversion rate only; any other
  // configuration difference is one loud ConfigError naming the rule.
  const auto expect_rejected = [](const std::vector<AdcConfig>& configs) {
    try {
      const BatchConverter batch(configs);
      ADD_FAILURE() << "mixed configuration accepted";
    } catch (const adc::common::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("only in seed and conversion rate"),
                std::string::npos)
          << e.what();
    }
  };
  auto hot = mixed_rate_dies(4);
  hot[2].temperature_k = 340.0;
  expect_rejected(hot);
  auto low_supply = mixed_rate_dies(4);
  low_supply[3].vdd = 1.62;
  expect_rejected(low_supply);
  auto other_scale = mixed_rate_dies(4);
  other_scale[1].full_scale_vpp = 1.8;
  expect_rejected(other_scale);

  // Stimuli of different kinds or tone counts cannot share one capture.
  const auto configs = mixed_rate_dies(2);
  BatchConverter batch(configs);
  const adc::dsp::MultiToneSignal two({{0.49, 9.7e6, 0.0}, {0.49, 12.3e6, 1.25}});
  const std::vector<const adc::dsp::Signal*> mixed = {&golden_tone(), &two};
  EXPECT_THROW((void)batch.convert(mixed, 8), adc::common::ConfigError);
  const std::vector<const adc::dsp::Signal*> short_list = {&golden_tone()};
  EXPECT_THROW((void)batch.convert(short_list, 8), adc::common::ConfigError);
}

TEST(Batch, IsaResolutionPolicy) {
  EXPECT_EQ(adc::common::parse_batch_isa("avx2"), BatchIsa::kAvx2);
  EXPECT_EQ(adc::common::parse_batch_isa("AVX-512"), std::nullopt);
  // Clamp-down: asking for a stronger tier than the hardware yields the
  // hardware's tier; asking for a weaker one is honored.
  EXPECT_EQ(adc::common::resolve_batch_isa("avx512", BatchIsa::kSse2), BatchIsa::kSse2);
  EXPECT_EQ(adc::common::resolve_batch_isa("sse2", BatchIsa::kAvx512), BatchIsa::kSse2);
  EXPECT_THROW((void)adc::common::resolve_batch_isa("neon", BatchIsa::kAvx512),
               adc::common::ConfigError);
}

TEST(Batch, ZeroSampleCaptureStillAdvancesEpoch) {
  const auto seeds = make_seeds(1);
  BatchConverter batch(fast_nominal(), seeds);
  const auto empty = batch.convert(golden_tone(), 0);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty[0].empty());
  // Scalar: convert(0) also opens (and burns) an epoch.
  AdcConfig cfg = fast_nominal();
  cfg.seed = seeds[0];
  PipelineAdc die(cfg);
  (void)die.convert(golden_tone(), 0);
  EXPECT_EQ(batch.convert(golden_tone(), 16)[0], die.convert(golden_tone(), 16));
}

}  // namespace
