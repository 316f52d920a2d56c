/// \file test_golden_codes_fast.cpp
/// Pins the `fast`-profile output codes of the characterized nominal die.
///
/// The fast profile is a *second* determinism contract, not a loosening of
/// the first: counter-based noise planes and polynomial transcendentals
/// produce different bits than the exact kernel, but the bits they produce
/// are pinned just as hard. These vectors freeze the fast kernel as shipped
/// — a later "optimization" that reorders a noise slot, re-fits a surrogate,
/// or retunes a polynomial must either reproduce them or explicitly bump
/// the contract and regenerate (together with the pinned deviates in
/// test_fast_rng.cpp).
///
/// The call order mirrors tests/test_golden_codes.cpp: convert() -> stream
/// -> convert_dc, so the two tables line up row for row. Each capture opens
/// a fresh noise epoch; the epoch *count* is part of the pinned sequence,
/// but the draws inside a capture depend only on (epoch, position) — never
/// on what earlier captures converted (see CaptureDrawsDependOnEpochIndex).
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/fidelity.hpp"
#include "digital/codes.hpp"
#include "digital/correction.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"
#include "pipeline/design.hpp"
#include "runtime/parallel.hpp"

namespace {

using adc::common::FidelityProfile;
using adc::digital::StageCode;
using adc::pipeline::AdcConfig;
using adc::pipeline::PipelineAdc;

/// The same probe tone as the exact-profile golden vectors.
const adc::dsp::SineSignal& golden_tone() {
  static const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  return tone;
}

AdcConfig fast_nominal(std::uint64_t seed = adc::pipeline::kNominalSeed) {
  AdcConfig config = adc::pipeline::nominal_design(seed);
  config.fidelity = FidelityProfile::kFast;
  return config;
}

/// One raw conversion as text: the stage codes MSB first ('+', '0', '-'),
/// a colon, then the flash code.
std::string raw_text(const adc::digital::RawConversion& raw) {
  std::string s;
  for (const StageCode c : raw.stage_codes) {
    s += c == StageCode::kPlus ? '+' : (c == StageCode::kMinus ? '-' : '0');
  }
  s += ':';
  s += std::to_string(raw.flash_code);
  return s;
}

// Golden vectors generated from the fast kernel at the commit introducing
// the fidelity-profile axis, with the exact call sequence of
// GoldenCodesFast.NominalDieSequence below.
//
// Re-verified under fast contract v2 (division-free log/sqrt draw math,
// kFastContractVersion == 2): the deviates moved by 1-2 ulp but every
// pinned *code* rounds identically — noise sigmas are microvolts against
// millivolt LSBs, so an ulp-level deviate shift is ~1e-10 LSB and the
// tables below are byte-for-byte the v1 tables. The underlying deviate
// pins in test_fast_rng.cpp did change and were regenerated.
const std::vector<int> kFastConvert64 = {
    2039, 3145, 3901, 4068, 3595, 2629, 1478, 507,  27,   189,  940,  2044, 3148,
    3904, 4068, 3593, 2624, 1474, 503,  27,   190,  943,  2048, 3152, 3905, 4068,
    3589, 2619, 1469, 501,  27,   193,  947,  2054, 3157, 3907, 4067, 3586, 2616,
    1465, 498,  25,   194,  951,  2058, 3160, 3909, 4066, 3583, 2611, 1460, 495,
    25,   196,  955,  2063, 3164, 3911, 4065, 3580, 2607, 1456, 492,  24};

const std::vector<int> kFastStream48 = {
    2039, 3144, 3902, 4069, 3596, 2629, 1479, 507,  28,   189,  939,  2044,
    3149, 3904, 4068, 3593, 2624, 1473, 504,  27,   190,  944,  2049, 3152,
    3906, 4067, 3589, 2620, 1469, 501,  26,   193,  947,  2053, 3157, 3908,
    4067, 3586, 2615, 1465, 498,  26,   195,  951,  2059, 3161, 3910, 4067};

const std::vector<int> kFastIdeal32 = {
    2047, 3138, 3883, 4044, 3571, 2614, 1477, 521, 50,  214, 960,
    2052, 3142, 3885, 4043, 3568, 2609, 1472, 518, 50,  216, 964,
    2057, 3146, 3887, 4043, 3565, 2605, 1468, 515, 49,  218};

const std::vector<int> kFastDc5 = {182, 1406, 2047, 2611, 4016};

// Tables of the entry points below, generated from the fast kernel before
// its scalar stage chain became the one-lane instance of the shared chain
// (pipeline/fast_chain.hpp), each with the call sequence of its test.
const std::vector<std::string> kFastRaw32 = {
    "000000-+00:1", "+00+-0+-0+:1", "++++-000-+:1", "++++++0+-0:2",
    "++0000+-+0:1", "+-0+-00+-+:1", "-+00-00+0-:2", "--00000-+0:1",
    "------0-+0:1", "---0-000-+:1", "-00-+-+-+0:2", "00000000-0:2",
    "+00+-0+0-0:2", "++++-00000:2", "++++++0+-0:2", "++0000+-0+:1",
    "+-0+-00000:2", "-+00-000+-:2", "--0000-+00:1", "------0-+0:1",
    "---0-0000-:2", "-00-+-+000:1", "0000000000:2", "+00+-+-000:2",
    "++++-0000+:1", "++++++0+-0:2", "++00000+-+:1", "+-00+00-+0:1",
    "-+00-000-+:1", "--0000-+-+:1", "------0-+0:1", "---0-0000+:1",
};

const std::vector<int> kFastSamples25 = {
    0, 0, 0, 182, 388, 596, 804, 1010, 1217, 1426, 1632, 1840, 2047, 2255, 2464, 2669, 2878,
    3084, 3291, 3500, 3706, 3913, 4095, 4095, 4095};

const std::vector<std::string> kFastForced7 = {
    "000+00000+:1", "00+-00000+:1", "00+00000+0:1", "0+-0000+-0:2",
    "0+00000+00:1", "+-00000+-+:1", "+-00000+-+:1",
};

const std::vector<int> kFastInjected32 = {
    2039, 3071, 3902, 4069, 3596, 2631, 1479, 507, 28, 189, 939, 2044, 3071, 3904, 4068, 3593,
    2626, 1473, 504, 27, 190, 944, 2049, 3071, 3906, 4067, 3589, 2621, 1469, 501, 26, 193};

// Tables of the front-end paths below, generated from the fast kernel before
// its sampling instant, stimulus, switch surrogates and correction became
// the one-lane instances of the batch kernel's, each with the call sequence
// of its test.
const std::vector<int> kFastTwoTone48 = {
    2641, 3409, 3711, 3477, 2811, 1956, 1198, 772,  782,  1181, 1797, 2404,
    2805, 2906, 2722, 2374, 2012, 1771, 1709, 1798, 1940, 2038, 2025, 1913,
    1772, 1712, 1812, 2085, 2455, 2778, 2908, 2739, 2280, 1653, 1069, 744,
    832,  1345, 2148, 2984, 3571, 3689, 3271, 2431, 1430, 595,  213,  415};

const std::vector<int> kFastOverSpan48 = {
    2032, 4095, 4095, 4095, 4095, 3171, 949,  0,    0,    0,    0,    2041,
    4095, 4095, 4095, 4095, 3162, 941,  0,    0,    0,    0,    2049, 4095,
    4095, 4095, 4095, 3152, 932,  0,    0,    0,    0,    2059, 4095, 4095,
    4095, 4095, 3145, 923,  0,    0,    0,    0,    2068, 4095, 4095, 4095};

const std::vector<std::string> kFastOverSpanRaw24 = {
    "00000-+000:1", "++++++++++:3", "++++++++++:3", "++++++++++:3", "++++++++++:3",
    "+00+0-00+0:1", "-00-+0-+0-:2", "----------:0", "----------:0", "----------:0",
    "----------:0", "0000000-0+:1", "++++++++++:3", "++++++++++:3", "++++++++++:3",
    "++++++++++:3", "+00+-+0-+-:2", "-00-+-+0-0:2", "----------:0", "----------:0",
    "----------:0", "----------:0", "00000000+-:2", "++++++++++:3",
};

const std::vector<int> kFastLowCommonMode48 = {
    2042, 3144, 3898, 4064, 3589, 2624, 1477, 510,  32,   194,  947,  2047,
    3148, 3901, 4064, 3587, 2619, 1473, 506,  32,   195,  950,  2051, 3152,
    3902, 4063, 3583, 2614, 1468, 503,  31,   198,  954,  2057, 3156, 3904,
    4062, 3580, 2610, 1464, 500,  30,   199,  958,  2061, 3159, 3906, 4061};

const std::vector<int> kFastNoInjection48 = {
    2039, 3132, 3882, 4047, 3579, 2622, 1485, 524,  48,   208,  952,  2044,
    3136, 3884, 4048, 3576, 2618, 1481, 520,  48,   210,  956,  2048, 3140,
    3886, 4047, 3572, 2613, 1476, 518,  47,   213,  960,  2054, 3144, 3888,
    4046, 3569, 2609, 1472, 515,  46,   214,  963,  2058, 3147, 3890, 4045};

// Tables of the noise-block elision (pipeline/fast_layout.hpp), generated
// from the dense-plane kernel before only the eager blocks were filled,
// each with the call sequence of its test: convert() then convert_raw()
// (capture #2). Two odd geometries, 9 stages with a 2-bit flash (33 slots:
// blocks straddle rows) and 8 stages with a 3-bit flash (34 slots, 7 flash
// comparators); then each geometry with 30 mV rms comparator noise and a
// 2 mV metastability window, so many decisions fall inside the band where
// the chain must fetch the elided draw; then forced stage codes on the
// noisy nominal die.
const std::vector<int> kFastOdd33Convert64 = {
    1019, 1572, 1951, 2034, 1797, 1314, 739, 253, 14, 94, 469, 1022, 1574, 1952, 2034, 1796,
    1312, 737, 252, 13, 95, 472, 1024, 1576, 1952, 2033, 1794, 1310, 735, 250, 13, 96, 473,
    1027, 1578, 1954, 2033, 1793, 1307, 732, 248, 13, 97, 475, 1029, 1580, 1954, 2033, 1791,
    1305, 730, 247, 12, 98, 477, 1031, 1582, 1955, 2033, 1790, 1303, 727, 246, 12};

const std::vector<std::string> kFastOdd33Raw24 = {
    "000000-+0:1", "+00+-0+-0:2", "++++-0000:1", "++++++0+-:2", "++0000+0-:2",
    "+-0+-00+-:2", "-+00-00+0:1", "--00000-+:2", "------0-+:2", "---0-000-:2",
    "-00-+-+-+:1", "0000000-+:2", "+00+-0+0-:2", "++++-0000:2", "++++++0+-:2",
    "++0000+-0:2", "+-0+-0000:2", "-+00-000+:1", "--00000-0:2", "------0-+:1",
    "---0-0000:1", "-00-+-+00:1", "000000000:2", "+00+-+-00:2",
};

const std::vector<int> kFastOdd34Convert64 = {
    1019, 1572, 1951, 2034, 1798, 1314, 739, 254, 14, 94, 469, 1022, 1573, 1952, 2034, 1796,
    1312, 737, 252, 13, 95, 471, 1024, 1576, 1952, 2034, 1795, 1310, 734, 250, 13, 96, 473,
    1026, 1578, 1953, 2033, 1793, 1307, 732, 249, 12, 97, 476, 1029, 1580, 1954, 2033, 1791,
    1305, 730, 247, 12, 98, 477, 1031, 1582, 1955, 2032, 1790, 1303, 728, 246, 12};

const std::vector<std::string> kFastOdd34Raw24 = {
    "000000-+:3", "+00+-0+-:4", "++++-000:2", "++++++0+:2", "++0000+-:5", "+-0+-00+:2",
    "-+00-00+:3", "--00000-:5", "------00:2", "---0-000:2", "-00-+-+-:5", "00000000:2",
    "+00+-0+0:2", "++++-000:4", "++++++0+:2", "++0000+-:4", "+-0+-000:4", "-+00-000:5",
    "--0000-+:4", "------0-:5", "---0-000:3", "-00-+-+0:3", "00000000:4", "+00+-+-0:4",
};

const std::vector<int> kFastNoisy36Convert48 = {
    2039, 3145, 3901, 4068, 3595, 2629, 1479, 507, 27, 189, 940, 2044, 3148, 3904, 4068,
    3593, 2624, 1474, 503, 27, 190, 943, 2048, 3152, 3905, 4068, 3589, 2621, 1467, 501, 27,
    193, 947, 2054, 3157, 3907, 4067, 3586, 2617, 1465, 498, 26, 194, 951, 2058, 3160, 3909,
    4066};

const std::vector<std::string> kFastNoisy36Raw16 = {
    "000000-+00:1", "+00+-00+00:2", "++++-0000-:2", "++++++0+-+:1", "++0000+-+0:2",
    "+-00+00+-+:1", "-+00-00+00:1", "--000000-0:1", "------0-+0:2", "---0-000-+:1",
    "-00-+-+-+0:1", "00000000-0:2", "+00+-0+0-+:1", "+++0+00000:2", "++++++00+0:2",
    "++0000+-0+:1",
};

const std::vector<int> kFastNoisy33Convert48 = {
    1019, 1572, 1951, 2034, 1797, 1314, 739, 253, 14, 94, 469, 1022, 1574, 1952, 2034, 1796,
    1312, 737, 252, 13, 95, 472, 1024, 1576, 1952, 2033, 1794, 1311, 735, 250, 13, 96, 473,
    1027, 1578, 1954, 2033, 1793, 1307, 732, 248, 13, 97, 475, 1029, 1580, 1954, 2033};

const std::vector<std::string> kFastNoisy33Raw16 = {
    "000000-+0:1", "+00+-00+0:2", "+++0+0000:1", "++++++0+-:2", "++0000+0-:2",
    "+-0+-00+-:2", "-+00-00+0:1", "--000000-:2", "------0-+:2", "----+000-:2",
    "-00-+-+-+:1", "00000000-:2", "+00+-0+0-:2", "++++-0000:2", "++++++0+-:2", "++00000+0:2",
};

const std::vector<int> kFastNoisy34Convert48 = {
    1019, 1572, 1951, 2034, 1798, 1314, 738, 254, 14, 94, 469, 1022, 1574, 1952, 2034, 1796,
    1312, 737, 252, 13, 95, 471, 1024, 1576, 1953, 2034, 1795, 1310, 735, 250, 13, 96, 474,
    1026, 1578, 1953, 2033, 1793, 1307, 732, 249, 13, 97, 476, 1029, 1580, 1954, 2033};

const std::vector<std::string> kFastNoisy34Raw16 = {
    "000000-+:3", "+00+-0+-:4", "+++0+000:2", "++++++0+:2", "++0000+-:5", "+-0+-00+:2",
    "0-00-00+:2", "--00000-:5", "------00:2", "---0-00-:6", "-00-+-+-:5", "00000000:2",
    "+00+-0+0:2", "++++-000:4", "++++++0+:2", "++0000+-:4",
};

const std::vector<std::string> kFastNoisyForcedStage4Raw12 = {
    "0000+-----:0", "+00++-----:0", "+++0+0000-:1", "++++++0+-+:0", "++00+---+0:1",
    "+-0++-----:0", "-+0-+00+00:1", "--00+-----:0", "----+-----:0", "----+000-+:1",
    "-00-+-+-+0:2", "0000+-----:0",
};

const std::vector<std::string> kFastNoisyForcedStage1Raw12 = {
    "0+--------:0", "++---0+-0+:1", "++++-0000-:2", "++++++0+-+:1", "++0000+-+0:2",
    "++--------:0", "-+00-00+00:1", "-+--------:0", "-+--------:0", "-+--------:0",
    "-+--------:0", "0+--------:0",
};

const std::vector<std::string> kFastNoisyForcedDc5 = {
    "-+000-0+-+:1", "-+00000-+-:2", "-++0++++++:3", "-++0++++++:3", "-++0++++++:3",
};

TEST(GoldenCodesFast, NominalDieSequence) {
  PipelineAdc converter(fast_nominal());

  EXPECT_EQ(converter.convert(golden_tone(), 64), kFastConvert64);

  const auto stream = converter.convert_stream(golden_tone(), 48);
  EXPECT_EQ(stream.latency_cycles, 6);
  ASSERT_EQ(stream.codes.size(), 48u);
  EXPECT_EQ(stream.codes, kFastStream48);

  EXPECT_EQ(converter.convert_dc(-0.9), kFastDc5[0]);
  EXPECT_EQ(converter.convert_dc(-0.31), kFastDc5[1]);
  EXPECT_EQ(converter.convert_dc(0.0), kFastDc5[2]);
  EXPECT_EQ(converter.convert_dc(0.2718), kFastDc5[3]);
  EXPECT_EQ(converter.convert_dc(0.95), kFastDc5[4]);
}

TEST(GoldenCodesFast, IdealDesign) {
  AdcConfig config = adc::pipeline::ideal_design();
  config.fidelity = FidelityProfile::kFast;
  PipelineAdc ideal(config);
  // The ideal design disables every noise and nonlinearity source, so the
  // two profiles disagree only through transcendental rounding — which this
  // table shows is below a code: it equals the exact-profile kGoldenIdeal32.
  EXPECT_EQ(ideal.convert(golden_tone(), 32), kFastIdeal32);
}

/// convert_raw: the stage and flash codes behind the pinned capture. The
/// raws correct to the first 32 codes of kFastConvert64, since both are
/// capture #1 of a fresh die.
TEST(GoldenCodesFast, ConvertRawStageAndFlashCodes) {
  PipelineAdc converter(fast_nominal());
  const auto raws = converter.convert_raw(golden_tone(), 32);
  ASSERT_EQ(raws.size(), kFastRaw32.size());
  const adc::digital::ErrorCorrection correction(10, 2);
  for (std::size_t k = 0; k < raws.size(); ++k) {
    EXPECT_EQ(raw_text(raws[k]), kFastRaw32[k]) << "sample " << k;
    EXPECT_EQ(correction.correct(raws[k]), kFastConvert64[k]) << "sample " << k;
  }
}

/// convert_samples over ±1.2 × half-scale: the over-range ends drive the
/// later stages' residues into the opamp output-swing clamp and saturate
/// the correction.
TEST(GoldenCodesFast, ConvertSamplesOverRange) {
  PipelineAdc converter(fast_nominal());
  const double half = converter.full_scale_vpp() / 2.0;
  std::vector<double> ramp;
  for (int k = 0; k <= 24; ++k) ramp.push_back(1.2 * half * (k - 12) / 12.0);
  EXPECT_EQ(converter.convert_samples(ramp), kFastSamples25);
}

/// The foreground-calibration sequence: force_stage_code() then
/// convert_dc_raw(), stage by stage from the deepest, then one normal DC
/// conversion after every stage is released.
TEST(GoldenCodesFast, ForcedStageCodesThroughConvertDcRaw) {
  PipelineAdc converter(fast_nominal());
  std::vector<std::string> seen;
  for (std::size_t i = 3; i-- > 0;) {
    const double v_test = 0.25 / static_cast<double>(1u << i);
    for (std::size_t j = 0; j < i; ++j) converter.force_stage_code(j, StageCode::kZero);
    converter.force_stage_code(i, StageCode::kZero);
    seen.push_back(raw_text(converter.convert_dc_raw(v_test)));
    converter.force_stage_code(i, StageCode::kPlus);
    seen.push_back(raw_text(converter.convert_dc_raw(v_test)));
    for (std::size_t j = 0; j <= i; ++j) converter.force_stage_code(j, std::nullopt);
  }
  seen.push_back(raw_text(converter.convert_dc_raw(0.25)));
  EXPECT_EQ(seen, kFastForced7);
}

/// A comparator offset injected through stage_mutable() between two
/// captures: the second capture sees it (missing codes around 3071, the
/// stage-1 +VREF/4 decision moved past the redundancy).
TEST(GoldenCodesFast, ConvertAfterComparatorOffsetInjection) {
  PipelineAdc converter(fast_nominal());
  EXPECT_EQ(converter.convert(golden_tone(), 32),
            std::vector<int>(kFastConvert64.begin(), kFastConvert64.begin() + 32));
  converter.stage_mutable(0).inject_comparator_offset(1, 0.3);
  EXPECT_EQ(converter.convert(golden_tone(), 32), kFastInjected32);
}

/// A two-tone MultiToneSignal capture: the summed stimulus and its slope.
TEST(GoldenCodesFast, TwoToneCapture) {
  PipelineAdc converter(fast_nominal());
  const adc::dsp::MultiToneSignal two_tone({{0.45, 9.0037e6, 0.0}, {0.45, 11.0013e6, 0.7}});
  EXPECT_EQ(converter.convert(two_tone, 48), kFastTwoTone48);
}

/// A 1.9 V tone: the switch surrogates span |v| <= 0.999 x 1.8 V, so the
/// crests go through the out-of-span fallback (and saturate the codes).
TEST(GoldenCodesFast, ToneBeyondSurrogateSpan) {
  PipelineAdc converter(fast_nominal());
  const adc::dsp::SineSignal big(1.9, 10.0037e6);
  EXPECT_EQ(converter.convert(big, 48), kFastOverSpan48);
  const auto raws = converter.convert_raw(big, 24);
  ASSERT_EQ(raws.size(), kFastOverSpanRaw24.size());
  for (std::size_t k = 0; k < raws.size(); ++k) {
    EXPECT_EQ(raw_text(raws[k]), kFastOverSpanRaw24[k]) << "sample " << k;
  }
}

TEST(GoldenCodesFast, DcBeyondSurrogateSpan) {
  PipelineAdc converter(fast_nominal());
  EXPECT_EQ(converter.convert_dc(1.9), 4095);
  EXPECT_EQ(converter.convert_dc(-1.9), 0);
}

/// A 0.45 V input common mode trims the surrogate span to |v| <= 0.899 V,
/// inside the converter's full scale, so the fallback's values reach the
/// codes (the tone crests and the first two DC levels).
TEST(GoldenCodesFast, FallbackInsideFullScale) {
  AdcConfig config = fast_nominal();
  config.refs.common_mode = 0.45;
  PipelineAdc converter(config);
  EXPECT_EQ(converter.convert(golden_tone(), 48), kFastLowCommonMode48);
  EXPECT_EQ(converter.convert_dc(0.95), 4011);
  EXPECT_EQ(converter.convert_dc(-0.93), 125);
  EXPECT_EQ(converter.convert_dc(0.5), 3081);
}

/// Charge injection off with tracking on: the tracking surrogate alone.
TEST(GoldenCodesFast, InjectionOffTrackingOn) {
  AdcConfig config = fast_nominal();
  config.input_switch.injection_fraction = 0.0;
  PipelineAdc converter(config);
  EXPECT_EQ(converter.convert(golden_tone(), 48), kFastNoInjection48);
  EXPECT_EQ(converter.convert_dc(0.31), 2682);
  EXPECT_EQ(converter.convert_dc(-1.9), 0);
}

/// Positional determinism: a capture's draws are a function of the epoch
/// *index* and the sample position, never of what earlier captures
/// converted. Two dies with different histories but equal epoch counts
/// produce identical codes. (The exact profile cannot make this promise —
/// the polar method's rejection loop makes its RNG state data-dependent.)
TEST(GoldenCodesFast, CaptureDrawsDependOnEpochIndexNotHistory) {
  PipelineAdc a(fast_nominal());
  PipelineAdc b(fast_nominal());
  (void)a.convert_dc(0.123);  // both consume exactly one epoch,
  (void)b.convert_dc(0.9);    // with very different inputs
  const auto codes_a = a.convert(golden_tone(), 64);
  const auto codes_b = b.convert(golden_tone(), 64);
  EXPECT_EQ(codes_a, codes_b);
  // The epoch count is part of the sequence: capture #2 reads different
  // noise than the pinned capture #1.
  EXPECT_NE(codes_a, kFastConvert64);
}

/// The parallel-runtime determinism contract holds under the fast profile:
/// batch conversion is bit-identical at 1 worker and at N workers, and the
/// seed-0 die reproduces the pinned vector.
TEST(GoldenCodesFast, ThreadCountInvariant) {
  constexpr std::size_t kDies = 8;
  constexpr std::size_t kSamples = 24;
  const auto job = [](std::size_t i) {
    PipelineAdc converter(fast_nominal(adc::pipeline::kNominalSeed + i));
    return converter.convert(golden_tone(), kSamples);
  };

  std::vector<std::vector<int>> serial;
  std::vector<std::vector<int>> threaded;
  {
    adc::runtime::ScopedThreadOverride one(1);
    serial = adc::runtime::parallel_map<std::vector<int>>(kDies, job);
  }
  {
    adc::runtime::ScopedThreadOverride four(4);
    threaded = adc::runtime::parallel_map<std::vector<int>>(kDies, job);
  }

  ASSERT_EQ(serial.size(), kDies);
  ASSERT_EQ(threaded.size(), kDies);
  for (std::size_t i = 0; i < kDies; ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "die " << i;
  }
  EXPECT_EQ(std::vector<int>(kFastConvert64.begin(),
                             kFastConvert64.begin() + kSamples),
            serial[0]);
}

/// The nominal die reshaped to `stages` stages and a `flash_bits` flash;
/// `noisy` raises every comparator's noise to 30 mV rms and its
/// metastability half-window to 2 mV.
AdcConfig fast_geometry(int stages, int flash_bits, bool noisy) {
  AdcConfig config = fast_nominal();
  config.num_stages = stages;
  config.flash_bits = flash_bits;
  if (noisy) {
    for (adc::analog::ComparatorSpec* c :
         {&config.stage.adsc_comparator, &config.flash_comparator}) {
      c->noise_rms = 0.03;
      c->metastable_window = 0.002;
    }
  }
  return config;
}

void expect_raws(const std::vector<adc::digital::RawConversion>& raws,
                 const std::vector<std::string>& want) {
  ASSERT_EQ(raws.size(), want.size());
  for (std::size_t k = 0; k < raws.size(); ++k) {
    EXPECT_EQ(raw_text(raws[k]), want[k]) << "sample " << k;
  }
}

TEST(GoldenCodesFast, OddGeometries) {
  const struct {
    int stages;
    int flash_bits;
    const std::vector<int>& codes;
    const std::vector<std::string>& raws;
  } cases[] = {
      {9, 2, kFastOdd33Convert64, kFastOdd33Raw24},
      {8, 3, kFastOdd34Convert64, kFastOdd34Raw24},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.stages << " stages, " << c.flash_bits << "-bit flash");
    PipelineAdc converter(fast_geometry(c.stages, c.flash_bits, false));
    EXPECT_EQ(converter.convert(golden_tone(), 64), c.codes);
    expect_raws(converter.convert_raw(golden_tone(), 24), c.raws);
  }
}

TEST(GoldenCodesFast, NoisyComparatorsEveryGeometry) {
  const struct {
    int stages;
    int flash_bits;
    const std::vector<int>& codes;
    const std::vector<std::string>& raws;
  } cases[] = {
      {10, 2, kFastNoisy36Convert48, kFastNoisy36Raw16},
      {9, 2, kFastNoisy33Convert48, kFastNoisy33Raw16},
      {8, 3, kFastNoisy34Convert48, kFastNoisy34Raw16},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.stages << " stages, " << c.flash_bits << "-bit flash");
    PipelineAdc converter(fast_geometry(c.stages, c.flash_bits, true));
    EXPECT_EQ(converter.convert(golden_tone(), 48), c.codes);
    expect_raws(converter.convert_raw(golden_tone(), 16), c.raws);
  }
}

/// Forced stage codes on the noisy nominal die: a forced stage skips its
/// own decision, and the stages after it decide on residues the force
/// moved.
TEST(GoldenCodesFast, ForcedStageCodesOnNoisyComparators) {
  PipelineAdc converter(fast_geometry(10, 2, true));
  converter.force_stage_code(4, StageCode::kPlus);
  expect_raws(converter.convert_raw(golden_tone(), 12), kFastNoisyForcedStage4Raw12);
  converter.force_stage_code(4, std::nullopt);
  converter.force_stage_code(1, StageCode::kPlus);
  expect_raws(converter.convert_raw(golden_tone(), 12), kFastNoisyForcedStage1Raw12);
  converter.force_stage_code(1, std::nullopt);
  converter.force_stage_code(0, StageCode::kMinus);
  converter.force_stage_code(3, StageCode::kZero);
  std::vector<std::string> dc;
  for (const double v : {-0.26, -0.25, 0.0, 0.249, 0.251}) {
    dc.push_back(raw_text(converter.convert_dc_raw(v)));
  }
  EXPECT_EQ(dc, kFastNoisyForcedDc5);
}

}  // namespace
