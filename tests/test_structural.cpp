/// Bit-true cross-check of the structural (gate-level) correction against
/// the arithmetic model, plus the hardware inventory.
#include "oracles/structural.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "digital/correction.hpp"

namespace ad = adc::digital;

namespace {

ad::RawConversion random_raw(int stages, int flash_bits, adc::common::Rng& rng) {
  ad::RawConversion raw;
  raw.stage_codes.reserve(static_cast<std::size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    raw.stage_codes.push_back(static_cast<ad::StageCode>(static_cast<int>(rng.index(3)) - 1));
  }
  raw.flash_code = static_cast<ad::FlashCode>(rng.index(1u << flash_bits));
  return raw;
}

}  // namespace

TEST(Structural, MatchesArithmeticModelExhaustivelyOnSmallChain) {
  // 4 stages + 2-bit flash: 3^4 * 4 = 324 inputs, checked exhaustively.
  const ad::ErrorCorrection arithmetic(4, 2);
  const ad::StructuralCorrection gates(4, 2);
  for (int pattern = 0; pattern < 81; ++pattern) {
    ad::RawConversion raw;
    int p = pattern;
    for (int i = 0; i < 4; ++i) {
      raw.stage_codes.push_back(static_cast<ad::StageCode>(p % 3 - 1));
      p /= 3;
    }
    for (unsigned f = 0; f < 4; ++f) {
      raw.flash_code = static_cast<ad::FlashCode>(f);
      EXPECT_EQ(gates.correct(raw), arithmetic.correct(raw))
          << "pattern " << pattern << " flash " << f;
    }
  }
}

TEST(Structural, MatchesArithmeticModelRandomlyOnPaperChain) {
  const ad::ErrorCorrection arithmetic(10, 2);
  const ad::StructuralCorrection gates(10, 2);
  adc::common::Rng rng(123);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto raw = random_raw(10, 2, rng);
    ASSERT_EQ(gates.correct(raw), arithmetic.correct(raw)) << trial;
  }
}

TEST(Structural, EndpointsAndSaturation) {
  const ad::StructuralCorrection gates(10, 2);
  ad::RawConversion raw;
  raw.stage_codes.assign(10, ad::StageCode::kMinus);
  raw.flash_code = 0;
  EXPECT_EQ(gates.correct(raw), 0);
  raw.stage_codes.assign(10, ad::StageCode::kPlus);
  raw.flash_code = 3;
  EXPECT_EQ(gates.correct(raw), 4095);
}

TEST(Structural, GateInventory) {
  const ad::StructuralCorrection gates(10, 2);
  const auto g = gates.gates();
  // 11 ripple passes of 13 bits each.
  EXPECT_EQ(g.full_adders, 11 * 13);
  // Alignment fabric (110 bits) + 12-bit output register.
  EXPECT_EQ(g.flip_flops, 110 + 12);
  EXPECT_EQ(g.gates_equivalent, 6 * g.full_adders + 8 * g.flip_flops);
}

TEST(Structural, ActivityIsCounted) {
  const ad::StructuralCorrection gates(10, 2);
  ad::RawConversion raw;
  raw.stage_codes.assign(10, ad::StageCode::kZero);
  raw.flash_code = 2;
  (void)gates.correct(raw);
  EXPECT_EQ(gates.last_adder_activity(), 11 * 13);
}

TEST(Structural, SwitchedCapacitanceGroundsThePowerLump) {
  // The structural correction fabric switches 0.5-5 pF, a small part of the
  // power model's 36 pF digital lump (clock tree and output drivers are the
  // rest). The power model does not call this oracle; the bound keeps the
  // inventory plausible.
  const ad::StructuralCorrection gates(10, 2);
  const double c = gates.switched_capacitance();
  EXPECT_GT(c, 0.5e-12);
  EXPECT_LT(c, 5e-12);
}

TEST(Structural, RejectsBadInput) {
  EXPECT_THROW(ad::StructuralCorrection(0, 2), adc::common::ConfigError);
  const ad::StructuralCorrection gates(10, 2);
  ad::RawConversion wrong;
  wrong.stage_codes.assign(9, ad::StageCode::kZero);
  EXPECT_THROW((void)gates.correct(wrong), adc::common::ConfigError);
}

class StructuralGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StructuralGeometrySweep, AgreesAcrossGeometries) {
  const auto [stages, flash_bits] = GetParam();
  const ad::ErrorCorrection arithmetic(stages, flash_bits);
  const ad::StructuralCorrection gates(stages, flash_bits);
  adc::common::Rng rng(7);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto raw = random_raw(stages, flash_bits, rng);
    ASSERT_EQ(gates.correct(raw), arithmetic.correct(raw));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, StructuralGeometrySweep,
                         ::testing::Values(std::make_tuple(6, 2), std::make_tuple(8, 3),
                                           std::make_tuple(12, 2),
                                           std::make_tuple(10, 4)));
