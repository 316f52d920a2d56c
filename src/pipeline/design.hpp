/// \file design.hpp
/// Factory functions for the converter the paper describes.
///
/// `nominal_design()` is the one place where device parameters were
/// calibrated against the paper's Table I operating point (110 MS/s,
/// f_in = 10 MHz, 2 V_P-P). Every sweep bench runs with these *fixed*
/// parameters; the curve shapes of Figs. 4-6 emerge from the physics of the
/// models (see DESIGN.md, calibration policy).
#pragma once

#include "pipeline/adc.hpp"
// The nominal design is the one place where the converter and its calibrated
// power/area specs are defined together (Table I is one operating point); the
// factory therefore reaches one layer up. Making calibration a first-class
// workload is the natural point to split design exploration into its own
// layer above power.
#include "power/area.hpp"         // lint-ok: design factory couples sizing to calibrated power
#include "power/power_model.hpp"  // lint-ok: design factory couples sizing to calibrated power

namespace adc::pipeline {

/// The default Monte-Carlo seed of the characterized "die". Changing the
/// seed fabricates a different die from the same design.
inline constexpr std::uint64_t kNominalSeed = 0x5EED2004;

/// The paper's converter: 10x 1.5-bit stages + 2-bit flash, 0.18um device
/// parameters, SC bias generator, bulk-switched input transmission gates,
/// local-sequential clocking, calibrated to Table I.
[[nodiscard]] AdcConfig nominal_design(std::uint64_t seed = kNominalSeed);

/// The same architecture with every non-ideality disabled: a perfect 12-bit
/// quantizer (used by tests as the golden reference).
[[nodiscard]] AdcConfig ideal_design();

/// Power-model constants calibrated with the nominal design (97 mW at
/// 110 MS/s, 110 mW at 130 MS/s).
[[nodiscard]] adc::power::PowerSpec nominal_power_spec();

/// Area-model constants calibrated to the 0.86 mm^2 die.
[[nodiscard]] adc::power::AreaSpec nominal_area_spec();

}  // namespace adc::pipeline
