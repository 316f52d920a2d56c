#include "scenario/hash.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "pipeline/design.hpp"
#include "power/power_model.hpp"

namespace adc::scenario {

namespace json = adc::common::json;

std::string to_hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = digits[value & 0xfu];
    value >>= 4;
  }
  return out;
}

namespace {

/// `value` in decimal, as the canonical writer writes an unsigned integer.
std::string_view decimal(std::uint64_t value, std::array<char, 20>& digits) {
  return {digits.data(), std::to_chars(digits.data(), digits.data() + digits.size(), value).ptr};
}

void update_double_bits(Fnv1a& hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  hash.update_u64(bits);
}

/// Hash the codes of one converter for a pinned 1k-sample full-scale sine.
void update_with_codes(Fnv1a& hash, const adc::pipeline::AdcConfig& config) {
  adc::pipeline::PipelineAdc adc(config);
  constexpr std::size_t kSamples = 1024;
  const double amplitude = 0.99 * config.full_scale_vpp / 2.0;
  std::vector<double> voltages(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    // 37 cycles over 1024 samples: coprime, every stage residue exercised.
    voltages[i] = amplitude * std::sin(2.0 * std::numbers::pi * 37.0 *
                                       static_cast<double>(i) / static_cast<double>(kSamples));
  }
  const auto codes = adc.convert_samples(voltages);
  for (const int code : codes) hash.update_u64(static_cast<std::uint64_t>(code));
}

/// The behavioral leg of the fingerprint: golden codes + power breakdown,
/// with no version constants folded in yet.
std::uint64_t compute_code_digest() {
  Fnv1a hash;
  update_with_codes(hash, adc::pipeline::nominal_design());
  update_with_codes(hash, adc::pipeline::ideal_design());
  // Fast-profile leg: a change to the counter RNG, the noise-plane layout or
  // the polynomial math kernels must also retire every cache entry.
  adc::pipeline::AdcConfig fast_nominal = adc::pipeline::nominal_design();
  fast_nominal.fidelity = adc::common::FidelityProfile::kFast;
  update_with_codes(hash, fast_nominal);
  // Fold in the power model so power-only changes also retire cache entries.
  adc::pipeline::PipelineAdc nominal(adc::pipeline::nominal_design());
  const adc::power::PowerModel model(adc::pipeline::nominal_power_spec());
  const auto breakdown = model.estimate(nominal);
  update_double_bits(hash, breakdown.pipeline_analog);
  update_double_bits(hash, breakdown.bias_generator);
  update_double_bits(hash, breakdown.reference_buffer);
  update_double_bits(hash, breakdown.bandgap_cm);
  update_double_bits(hash, breakdown.comparators);
  update_double_bits(hash, breakdown.digital);
  return hash.digest();
}

}  // namespace

std::uint64_t golden_code_fingerprint_for(std::uint64_t fast_contract_version) {
  static const std::uint64_t code_digest = compute_code_digest();
  // The declared contract version is folded in *on top of* the behavioral
  // digest: a contract bump retires every fast cache entry even if the
  // regenerated golden codes were to collide with the old ones, and the
  // explicit parameter gives tests a handle to prove cross-version isolation
  // without rebuilding old kernels.
  Fnv1a hash;
  hash.update_u64(code_digest);
  hash.update_u64(fast_contract_version);
  return hash.digest();
}

std::uint64_t golden_code_fingerprint() {
  return golden_code_fingerprint_for(adc::common::kFastContractVersion);
}

json::JsonValue job_document(const ResolvedJob& job) {
  auto die = json::JsonValue::object();
  die.set("seed", job.seed);
  die.set("ideal", job.ideal);
  die.set("conversion_rate_hz", job.config.conversion_rate);
  die.set("temperature_k", job.config.temperature_k);
  die.set("vdd", job.config.vdd);
  die.set("full_scale_vpp", job.config.full_scale_vpp);
  die.set("stage1_dac_skew", job.config.stage1_dac_skew);
  die.set("fidelity", std::string(adc::common::to_string(job.config.fidelity)));

  auto doc = json::JsonValue::object();
  // Yield jobs are dynamic measurements; sharing the kind lets a yield run
  // reuse entries computed by a plain dynamic sweep and vice versa.
  const auto mtype = job.measurement.type;
  const bool dynamic_like = mtype == MeasurementSpec::Type::kDynamic ||
                            mtype == MeasurementSpec::Type::kYield;
  doc.set("kind", dynamic_like ? "dynamic" : std::string(to_string(mtype)));
  doc.set("die", std::move(die));

  if (dynamic_like) {
    auto stimulus = json::JsonValue::object();
    stimulus.set("type", std::string(to_string(job.stimulus.type)));
    stimulus.set("frequency_hz", job.stimulus.frequency_hz);
    if (job.stimulus.type == StimulusSpec::Type::kTwoTone) {
      stimulus.set("spacing_hz", job.stimulus.spacing_hz);
    }
    stimulus.set("amplitude_fraction", job.stimulus.amplitude_fraction);
    stimulus.set("record_length", static_cast<std::uint64_t>(job.stimulus.record_length));
    stimulus.set("max_fin_fraction", job.stimulus.max_fin_fraction);
    doc.set("stimulus", std::move(stimulus));
  } else if (mtype == MeasurementSpec::Type::kStatic) {
    doc.set("samples", static_cast<std::uint64_t>(job.measurement.samples));
  }
  return doc;
}

std::string job_hash_with_fingerprint(const ResolvedJob& job, std::uint64_t fingerprint) {
  Fnv1a hash;
  hash.update(json::canonical(job_document(job)));
  hash.update_u64(kScenarioSchemaVersion);
  hash.update_u64(fingerprint);
  return to_hex(hash.digest());
}

std::string job_hash(const ResolvedJob& job) {
  return job_hash_with_fingerprint(job, golden_code_fingerprint());
}

JobHashTemplate::JobHashTemplate(const ResolvedJob& job)
    : fingerprint_(golden_code_fingerprint()) {
  const std::string text = json::canonical(job_document(job));
  // Object keys are quoted and string values escape their quotes, so the
  // key token occurs only where a member named "seed" is written.
  constexpr std::string_view kKey = "\"seed\":";
  const std::size_t key = text.find(kKey);
  adc::common::require(
      key != std::string::npos && text.find(kKey, key + 1) == std::string::npos,
      "JobHashTemplate: the job text must hold one \"seed\" member");
  const std::size_t value = key + kKey.size();
  std::array<char, 20> digits{};
  const std::string_view seed = decimal(job.seed, digits);
  adc::common::require(text.compare(value, seed.size(), seed) == 0,
                       "JobHashTemplate: the \"seed\" member must hold the job's seed");
  prefix_.update(std::string_view(text).substr(0, value));
  suffix_ = text.substr(value + seed.size());
}

std::string JobHashTemplate::hash(std::uint64_t seed) const {
  std::array<char, 20> digits{};
  Fnv1a hash = prefix_;
  hash.update(decimal(seed, digits));
  hash.update(suffix_);
  hash.update_u64(kScenarioSchemaVersion);
  hash.update_u64(fingerprint_);
  return to_hex(hash.digest());
}

std::string spec_hash(const ScenarioSpec& spec) {
  json::JsonValue doc = spec.raw;
  // Presentation keys do not change what is computed.
  if (doc.is_object()) {
    doc.erase("name");
    doc.erase("description");
  }
  Fnv1a hash;
  hash.update(json::canonical(doc));
  hash.update_u64(kScenarioSchemaVersion);
  hash.update_u64(golden_code_fingerprint());
  return to_hex(hash.digest());
}

}  // namespace adc::scenario
