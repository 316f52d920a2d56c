#include "scenario/spec.hpp"

#include <initializer_list>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/files.hpp"

namespace adc::scenario {

namespace json = adc::common::json;
using adc::common::ConfigError;

namespace {

/// Hard ceiling on the expanded job count: a fat-fingered sweep should fail
/// at validation, not grind the machine.
constexpr std::uint64_t kMaxJobs = 1'000'000;
constexpr std::uint64_t kMaxSeedCount = 100'000;
constexpr std::size_t kMaxAxisValues = 4096;

[[noreturn]] void fail(const std::string& message) {
  throw ConfigError("scenario spec: " + message);
}

void expect_object(const json::JsonValue& value, const std::string& path) {
  if (!value.is_object()) fail("\"" + path + "\" must be an object");
}

void reject_unknown_keys(const json::JsonValue& object, const std::string& prefix,
                         std::initializer_list<std::string_view> allowed) {
  for (const auto& member : object.members()) {
    bool known = false;
    for (const auto candidate : allowed) known = known || member.key == candidate;
    if (!known) {
      fail("unknown key \"" + (prefix.empty() ? member.key : prefix + "." + member.key) + "\"");
    }
  }
}

double get_number(const json::JsonValue& value, const std::string& path) {
  if (!value.is_number()) fail("\"" + path + "\" must be a number");
  return value.as_double();
}

bool get_bool(const json::JsonValue& value, const std::string& path) {
  if (!value.is_bool()) fail("\"" + path + "\" must be a boolean");
  return value.as_bool();
}

std::string get_string(const json::JsonValue& value, const std::string& path) {
  if (!value.is_string()) fail("\"" + path + "\" must be a string");
  return value.as_string();
}

std::uint64_t get_uint(const json::JsonValue& value, const std::string& path) {
  if (!value.is_integer()) fail("\"" + path + "\" must be a non-negative integer");
  try {
    return value.as_uint64();
  } catch (const ConfigError&) {
    fail("\"" + path + "\" must be a non-negative integer");
  }
}

std::size_t get_record_length(const json::JsonValue& value, const std::string& path) {
  const std::uint64_t n = get_uint(value, path);
  const bool power_of_two = n != 0 && (n & (n - 1)) == 0;
  if (!power_of_two || n < 16 || n > (1u << 22)) {
    fail("\"" + path + "\" must be a power of two between 16 and 4194304");
  }
  return static_cast<std::size_t>(n);
}

/// Range check shared by scalar overrides and sweep-axis values, so a value
/// is rejected identically no matter where it appears.
void check_value_range(const std::string& key, double value) {
  if (key == "die.stage1_dac_skew") {
    if (!(value > -1.0 && value < 1.0)) fail("\"" + key + "\" must lie in (-1, 1)");
  } else if (key == "stimulus.amplitude_fraction") {
    if (!(value > 0.0 && value <= 1.2)) fail("\"" + key + "\" must lie in (0, 1.2]");
  } else if (key == "stimulus.max_fin_fraction") {
    if (!(value > 0.0 && value < 1.0)) fail("\"" + key + "\" must lie in (0, 1)");
  } else {
    if (!(value > 0.0)) fail("\"" + key + "\" must be positive");
  }
}

double get_checked(const json::JsonValue& value, const std::string& path) {
  const double x = get_number(value, path);
  check_value_range(path, x);
  return x;
}

StimulusSpec::Type parse_stimulus_type(const std::string& text) {
  if (text == "tone") return StimulusSpec::Type::kTone;
  if (text == "two_tone") return StimulusSpec::Type::kTwoTone;
  if (text == "ramp") return StimulusSpec::Type::kRamp;
  fail("\"stimulus.type\" must be one of \"tone\", \"two_tone\", \"ramp\" (got \"" + text +
       "\")");
}

MeasurementSpec::Type parse_measurement_type(const std::string& text) {
  if (text == "dynamic") return MeasurementSpec::Type::kDynamic;
  if (text == "static") return MeasurementSpec::Type::kStatic;
  if (text == "power") return MeasurementSpec::Type::kPower;
  if (text == "yield") return MeasurementSpec::Type::kYield;
  fail("\"measurement.type\" must be one of \"dynamic\", \"static\", \"power\", \"yield\" "
       "(got \"" + text + "\")");
}

bool is_yield_metric(const std::string& metric) {
  return metric == "snr_db" || metric == "sndr_db" || metric == "sfdr_db" ||
         metric == "thd_db" || metric == "enob";
}

void parse_die(const json::JsonValue& die, DieSpec& out) {
  expect_object(die, "die");
  reject_unknown_keys(die, "die",
                      {"seed", "ideal", "conversion_rate_hz", "temperature_k", "vdd",
                       "full_scale_vpp", "stage1_dac_skew", "fidelity"});
  if (const auto* v = die.find("seed")) out.seed = get_uint(*v, "die.seed");
  if (const auto* v = die.find("ideal")) out.ideal = get_bool(*v, "die.ideal");
  if (const auto* v = die.find("conversion_rate_hz")) {
    out.conversion_rate_hz = get_checked(*v, "die.conversion_rate_hz");
  }
  if (const auto* v = die.find("temperature_k")) {
    out.temperature_k = get_checked(*v, "die.temperature_k");
  }
  if (const auto* v = die.find("vdd")) out.vdd = get_checked(*v, "die.vdd");
  if (const auto* v = die.find("full_scale_vpp")) {
    out.full_scale_vpp = get_checked(*v, "die.full_scale_vpp");
  }
  if (const auto* v = die.find("stage1_dac_skew")) {
    out.stage1_dac_skew = get_number(*v, "die.stage1_dac_skew");
    check_value_range("die.stage1_dac_skew", out.stage1_dac_skew);
    out.has_stage1_dac_skew = true;
  }
  if (const auto* v = die.find("fidelity")) {
    const std::string text = get_string(*v, "die.fidelity");
    if (text == "exact") {
      out.fidelity = adc::common::FidelityProfile::kExact;
    } else if (text == "fast") {
      out.fidelity = adc::common::FidelityProfile::kFast;
    } else {
      fail("\"die.fidelity\" must be \"exact\" or \"fast\" (got \"" + text + "\")");
    }
  }
}

/// Returns whether the spec named "type" explicitly (static measurements
/// default the stimulus to ramp only when the author did not pick one).
bool parse_stimulus(const json::JsonValue& stimulus, StimulusSpec& out) {
  expect_object(stimulus, "stimulus");
  reject_unknown_keys(stimulus, "stimulus",
                      {"type", "frequency_hz", "spacing_hz", "amplitude_fraction",
                       "record_length", "max_fin_fraction"});
  bool explicit_type = false;
  if (const auto* v = stimulus.find("type")) {
    out.type = parse_stimulus_type(get_string(*v, "stimulus.type"));
    explicit_type = true;
  }
  if (const auto* v = stimulus.find("frequency_hz")) {
    out.frequency_hz = get_checked(*v, "stimulus.frequency_hz");
  }
  if (const auto* v = stimulus.find("spacing_hz")) {
    out.spacing_hz = get_checked(*v, "stimulus.spacing_hz");
  }
  if (const auto* v = stimulus.find("amplitude_fraction")) {
    out.amplitude_fraction = get_checked(*v, "stimulus.amplitude_fraction");
  }
  if (const auto* v = stimulus.find("record_length")) {
    out.record_length = get_record_length(*v, "stimulus.record_length");
  }
  if (const auto* v = stimulus.find("max_fin_fraction")) {
    out.max_fin_fraction = get_checked(*v, "stimulus.max_fin_fraction");
  }
  return explicit_type;
}

void parse_measurement(const json::JsonValue& measurement, MeasurementSpec& out) {
  expect_object(measurement, "measurement");
  reject_unknown_keys(measurement, "measurement", {"type", "samples", "metric", "limit"});
  const auto* type = measurement.find("type");
  if (type == nullptr) fail("missing required key \"measurement.type\"");
  out.type = parse_measurement_type(get_string(*type, "measurement.type"));

  if (const auto* v = measurement.find("samples")) {
    if (out.type != MeasurementSpec::Type::kStatic) {
      fail("\"measurement.samples\" only applies to \"static\" measurements");
    }
    const std::uint64_t n = get_uint(*v, "measurement.samples");
    if (n < 4096 || n > (1u << 24)) {
      fail("\"measurement.samples\" must lie in [4096, 16777216]");
    }
    out.samples = static_cast<std::size_t>(n);
  }
  if (const auto* v = measurement.find("metric")) {
    if (out.type != MeasurementSpec::Type::kYield) {
      fail("\"measurement.metric\" only applies to \"yield\" measurements");
    }
    out.metric = get_string(*v, "measurement.metric");
    if (!is_yield_metric(out.metric)) {
      fail("\"measurement.metric\" must be one of \"snr_db\", \"sndr_db\", \"sfdr_db\", "
           "\"thd_db\", \"enob\" (got \"" + out.metric + "\")");
    }
  }
  const auto* limit = measurement.find("limit");
  if (limit != nullptr && out.type != MeasurementSpec::Type::kYield) {
    fail("\"measurement.limit\" only applies to \"yield\" measurements");
  }
  if (out.type == MeasurementSpec::Type::kYield) {
    if (limit == nullptr) fail("missing required key \"measurement.limit\"");
    out.limit = get_number(*limit, "measurement.limit");
  }
}

void parse_seeds(const json::JsonValue& seeds, ScenarioSpec& spec) {
  expect_object(seeds, "seeds");
  reject_unknown_keys(seeds, "seeds", {"first", "count"});
  if (const auto* v = seeds.find("first")) spec.first_seed = get_uint(*v, "seeds.first");
  if (const auto* v = seeds.find("count")) {
    spec.seed_count = get_uint(*v, "seeds.count");
    if (spec.seed_count < 1 || spec.seed_count > kMaxSeedCount) {
      fail("\"seeds.count\" must lie in [1, 100000]");
    }
  }
  if (spec.first_seed > std::numeric_limits<std::uint64_t>::max() - spec.seed_count) {
    fail("\"seeds.first\" + \"seeds.count\" overflows");
  }
}

void parse_sweep(const json::JsonValue& sweep, ScenarioSpec& spec) {
  if (!sweep.is_array()) fail("\"sweep\" must be an array of {key, values} objects");
  for (std::size_t i = 0; i < sweep.items().size(); ++i) {
    const auto& entry = sweep.items()[i];
    const std::string prefix = "sweep[" + std::to_string(i) + "]";
    expect_object(entry, prefix);
    reject_unknown_keys(entry, prefix, {"key", "values"});
    const auto* key = entry.find("key");
    if (key == nullptr) fail("missing required key \"" + prefix + ".key\"");
    SweepAxis axis;
    axis.key = get_string(*key, prefix + ".key");
    bool known = false;
    for (const auto& candidate : allowed_sweep_keys()) known = known || candidate == axis.key;
    if (!known) {
      std::ostringstream msg;
      msg << "unknown sweep key \"" << axis.key << "\"; allowed:";
      for (const auto& candidate : allowed_sweep_keys()) msg << " \"" << candidate << "\"";
      fail(msg.str());
    }
    for (const auto& existing : spec.sweep) {
      if (existing.key == axis.key) fail("duplicate sweep axis \"" + axis.key + "\"");
    }
    const auto* values = entry.find("values");
    if (values == nullptr) fail("missing required key \"" + prefix + ".values\"");
    if (!values->is_array() || values->items().empty()) {
      fail("\"" + prefix + ".values\" must be a non-empty array of numbers");
    }
    if (values->items().size() > kMaxAxisValues) {
      fail("\"" + prefix + ".values\" holds more than 4096 values");
    }
    for (const auto& value : values->items()) {
      const double x = get_number(value, prefix + ".values");
      check_value_range(axis.key, x);
      axis.values.push_back(x);
    }
    spec.sweep.push_back(std::move(axis));
  }
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const std::vector<std::string>& allowed_sweep_keys() {
  static const std::vector<std::string> keys = {
      "die.conversion_rate_hz", "die.temperature_k",      "die.vdd",
      "die.full_scale_vpp",     "die.stage1_dac_skew",    "stimulus.frequency_hz",
      "stimulus.amplitude_fraction",
  };
  return keys;
}

std::string_view to_string(StimulusSpec::Type type) {
  switch (type) {
    case StimulusSpec::Type::kTone: return "tone";
    case StimulusSpec::Type::kTwoTone: return "two_tone";
    case StimulusSpec::Type::kRamp: return "ramp";
  }
  return "tone";
}

std::string_view to_string(MeasurementSpec::Type type) {
  switch (type) {
    case MeasurementSpec::Type::kDynamic: return "dynamic";
    case MeasurementSpec::Type::kStatic: return "static";
    case MeasurementSpec::Type::kPower: return "power";
    case MeasurementSpec::Type::kYield: return "yield";
  }
  return "dynamic";
}

ScenarioSpec parse_spec(const json::JsonValue& doc) {
  if (!doc.is_object()) fail("top-level document must be an object");
  reject_unknown_keys(doc, "",
                      {"name", "description", "die", "stimulus", "measurement", "seeds",
                       "sweep"});

  ScenarioSpec spec;
  const auto* name = doc.find("name");
  if (name == nullptr) fail("missing required key \"name\"");
  spec.name = get_string(*name, "name");
  if (!valid_name(spec.name)) {
    fail("\"name\" must be 1-64 characters from [A-Za-z0-9_.-] (got \"" + spec.name + "\")");
  }
  if (const auto* v = doc.find("description")) {
    spec.description = get_string(*v, "description");
  }

  if (const auto* die = doc.find("die")) parse_die(*die, spec.die);

  bool explicit_stimulus_type = false;
  if (const auto* stimulus = doc.find("stimulus")) {
    explicit_stimulus_type = parse_stimulus(*stimulus, spec.stimulus);
  }

  const auto* measurement = doc.find("measurement");
  if (measurement == nullptr) fail("missing required key \"measurement\"");
  parse_measurement(*measurement, spec.measurement);

  // Stimulus/measurement compatibility.
  const auto mtype = spec.measurement.type;
  if (mtype == MeasurementSpec::Type::kDynamic || mtype == MeasurementSpec::Type::kYield) {
    if (spec.stimulus.type == StimulusSpec::Type::kRamp) {
      fail("\"stimulus.type\" \"ramp\" is incompatible with measurement type \"" +
           std::string(to_string(mtype)) + "\"");
    }
  } else if (mtype == MeasurementSpec::Type::kStatic) {
    if (explicit_stimulus_type && spec.stimulus.type != StimulusSpec::Type::kRamp) {
      fail("\"stimulus.type\" \"" + std::string(to_string(spec.stimulus.type)) +
           "\" is incompatible with measurement type \"static\" (use \"ramp\")");
    }
    spec.stimulus.type = StimulusSpec::Type::kRamp;
  }

  spec.first_seed = spec.die.seed;
  if (const auto* seeds = doc.find("seeds")) parse_seeds(*seeds, spec);

  if (const auto* sweep = doc.find("sweep")) parse_sweep(*sweep, spec);
  for (const auto& axis : spec.sweep) {
    const bool stimulus_axis = axis.key.rfind("stimulus.", 0) == 0;
    const bool dynamic_like =
        mtype == MeasurementSpec::Type::kDynamic || mtype == MeasurementSpec::Type::kYield;
    if (stimulus_axis && !dynamic_like) {
      fail("sweep axis \"" + axis.key + "\" does not apply to measurement type \"" +
           std::string(to_string(mtype)) + "\"");
    }
  }

  spec.raw = doc;
  return spec;
}

ScenarioSpec parse_spec_text(std::string_view text) { return parse_spec(json::parse(text)); }

ScenarioSpec load_spec_file(const std::string& path) {
  const auto text = adc::common::files::read_file(path);
  if (!text.has_value()) throw ConfigError("scenario spec: cannot open " + path);
  try {
    return parse_spec_text(*text);
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

std::vector<JobPoint> expand_jobs(const ScenarioSpec& spec) {
  std::uint64_t grid = 1;
  for (const auto& axis : spec.sweep) {
    grid *= axis.values.size();  // bounded: <= 4096 per axis, checked below
    if (grid > kMaxJobs) fail("sweep grid exceeds the 1000000-job limit");
  }
  const std::uint64_t total = grid * spec.seed_count;
  if (total > kMaxJobs) {
    fail("sweep expands to " + std::to_string(total) + " jobs (limit " +
         std::to_string(kMaxJobs) + ")");
  }

  std::vector<JobPoint> jobs;
  jobs.reserve(static_cast<std::size_t>(total));
  for (std::uint64_t g = 0; g < grid; ++g) {
    // Decode the row-major grid index: first axis slowest.
    std::vector<double> values(spec.sweep.size(), 0.0);
    std::uint64_t rem = g;
    for (std::size_t a = spec.sweep.size(); a-- > 0;) {
      const auto& axis = spec.sweep[a];
      values[a] = axis.values[static_cast<std::size_t>(rem % axis.values.size())];
      rem /= axis.values.size();
    }
    for (std::uint64_t s = 0; s < spec.seed_count; ++s) {
      jobs.push_back({jobs.size(), spec.first_seed + s, values});
    }
  }
  return jobs;
}

ResolvedJob resolve_job(const ScenarioSpec& spec, const JobPoint& job) {
  adc::common::require(job.axis_values.size() == spec.sweep.size(),
                       "resolve_job: axis value count does not match the sweep");
  ResolvedJob resolved;
  resolved.stimulus = spec.stimulus;
  resolved.measurement = spec.measurement;
  resolved.seed = job.seed;
  resolved.ideal = spec.die.ideal;

  adc::pipeline::AdcConfig config =
      spec.die.ideal ? adc::pipeline::ideal_design() : adc::pipeline::nominal_design(job.seed);
  config.seed = job.seed;
  if (spec.die.conversion_rate_hz > 0.0) config.conversion_rate = spec.die.conversion_rate_hz;
  if (spec.die.temperature_k > 0.0) config.temperature_k = spec.die.temperature_k;
  if (spec.die.vdd > 0.0) config.vdd = spec.die.vdd;
  if (spec.die.full_scale_vpp > 0.0) config.full_scale_vpp = spec.die.full_scale_vpp;
  if (spec.die.has_stage1_dac_skew) config.stage1_dac_skew = spec.die.stage1_dac_skew;
  config.fidelity = spec.die.fidelity;

  for (std::size_t a = 0; a < spec.sweep.size(); ++a) {
    const std::string& key = spec.sweep[a].key;
    const double value = job.axis_values[a];
    if (key == "die.conversion_rate_hz") {
      config.conversion_rate = value;
    } else if (key == "die.temperature_k") {
      config.temperature_k = value;
    } else if (key == "die.vdd") {
      config.vdd = value;
    } else if (key == "die.full_scale_vpp") {
      config.full_scale_vpp = value;
    } else if (key == "die.stage1_dac_skew") {
      config.stage1_dac_skew = value;
    } else if (key == "stimulus.frequency_hz") {
      resolved.stimulus.frequency_hz = value;
    } else if (key == "stimulus.amplitude_fraction") {
      resolved.stimulus.amplitude_fraction = value;
    } else {
      fail("unknown sweep key \"" + key + "\"");  // unreachable after validation
    }
  }
  resolved.config = config;
  return resolved;
}

}  // namespace adc::scenario
