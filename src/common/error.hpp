/// \file error.hpp
/// Error types for the library. Configuration errors throw; numerical code on
/// the hot path never throws (it asserts preconditions in debug builds).
#pragma once

#include <stdexcept>
#include <string>

namespace adc::common {

/// Base class for all errors raised by the library.
class AdcError : public std::runtime_error {
 public:
  explicit AdcError(const std::string& what) : std::runtime_error(what) {}
};

/// An invalid or inconsistent configuration was supplied (e.g. a negative
/// capacitance, a non-power-of-two FFT length, an empty pipeline).
class ConfigError : public AdcError {
 public:
  explicit ConfigError(const std::string& what) : AdcError(what) {}
};

/// A measurement could not be evaluated (e.g. no fundamental tone found in a
/// spectrum, histogram with empty bins in the analysed range).
class MeasurementError : public AdcError {
 public:
  explicit MeasurementError(const std::string& what) : AdcError(what) {}
};

/// Throw ConfigError with `msg` when `ok` is false. For use in constructors
/// that establish class invariants from user-supplied configuration.
inline void require(bool ok, const std::string& msg) {
  if (!ok) throw ConfigError(msg);
}

/// Same, for a literal message: builds no std::string unless `ok` is false
/// (checks on per-sample paths, such as StageCodeVec::push_back, stay
/// allocation-free).
inline void require(bool ok, const char* msg) {
  if (!ok) throw ConfigError(msg);
}

}  // namespace adc::common
