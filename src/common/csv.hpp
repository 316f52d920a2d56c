/// \file csv.hpp
/// Minimal CSV writer for bench reproducibility.
///
/// Every figure bench can dump its series as CSV next to the ASCII plot, so
/// downstream users can re-plot the paper figures with their own tooling.
/// Writing is opt-in: benches write only when the ADC_BENCH_CSV_DIR
/// environment variable names a directory.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace adc::common {

/// A rectangular table destined for a .csv file.
class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> header);

  /// Append one row; must match the header width.
  void add_row(const std::vector<double>& values);
  /// Append a row of pre-formatted cells (for mixed text/number tables).
  void add_text_row(const std::vector<std::string>& cells);

  /// Serialize to CSV text (RFC-4180-style quoting for cells containing
  /// commas or quotes).
  [[nodiscard]] std::string to_string() const;

  /// Write to `path`, whole (common/files.hpp). Throws ConfigError on I/O
  /// failure.
  void write(const std::string& path) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// The bench CSV output directory from ADC_BENCH_CSV_DIR, if set and
/// non-empty.
[[nodiscard]] std::optional<std::string> bench_csv_dir();

/// Convenience used by the bench binaries: write `table` as
/// `<ADC_BENCH_CSV_DIR>/<name>.csv` when the variable is set; returns the
/// path written, or nullopt when CSV output is disabled.
[[nodiscard]] std::optional<std::string> write_bench_csv(const std::string& name,
                                                         const CsvTable& table);

}  // namespace adc::common
