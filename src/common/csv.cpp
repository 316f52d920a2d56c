#include "common/csv.hpp"

#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/files.hpp"

namespace adc::common {

namespace {

std::string quote_if_needed(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string format_number(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {
  require(!header_.empty(), "CsvTable: empty header");
}

void CsvTable::add_row(const std::vector<double>& values) {
  require(values.size() == header_.size(), "CsvTable: row width mismatch");
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format_number(v));
  rows_.push_back(std::move(cells));
}

void CsvTable::add_text_row(const std::vector<std::string>& cells) {
  require(cells.size() == header_.size(), "CsvTable: row width mismatch");
  rows_.push_back(cells);
}

std::string CsvTable::to_string() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) out << ',';
    out << quote_if_needed(header_[c]);
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << quote_if_needed(row[c]);
    }
    out << '\n';
  }
  return out.str();
}

void CsvTable::write(const std::string& path) const { files::write_file(path, to_string()); }

std::optional<std::string> bench_csv_dir() {
  const char* dir = std::getenv("ADC_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return std::nullopt;
  return std::string(dir);
}

std::optional<std::string> write_bench_csv(const std::string& name, const CsvTable& table) {
  const auto dir = bench_csv_dir();
  if (!dir) return std::nullopt;
  const std::string path = *dir + "/" + name + ".csv";
  table.write(path);
  return path;
}

}  // namespace adc::common
