/// Tests for the one file layer (common/files.hpp) and the writers and
/// readers built on it: whole-or-absent writes that leave no temporary
/// behind, exact whole-file reads, file identities shared by links, and
/// spec-file errors that name the file; and the usage errors the
/// `adc_scenario` and `adc_scenariod` binaries exit 2 with.
#include "common/files.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

namespace fs = std::filesystem;
namespace files = adc::common::files;
namespace json = adc::common::json;
using adc::common::ConfigError;

/// A fresh directory per test, removed afterwards.
class FilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("adc_files_" + std::string(info->name()) + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Every name in the test directory, recursively, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
      out.push_back(fs::relative(entry.path(), dir_).string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path dir_;
};

TEST_F(FilesTest, WriteFileReplacesWholeAndLeavesNoTemporary) {
  const fs::path path = dir_ / "doc.json";
  files::write_file(path, "a longer first version of the document\n");
  files::write_file(path, "short\n");
  EXPECT_EQ(files::read_file(path), std::optional<std::string>("short\n"));
  EXPECT_EQ(names(), std::vector<std::string>{"doc.json"});
}

TEST_F(FilesTest, WriteFileIntoMissingDirectoryThrowsAndLeavesNothing) {
  const fs::path path = dir_ / "missing" / "doc.json";
  try {
    files::write_file(path, "bytes");
    FAIL() << "write_file created " << path;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos) << e.what();
  }
  EXPECT_TRUE(names().empty());
}

TEST_F(FilesTest, WriteFileOfPartsWritesTheirBytesInOrder) {
  const fs::path path = dir_ / "parts";
  files::write_file(path, std::span<const std::string_view>{});
  EXPECT_EQ(files::read_file(path), std::optional<std::string>(""));

  const std::vector<std::string_view> empties{"", "", ""};
  files::write_file(path, empties);
  EXPECT_EQ(files::read_file(path), std::optional<std::string>(""));

  // Many parts, empty ones among them, one past 64 KiB, every byte value.
  std::vector<std::string> owned;
  std::string want;
  for (std::size_t k = 0; k < 300; ++k) {
    std::string part(k % 3 == 0 ? 0 : (k == 7 ? 70'001 : k), '\0');
    for (std::size_t i = 0; i < part.size(); ++i) part[i] = static_cast<char>((i + 31 * k) % 256);
    want += part;
    owned.push_back(std::move(part));
  }
  const std::vector<std::string_view> parts(owned.begin(), owned.end());
  files::write_file(path, parts);
  EXPECT_EQ(files::read_file(path), std::optional<std::string>(want));
  EXPECT_EQ(names(), std::vector<std::string>{"parts"});
}

TEST_F(FilesTest, WriteFileOfPartsReplacesWholeAndLeavesNoTemporary) {
  const fs::path path = dir_ / "doc.json";
  files::write_file(path, "a longer first version of the document, in one part\n");
  const std::vector<std::string_view> shorter{"short", "", "er\n"};
  files::write_file(path, shorter);
  EXPECT_EQ(files::read_file(path), std::optional<std::string>("shorter\n"));
  const std::vector<std::string_view> longer{"{\n", "  \"k\": 1\n", "}\n"};
  files::write_file(path, longer);
  EXPECT_EQ(files::read_file(path), std::optional<std::string>("{\n  \"k\": 1\n}\n"));
  EXPECT_EQ(names(), std::vector<std::string>{"doc.json"});

  const fs::path missing = dir_ / "missing" / "doc.json";
  try {
    files::write_file(missing, longer);
    FAIL() << "write_file created " << missing;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(missing.string()), std::string::npos) << e.what();
  }
  EXPECT_EQ(names(), std::vector<std::string>{"doc.json"});
}

TEST_F(FilesTest, ReadFileReturnsExactBytes) {
  EXPECT_FALSE(files::read_file(dir_ / "absent").has_value());

  files::write_file(dir_ / "empty", "");
  const auto empty = files::read_file(dir_ / "empty");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  // Over 64 KiB, every byte value included.
  std::string big(200'003, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>((i * 131) % 256);
  files::write_file(dir_ / "big", big);
  EXPECT_EQ(files::read_file(dir_ / "big"), std::optional<std::string>(big));

  // A pipe, which fstat cannot size (a spec passed as `<(...)`), is read to
  // its end, past the pipe buffer.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    std::size_t done = 0;
    while (done < big.size()) {
      const ssize_t n = ::write(fds[1], big.data() + done, big.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
  });
  const auto piped = files::read_file("/dev/fd/" + std::to_string(fds[0]));
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(piped, std::optional<std::string>(big));
}

TEST_F(FilesTest, ReadFileOfADirectoryIsNullopt) {
  // open(2) takes a directory; the read then fails with EISDIR, which is
  // no file's bytes.
  EXPECT_FALSE(files::read_file(dir_).has_value());
  EXPECT_FALSE(files::read_file_with_id(dir_).has_value());
}

TEST_F(FilesTest, FileIdNamesTheBytesBehindEveryLink) {
  const fs::path a = dir_ / "a";
  const fs::path b = dir_ / "b";
  EXPECT_FALSE(files::file_id(a).has_value());
  files::write_file(a, "pack bytes\n");
  ASSERT_EQ(files::link_name(a, b), 0);
  const auto id = files::file_id(a);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(files::file_id(b), id);
  EXPECT_EQ(id->size, 11);
  // The read reports the identity of the descriptor it read.
  const auto read = files::read_file_with_id(b);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->id, *id);
  EXPECT_EQ(read->bytes, "pack bytes\n");
  // A replaced name is another file.
  files::write_file(b, "other bytes\n");
  EXPECT_NE(files::file_id(b), id);
  EXPECT_EQ(files::file_id(a), id);
}

TEST_F(FilesTest, WriteReportFilesLeavesNoTemporary) {
  const auto spec = adc::scenario::parse_spec_text(R"({
    "name": "tiny",
    "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 256},
    "measurement": {"type": "dynamic"},
    "seeds": {"first": 42, "count": 1}
  })");
  adc::scenario::RunOptions options;
  options.use_cache = false;
  options.threads = 1;
  options.report_dir = (dir_ / "reports").string();
  const auto result = adc::scenario::ScenarioRunner(options).run(spec);
  // A second write over the first replaces both files in place.
  const auto paths =
      adc::scenario::write_report_files(result.report, spec.name, options.report_dir);
  EXPECT_EQ(names(), (std::vector<std::string>{"reports", "reports/tiny_report.csv",
                                               "reports/tiny_report.json"}));
  EXPECT_EQ(files::read_file(paths.json_path),
            std::optional<std::string>(json::dump(result.report)));
  EXPECT_EQ(files::read_file(paths.csv_path),
            std::optional<std::string>(adc::scenario::report_csv(result.report)));
}

TEST_F(FilesTest, SpecFileErrorsNameTheFile) {
  const fs::path spec = dir_ / "malformed.json";
  files::write_file(spec, R"({"name": "malformed", "measurement": )");
  try {
    (void)adc::scenario::load_spec_file(spec.string());
    FAIL() << "load_spec_file accepted " << spec;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(spec.string()), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)adc::scenario::load_spec_file((dir_ / "absent.json").string()),
               ConfigError);
}

/// Run `command` through the shell; its exit status and its stdout and
/// stderr, interleaved.
struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 256> chunk{};
  while (std::fgets(chunk.data(), static_cast<int>(chunk.size()), pipe) != nullptr) {
    result.output += chunk.data();
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// `adc_scenario client submit` validates the spec through load_spec_file
/// before it connects, so a malformed spec fails with exit 1 and the file's
/// name, whether or not a server is listening.
TEST_F(FilesTest, ClientSubmitMalformedSpecNamesTheFile) {
  const fs::path spec = dir_ / "malformed.json";
  files::write_file(spec, R"({"name": "malformed", "measurement": )");
  const auto run = run_command(std::string("'") + ADC_SCENARIO_CLI + "' client submit '" +
                               spec.string() + "' --socket '" +
                               (dir_ / "none.sock").string() + "'");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(spec.string()), std::string::npos) << run.output;
}

/// A numeric option that does not parse whole is a usage error (exit 2)
/// before anything runs: `O.9` (a letter O) once read as a 0 hit-rate gate.
TEST_F(FilesTest, UnparsableNumericOptionIsAUsageError) {
  const auto run = run_command(std::string("'") + ADC_SCENARIO_CLI + "' run '" +
                               (dir_ / "absent.json").string() + "' --min-hit-rate O.9");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--min-hit-rate"), std::string::npos) << run.output;
  EXPECT_TRUE(names().empty());
}

/// The daemon rejects admission bounds of zero with exit 2 and the reason,
/// before it binds its socket. `timeout` ends a daemon that wrongly starts.
TEST_F(FilesTest, DaemonZeroAdmissionBoundIsAUsageError) {
  const fs::path socket = dir_ / "d.sock";
  const auto run = run_command(std::string("timeout 30 '") + ADC_SCENARIOD + "' --socket '" +
                               socket.string() + "' --cache-dir '" +
                               (dir_ / "cache").string() + "' --max-inflight 0");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("admission bounds must be positive"), std::string::npos)
      << run.output;
  EXPECT_FALSE(fs::exists(socket));
}

}  // namespace
