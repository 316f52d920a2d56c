#include "common/files.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace adc::common::files {

namespace fs = std::filesystem;

namespace {

/// Fleet-unique suffix for temporary files: pid + per-process counter, so
/// two concurrent writers of one name never interleave writes, whether they
/// are threads or separate worker processes sharing a directory.
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return ".tmp" + std::to_string(static_cast<long>(::getpid())) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Read size for a file fstat cannot size (a pipe, such as a spec passed
/// as `<(...)`).
constexpr std::size_t kChunk = 64 * 1024;

FileId id_of(const struct stat& st) {
  return {static_cast<std::uint64_t>(st.st_dev), static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_size),
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 + st.st_mtim.tv_nsec};
}

}  // namespace

bool is_tmp_name(std::string_view name) { return name.find(".tmp") != std::string_view::npos; }

fs::path write_temp(const fs::path& next_to, std::span<const std::string_view> parts) {
  const fs::path tmp = next_to.string() + unique_tmp_suffix();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    throw ConfigError("cannot write " + next_to.string() + ": " + std::strerror(errno));
  }
  bool whole = true;
  for (const std::string_view bytes : parts) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    whole = done == bytes.size();
    if (!whole) break;
  }
  if (::close(fd) != 0 || !whole) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw ConfigError("write failed for " + next_to.string());
  }
  return tmp;
}

fs::path write_temp(const fs::path& next_to, std::string_view bytes) {
  return write_temp(next_to, std::span(&bytes, 1));
}

int link_name(const fs::path& from, const fs::path& to) {
  if (::link(from.c_str(), to.c_str()) == 0) return 0;
  if (errno != ENOENT) return errno;
  std::error_code ec;
  fs::create_directories(to.parent_path(), ec);
  if (ec) return ec.value();
  return ::link(from.c_str(), to.c_str()) == 0 ? 0 : errno;
}

void publish(const fs::path& tmp, std::span<const fs::path> names) {
  std::error_code ec;
  const auto fail = [&](const std::string& what) {
    fs::remove(tmp, ec);
    throw ConfigError(what);
  };
  for (std::size_t i = 0; i + 1 < names.size(); ++i) {
    const fs::path link_tmp = names[i].string() + unique_tmp_suffix();
    if (const int err = link_name(tmp, link_tmp); err != 0) {
      fail("cannot link " + link_tmp.string() + ": " + std::strerror(err));
    }
    fs::rename(link_tmp, names[i], ec);
    if (ec) {
      fs::remove(link_tmp, ec);
      fail("rename failed for " + names[i].string());
    }
  }
  fs::rename(tmp, names.back(), ec);
  if (ec) fail("rename failed for " + names.back().string());
}

void write_file(const fs::path& path, std::span<const std::string_view> parts) {
  publish(write_temp(path, parts), std::span(&path, 1));
}

void write_file(const fs::path& path, std::string_view bytes) {
  write_file(path, std::span(&bytes, 1));
}

std::optional<FileId> file_id(const fs::path& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return id_of(st);
}

std::optional<FileBytes> read_file_with_id(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  FileBytes file;
  std::string& text = file.bytes;
  struct stat st {};
  const bool known = ::fstat(fd, &st) == 0;
  if (known) file.id = id_of(st);
  const bool sized = known && S_ISREG(st.st_mode);
  if (sized) text.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  for (;;) {
    if (done == text.size()) {
      if (sized) break;
      text.resize(done + kChunk);
    }
    const ssize_t n = ::read(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  text.resize(done);
  return file;
}

std::optional<std::string> read_file(const fs::path& path) {
  auto file = read_file_with_id(path);
  if (!file.has_value()) return std::nullopt;
  return std::move(file->bytes);
}

}  // namespace adc::common::files
