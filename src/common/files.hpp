/// \file files.hpp
/// The one file layer: the only code in the library that opens, writes,
/// renames or links a file. Cache entries and packs, claims, scenario
/// reports, run and shard manifests, CSV tables and spec files all reach
/// and leave disk through these calls.
///
/// Every write is whole-or-absent. The bytes go to a temporary next to the
/// destination, `<name>.tmp<pid>_<n>` (unique per process and call, so
/// concurrent writers of one name, threads or processes, never share one),
/// which is then renamed over the destination. A reader sees the old file
/// or the new one, never a torn one; a killed writer leaves at worst an
/// orphaned `*.tmp*` name (`is_tmp_name`). Nothing here fsyncs.
///
/// Errors throw ConfigError naming the file; no call leaves a temporary
/// behind when it throws.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace adc::common::files {

/// True when a file name marks a temporary of this layer (`*.tmp*`).
[[nodiscard]] bool is_tmp_name(std::string_view name);

/// Write `bytes` to a fresh temporary named after `next_to`, in its
/// directory, and return the temporary's path. The directory must exist.
[[nodiscard]] std::filesystem::path write_temp(const std::filesystem::path& next_to,
                                               std::string_view bytes);

/// link(2) `to` to the file at `from`, creating `to`'s directory when it is
/// missing; 0 on success, else the errno (EEXIST when `to` exists).
[[nodiscard]] int link_name(const std::filesystem::path& from, const std::filesystem::path& to);

/// Publish the file at `tmp` under every name in `names`, replacing what a
/// name held before, atomically per name: each name but the last gets a
/// link through a fresh temporary renamed over it, and the last name takes
/// `tmp` itself. On failure the temporaries are removed; names already
/// published keep the new file.
void publish(const std::filesystem::path& tmp, std::span<const std::filesystem::path> names);

/// Replace (or create) the file at `path` with `bytes`, whole:
/// `publish(write_temp(path, bytes), {path})`. Creates no directories.
void write_file(const std::filesystem::path& path, std::string_view bytes);

/// What stat(2) says identifies a file's bytes: its inode (device and
/// number), size and modification time. Files of this layer are never
/// rewritten in place, so two names with one identity hold the same bytes.
struct FileId {
  std::uint64_t device = 0;
  std::uint64_t inode = 0;
  std::int64_t size = 0;
  std::int64_t mtime_ns = 0;
  friend bool operator==(const FileId&, const FileId&) = default;
};

/// The identity of the file at `path` (stat(2), following links); nullopt
/// when it cannot be stat'ed.
[[nodiscard]] std::optional<FileId> file_id(const std::filesystem::path& path);

/// A file's bytes and the identity of the descriptor they were read from.
struct FileBytes {
  FileId id;
  std::string bytes;
};

/// The whole file at `path`, read with one read sized by fstat (a pipe is
/// read to its end), with the fstat identity of the descriptor read. A
/// short read keeps the bytes it got. nullopt when the file cannot be
/// opened or a read fails (a directory fails with EISDIR).
[[nodiscard]] std::optional<FileBytes> read_file_with_id(const std::filesystem::path& path);

/// The bytes of `read_file_with_id`.
[[nodiscard]] std::optional<std::string> read_file(const std::filesystem::path& path);

}  // namespace adc::common::files
