/// \file files.hpp
/// The one file layer: the only code in the library that opens, writes,
/// renames or links a file. Cache entries and packs, claims, scenario
/// reports, run and shard manifests, CSV tables and spec files all reach
/// and leave disk through these calls. `NameWatch` waits for names of this
/// layer to appear or vanish.
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
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adc::common::files {

/// True when a file name marks a temporary of this layer (`*.tmp*`).
[[nodiscard]] bool is_tmp_name(std::string_view name);

/// Write `parts`, in order, to a fresh temporary named after `next_to`, in
/// its directory, and return the temporary's path. The directory must
/// exist.
[[nodiscard]] std::filesystem::path write_temp(const std::filesystem::path& next_to,
                                               std::span<const std::string_view> parts);

/// The one-part call: `bytes` to a fresh temporary.
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

/// Replace (or create) the file at `path` with `parts` joined in order,
/// whole: `publish(write_temp(path, parts), {path})`. The parts are written
/// one after another and never joined in memory. Creates no directories.
void write_file(const std::filesystem::path& path, std::span<const std::string_view> parts);

/// The one-part call: replace (or create) the file at `path` with `bytes`.
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

/// A watch over file names that ends a wait when one of them is *done*: an
/// `appear` name is created or renamed into place (a link(2) or a rename(2)
/// onto it), or a `vanish` name is removed. It holds one inotify descriptor
/// for its lifetime; `arm` sets one watch per distinct directory of the
/// names, and `disarm` removes them. Events for other names in those
/// directories are drained and ignored. A watched directory that is removed,
/// or an overflowed event queue, also ends a wait, since an event may have
/// been lost.
///
/// One watch serves many waits because closing an inotify descriptor that
/// has held watches waits out a kernel grace period (5 to 24 ms measured on
/// a 4-core x86-64 VM), while removing a watch does not; the descriptor's
/// close at destruction is cheap once its watches have been gone for a few
/// milliseconds.
///
/// Events come only from this host's kernel: a write by another host to a
/// shared filesystem raises none, so a caller keeps a bound on every wait.
/// When the watch cannot be armed (no inotify, a missing directory, the
/// watch limit reached) `wait` only sleeps.
class NameWatch {
 public:
  NameWatch();
  ~NameWatch();
  NameWatch(const NameWatch&) = delete;
  NameWatch& operator=(const NameWatch&) = delete;

  /// Watch `appear` and `vanish` instead of the names of the last `arm`,
  /// and drop every event queued so far. False, leaving the watch
  /// disarmed, when a directory cannot be watched.
  bool arm(std::span<const std::filesystem::path> appear,
           std::span<const std::filesystem::path> vanish);

  /// Remove the watches: no event queues until the next `arm`.
  void disarm();

  /// True when a name is done already: an `appear` name exists or a
  /// `vanish` name does not. Called after `arm`, it catches what happened
  /// before the watch could see it.
  [[nodiscard]] bool done() const;

  /// One poll(2) of at most `timeout_ms` (0..INT_MAX): true when it ended
  /// on an event for a watched name or directory, false on the timeout, on
  /// unrelated events or on a signal. Reads no clock, so a caller that
  /// wants the whole bound keeps its own deadline and waits again. Sleeps
  /// the timeout when disarmed.
  [[nodiscard]] bool wait(int timeout_ms);

 private:
  /// Read and discard every queued event; true when one ends a wait.
  bool drain();

  int fd_ = -1;
  std::set<int> dirs_;  ///< watch descriptors of the armed directories
  std::vector<std::filesystem::path> appear_;
  std::vector<std::filesystem::path> vanish_;
  /// (watch descriptor, file name) of each appear and vanish name.
  std::set<std::pair<int, std::string>> appear_events_;
  std::set<std::pair<int, std::string>> vanish_events_;
};

}  // namespace adc::common::files
