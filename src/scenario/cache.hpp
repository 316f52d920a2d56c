/// \file cache.hpp
/// On-disk content-addressed result cache.
///
/// Entries live at `<root>/<first two hex digits>/<hash>.json` and wrap the
/// payload in an envelope that repeats the hash and schema version, written
/// by `json::dump`:
///
/// ```json
/// {
///   "hash": "6b8b4567327b23c6",
///   "schema_version": 2,
///   "payload": {...}
/// }
/// ```
///
/// Pack format: one `store` call writes all its entries as one file, a
/// *pack*, and publishes every entry name as a hard link to it, so a 32-die
/// execute unit creates one inode, not 32. A one-entry pack is the bare
/// envelope above, the classic one-file-per-entry layout. A pack of several
/// wraps their envelopes, each byte for byte as above, in one JSON object:
///
/// ```
/// {"pack": [
/// <envelope>,
/// <envelope>]}
/// ```
///
/// Caches from either layout load alike, and every file is one JSON
/// document. `load` finds its own envelope by its header
/// (`{\n  "hash": "<hash>"` at a line start) and parses only that slice. A
/// `load` over several names reads each pack once: a name whose stat
/// identity matches a file the call has already read reuses its bytes. A
/// build that predates packs reads a multi-entry pack as an envelope
/// without a hash, evicts it and recomputes.
///
/// The root directory resolves, in priority order: the explicit constructor
/// argument, the `ADC_SCENARIO_CACHE_DIR` environment variable, then
/// `.adc-cache` in the working directory.
///
/// Durability contract:
///   * `store` writes the pack to a temporary file and gives each entry name
///     its own link by linking a fresh temporary and renaming it over the
///     entry (the last name takes the pack's temporary itself; common/files
///     `write_temp` + `publish`), so the last writer of a name wins, readers
///     never observe a half-written entry, and a killed run leaves at worst
///     orphaned `*.tmp*` names next to complete entries. The filesystem must
///     support link(2).
///   * `load` validates its envelope (the file ends with the closing bytes
///     of a bare envelope or of a pack, an envelope for this hash is present
///     and parseable, the hash echo and schema version match, payload
///     present). Anything else —
///     a truncated or tampered pack, a name linked to a pack lacking its
///     hash, an entry from an older schema — *evicts* that name (only that
///     link is deleted) and reports a miss, so corruption heals itself by
///     recomputation. A torn pack therefore evicts each of its names as it
///     is loaded.
///
/// Thread safety: `load`/`store` may be called concurrently from pool
/// workers, with overlapping hashes too; temporary names are unique per
/// process and call, and the session counters are atomic.
///
/// Claim protocol (the fleet coordination substrate, docs/FLEET.md):
/// a *claim* is a sidecar `<root>/<xx>/<hash>.claim` file recording an owner
/// id and a heartbeat timestamp. `try_claim` takes a span of hashes, one
/// execute unit's jobs: it writes the claim document once, to one temporary,
/// and publishes it under every fresh claim name with link(2), so a unit's
/// claims share one inode, exactly one of N racing processes acquires each
/// fresh name, and nobody reads a half-written claim. A name that already
/// holds a claim is handled on its own: the owner's own claim is refreshed
/// (re-entrant), a live one is busy, and one whose heartbeat is older than
/// the caller's lease is *stale* (its owner crashed or stalled) and is
/// stolen by atomically renaming a replacement over it. A link that fails
/// for any other reason releases the names the call already linked and
/// throws. `link_claim` links one more claim name to a claim file the
/// caller already holds, creating no inode. A heartbeat round
/// (`refresh_claim`) writes one temporary and renames a link to it over
/// every name still held. A
/// unit's claim names span the fan-out directories, as a pack's entry names
/// do. Claims are an optimization that minimizes duplicate computation
/// — correctness never depends on them: jobs are pure and content-addressed,
/// so the worst outcome of the (tiny) steal race is two workers computing
/// identical bytes for the same hash. Timestamps are supplied by the caller
/// (the claim holder, claims.hpp, reads them from src/runtime; this layer
/// reads no clock).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/files.hpp"
#include "common/json.hpp"

namespace adc::scenario {

/// Disk usage summary from walking the cache root. `entries` counts entry
/// names; `bytes` counts each file once, however many names link to it.
/// `tmp_files` and
/// `claim_files` count the sidecar litter a killed process can leave behind
/// (`store` temporaries that never got renamed, claims that were never
/// released); both are invisible to `entries` and reclaimed by
/// `clear_stale`.
struct CacheStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tmp_files = 0;
  std::uint64_t claim_files = 0;
};

/// One entry of a `store` call: a payload and the hash it is stored under.
/// Both are borrowed for the duration of the call.
struct CacheEntry {
  const std::string& hash;
  const adc::common::json::JsonValue& payload;
};

/// Decoded contents of one claim sidecar.
struct ClaimInfo {
  std::string owner;            ///< opaque worker identity (e.g. host:pid)
  std::uint64_t heartbeat_ms = 0;  ///< wall-clock ms, written by the owner
};

/// A claim observed while walking the cache root (fleet-status view).
struct ClaimRecord {
  std::string hash;
  ClaimInfo info;
};

/// Outcome of `try_claim`.
enum class ClaimOutcome {
  kAcquired,  ///< the caller now owns the claim (fresh, re-entrant or stolen)
  kBusy,      ///< another owner holds a claim whose lease has not expired
};

/// Files removed by `clear_stale`.
struct StaleSweep {
  std::uint64_t tmp_removed = 0;
  std::uint64_t claims_removed = 0;
};

class ResultCache {
 public:
  /// Empty root = resolve via ADC_SCENARIO_CACHE_DIR, else ".adc-cache".
  explicit ResultCache(std::string root = "");

  /// The resolution described above, without constructing a cache.
  [[nodiscard]] static std::string default_root();

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Fail fast on a bad cache root: creates the root directory if needed and
  /// probe-writes (then removes) a file inside it. Throws ConfigError with a
  /// single-line diagnostic naming the root and the OS reason when the root
  /// is not a directory, cannot be created, or is not writable — so an
  /// unusable ADC_SCENARIO_CACHE_DIR surfaces before any simulation work
  /// instead of as a raw filesystem exception mid-run.
  void ensure_writable() const;

  /// Fetch the payload stored under each of `hashes`; one result per hash,
  /// in order, nullopt on a miss. Each name is stat'ed; a name whose
  /// identity (device, inode, size, mtime) is a file this call has already
  /// read reuses those bytes, so a call over a pack's names reads the pack
  /// once. Each name's envelope is still validated on its own: an invalid
  /// one evicts that name and counts as a miss, and the counters move
  /// exactly as they would for one-name loads of the same hashes.
  [[nodiscard]] std::vector<std::optional<adc::common::json::JsonValue>> load(
      std::span<const std::string> hashes);

  /// The one-name load: the one-element call above.
  [[nodiscard]] std::optional<adc::common::json::JsonValue> load(const std::string& hash);

  /// Atomically persist `entries` as one pack (see the file comment): one
  /// file, one link per entry name. `stores()` rises by `entries.size()`.
  void store(std::span<const CacheEntry> entries);

  /// The one-entry store: a pack of one envelope, which is the classic
  /// entry file (write temp + rename).
  void store(const std::string& hash, const adc::common::json::JsonValue& payload);

  /// Walk the cache root and summarize the entries on disk (plus orphaned
  /// `.tmp`/`.claim` sidecars; the `fleet/` manifest subdirectory is not
  /// part of the cache and is skipped).
  [[nodiscard]] CacheStats stats() const;

  // --- Claim / lease protocol (fleet coordination, docs/FLEET.md) ---------

  /// Try to acquire the claim on each of `hashes` for `owner` at wall time
  /// `now_ms`; one outcome per hash, in order. Exactly one of N concurrent
  /// callers with distinct owners acquires a fresh claim; a claim already
  /// held by `owner` is refreshed (re-entrant); a claim whose heartbeat is
  /// older than `lease_ms` is stolen. kBusy means another owner's claim is
  /// still within its lease. The fresh claims of one call are links to one
  /// file. Throws ConfigError, leaving none of this call's fresh claims
  /// behind, when a name can be neither created nor found taken.
  std::vector<ClaimOutcome> try_claim(std::span<const std::string> hashes,
                                      const std::string& owner, std::uint64_t now_ms,
                                      std::uint64_t lease_ms);

  /// Claim `hash` by linking its claim name to the claim file of `source`,
  /// creating no inode: the new claim carries `source`'s owner and
  /// heartbeat. False when the name is already claimed or cannot be linked
  /// (try_claim settles those). Only for a caller that holds a claim on
  /// `source` young enough to stay live until its next heartbeat round.
  bool link_claim(const std::string& source, const std::string& hash);

  /// Re-stamp the heartbeat of every claim in `hashes` that `owner` still
  /// holds, with one new claim file linked under all of them; returns how
  /// many were re-stamped. A claim that is gone or owned by someone else
  /// (it was stolen after the lease expired) is skipped — the caller should
  /// treat that job as forfeited.
  std::size_t refresh_claim(std::span<const std::string> hashes, const std::string& owner,
                            std::uint64_t now_ms);

  /// Delete each claim in `hashes` that `owner` holds (the others are left
  /// alone).
  void release_claim(std::span<const std::string> hashes, const std::string& owner);

  /// Arm `watch` (common/files `NameWatch`) to end a wait when one of
  /// `hashes` is done: its entry name `<xx>/<hash>.json` appears (a store)
  /// or its claim name `<xx>/<hash>.claim` is removed (a release). False
  /// when the watch cannot be armed.
  bool arm_watch(adc::common::files::NameWatch& watch,
                 std::span<const std::string> hashes) const;

  /// Decode the claim sidecar for `hash`; nullopt when absent or corrupt
  /// (try_claim treats a corrupt claim as stale).
  [[nodiscard]] std::optional<ClaimInfo> read_claim(const std::string& hash) const;

  /// Every claim sidecar currently on disk, sorted by hash (the
  /// `adc_fleet status` view of who is working on what).
  [[nodiscard]] std::vector<ClaimRecord> claims() const;

  /// Remove orphaned sidecars: every `*.tmp*` store temporary (a live store
  /// holds one for well under a millisecond, so anything an admin command
  /// observes is litter from a killed writer) and every claim whose
  /// heartbeat is staler than `lease_ms` at `now_ms`. Fresh claims — a live
  /// fleet's working set — survive, so the sweep is safe during a run.
  StaleSweep clear_stale(std::uint64_t now_ms, std::uint64_t lease_ms);

  /// Machine-readable statistics: on-disk totals plus this instance's
  /// session counters. The shared shape parsed by the service `status`
  /// endpoint, `adc_scenario cache stats --format=json`, and CI:
  ///
  /// ```json
  /// {"cache_dir": "...", "entries": 3, "bytes": 1234,
  ///  "tmp_files": 0, "claim_files": 0,
  ///  "session": {"hits": 0, "misses": 0, "evictions": 0, "stores": 0}}
  /// ```
  [[nodiscard]] adc::common::json::JsonValue stats_document() const;

  /// Delete every entry; returns how many were removed.
  std::uint64_t clear();

  // Session counters (since this ResultCache was constructed).
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.load(); }
  [[nodiscard]] std::uint64_t stores() const { return stores_.load(); }

 private:
  [[nodiscard]] std::string entry_path(const std::string& hash) const;
  [[nodiscard]] std::string claim_path(const std::string& hash) const;

  std::string root_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> stores_{0};
};

}  // namespace adc::scenario
