/// \file lint_rules.hpp
/// Repo-specific lint rules that generic tooling cannot express.
///
/// The generic layers (warnings, clang-tidy, sanitizers) catch language-level
/// problems. These rules encode *simulator* conventions whose violation shows
/// up as quietly-wrong physics — or, since PR 4, as a silently forked
/// content-addressed result cache — rather than a crash. All rules run on the
/// token stream produced by lexer.hpp, so banned spellings inside comments,
/// strings, and raw strings are invisible to them.
///
///   rng-facade          all randomness flows through the seeded Rng façade in
///                       src/common/random.*; std::rand/std::random_device/
///                       time()-seeding anywhere else silently breaks
///                       reproducibility of Monte-Carlo results.
///   profile-math        per-sample code in the model layers (src/analog/,
///                       src/pipeline/) never calls <cmath> transcendentals
///                       directly; it routes through the profile-dispatched
///                       adc::common::math::*_p kernels so the `fast`
///                       fidelity profile actually takes the polynomial path.
///                       The fast-profile draw pipeline (common/counter_rng*,
///                       common/noise_plane) is also in scope, and there even
///                       std::sqrt/std::hypot are findings: fast contract v2
///                       pins division-free draw math (fastmath::sqrt_fast),
///                       and a libm call would both re-open the divider-port
///                       wall and silently change the pinned deviates.
///   no-printf           src/ libraries never printf to stdout/stderr; results
///                       are returned, reports go through testbench/report.
///   si-literal          config-struct defaults in headers use the units.hpp
///                       literals (12.0_pF), not raw scale factors (12e-12).
///   nodiscard-accessor  const measurement accessors carry [[nodiscard]].
///   hot-path-alloc      no raw heap (new/malloc/make_unique) and no
///                       unreserved container growth in the per-sample model
///                       layers src/analog/, src/pipeline/, src/digital/ —
///                       the static form of PR 3's allocation-free kernel
///                       contract. Growth after a reserve/resize/assign on
///                       the same object in an enclosing scope is the batch
///                       fill pattern and stays legal.
///   determinism         no wall-clock/thread-identity reads (std::chrono,
///                       time(), clock(), this_thread, rdtsc) outside
///                       src/runtime/ (telemetry) and src/service/ (socket
///                       poll/condition-variable deadlines), and no
///                       unordered_{map,set} anywhere in src/ — iteration
///                       order would leak into common/json serialization or
///                       the FNV-1a cache hash and silently fork the
///                       content-addressed cache.
///   include-layering    quote includes must follow the declared layer DAG
///                       (default_layer_dag); an upward or cyclic #include is
///                       a finding, and the extracted directory-level graph
///                       is exported for the docs/CI artifact.
///   lint-ok-hygiene     a `// lint-ok: reason` that suppresses nothing, or a
///                       lint-ok without a reason, is itself a finding — the
///                       allowlist cannot rot.
///
/// A finding is suppressed per line with a trailing `// lint-ok: reason`.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adc::lint {

/// One rule violation at a specific line.
struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Rule metadata for machine-readable reports (SARIF rules array).
struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// Every rule the analyzer knows, in stable order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// The declared architecture: each layer under src/ lists the layers it may
/// directly include from (its own layer is always allowed). The enforced
/// relation is the transitive closure.
struct LayerDag {
  std::vector<std::pair<std::string, std::vector<std::string>>> deps;
};

/// The repo's layer DAG, one row per layer in dependency order, as
/// default_layer_dag() declares it:
///
///   layer       directly includes (every layer also includes common)
///   common      -
///   analog      -
///   clocking    -
///   digital     -
///   dsp         -
///   runtime     -
///   bias        analog
///   twostep     analog, clocking, dsp
///   pipeline    analog, bias, clocking, digital, dsp
///   batch       analog, dsp, pipeline
///   power       pipeline
///   survey      power
///   testbench   batch, dsp, pipeline, runtime
///   scenario    batch, pipeline, power, runtime, testbench
///   fleet       runtime, scenario
///   service     runtime, scenario
///
/// tests/, bench/, examples/, and tools/ sit above everything.
[[nodiscard]] const LayerDag& default_layer_dag();

/// Transitive closure of a DAG's allowed-dependency relation, or nullopt when
/// the declared graph contains a cycle (a mis-declared DAG must fail loudly,
/// not silently allow everything on the cycle).
[[nodiscard]] std::optional<std::map<std::string, std::set<std::string>>> dag_closure(
    const LayerDag& dag);

/// The layers of one cycle in the declared graph, or empty when acyclic.
[[nodiscard]] std::vector<std::string> find_dag_cycle(const LayerDag& dag);

/// One directory-level include edge observed while linting.
struct IncludeEdge {
  std::string from;
  std::string to;
  std::size_t count = 0;
  bool allowed = true;
};

/// Aggregated directory-level include graph for the whole tree.
struct IncludeGraph {
  std::vector<IncludeEdge> edges;  ///< sorted by (from, to), counts merged
};

/// Findings plus the include edges of one file.
struct FileReport {
  std::vector<Finding> findings;
  std::vector<IncludeEdge> edges;
};

/// Lint a single file's contents. `path` determines which rules apply (header
/// vs source, under src/ or not, which layer); `contents` is the full text.
[[nodiscard]] FileReport lint_file_report(const std::filesystem::path& path,
                                          const std::string& contents);

/// Convenience wrapper returning findings only.
[[nodiscard]] std::vector<Finding> lint_file(const std::filesystem::path& path,
                                             const std::string& contents);

/// Recursively lint every .cpp/.hpp under `repo_root`'s source directories
/// (src, tests, bench, examples, tools), skipping build trees and the linter's
/// own directory (whose sources and fixtures mention the banned tokens).
/// When `files_scanned` is non-null it receives the number of files read, so
/// callers can distinguish "clean" from "scanned nothing" (e.g. a wrong root).
/// When `graph` is non-null it receives the aggregated include graph.
[[nodiscard]] std::vector<Finding> lint_tree(const std::filesystem::path& repo_root,
                                             std::size_t* files_scanned = nullptr,
                                             IncludeGraph* graph = nullptr);

/// Render a finding as "file:line: [rule] message".
[[nodiscard]] std::string to_string(const Finding& finding);

}  // namespace adc::lint
