#include "lint_rules.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <regex>
#include <sstream>

#include "lexer.hpp"

namespace adc::lint {

namespace {

namespace fs = std::filesystem;

bool path_contains(const fs::path& path, std::string_view needle) {
  return path.generic_string().find(needle) != std::string::npos;
}

template <std::size_t N>
bool any_of_ids(const std::array<std::string_view, N>& set, std::string_view text) {
  return std::find(set.begin(), set.end(), text) != set.end();
}

// ---------------------------------------------------------------------------
// Layer DAG

const std::vector<std::string>& known_layers() {
  static const std::vector<std::string> layers{
      "common",   "analog", "clocking", "dsp",     "digital", "runtime",   "bias",
      "pipeline", "batch",  "power",    "twostep", "survey",  "testbench", "scenario",
      "fleet",    "service"};
  return layers;
}

/// Directory component directly under src/, or empty when not a src file.
std::string layer_of(const fs::path& path) {
  const std::string generic = path.generic_string();
  const std::size_t at = generic.rfind("src/");
  if (at == std::string::npos) return {};
  const std::size_t begin = at + 4;
  const std::size_t slash = generic.find('/', begin);
  if (slash == std::string::npos) return {};
  const std::string dir = generic.substr(begin, slash - begin);
  const auto& layers = known_layers();
  return std::find(layers.begin(), layers.end(), dir) != layers.end() ? dir : std::string();
}

/// Top-level root a non-src file belongs to ("tests", "bench", ...), for the
/// include-graph export. Empty when unknown.
std::string root_of(const fs::path& path) {
  const std::string generic = path.generic_string();
  for (const std::string_view root : {"tests/", "bench/", "examples/", "tools/"}) {
    if (generic.find(root) != std::string::npos) {
      return std::string(root.substr(0, root.size() - 1));
    }
  }
  return {};
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog{
      {"rng-facade", "raw RNG or wall-clock seeding outside the seeded Rng facade"},
      {"profile-math", "direct <cmath> transcendental (or sqrt in the draw pipeline) "
                       "bypassing fidelity-profile dispatch"},
      {"no-printf", "printf-family call inside a src/ library"},
      {"si-literal", "raw SI scale factor where a units.hpp literal exists"},
      {"nodiscard-accessor", "const measurement accessor without [[nodiscard]]"},
      {"hot-path-alloc", "heap allocation or unreserved growth in a per-sample model layer"},
      {"determinism", "wall-clock/thread-identity read or unordered container in a "
                      "result-producing layer"},
      {"include-layering", "#include that violates the declared layer DAG"},
      {"lint-ok-hygiene", "stale or reasonless lint-ok suppression"},
  };
  return catalog;
}

const LayerDag& default_layer_dag() {
  static const LayerDag dag{{
      {"common", {}},
      {"analog", {"common"}},
      {"clocking", {"common"}},
      {"dsp", {"common"}},
      {"digital", {"common"}},
      {"runtime", {"common"}},
      {"bias", {"common", "analog"}},
      {"pipeline", {"common", "analog", "clocking", "bias", "digital", "dsp"}},
      {"batch", {"common", "analog", "dsp", "pipeline"}},
      {"power", {"common", "pipeline"}},
      {"twostep", {"common", "analog", "clocking", "dsp"}},
      {"survey", {"common", "power"}},
      {"testbench", {"common", "batch", "dsp", "pipeline", "runtime"}},
      {"scenario", {"common", "batch", "pipeline", "power", "runtime", "testbench"}},
      {"fleet", {"common", "runtime", "scenario"}},
      {"service", {"common", "runtime", "scenario"}},
  }};
  return dag;
}

std::vector<std::string> find_dag_cycle(const LayerDag& dag) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [layer, deps] : dag.deps) adj[layer] = deps;
  // Colored DFS: 0 = unvisited, 1 = on stack, 2 = done.
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  std::vector<std::string> cycle;
  auto dfs = [&](auto&& self, const std::string& node) -> bool {
    color[node] = 1;
    stack.push_back(node);
    for (const auto& dep : adj[node]) {
      if (color[dep] == 1) {
        const auto at = std::find(stack.begin(), stack.end(), dep);
        cycle.assign(at, stack.end());
        cycle.push_back(dep);
        return true;
      }
      if (color[dep] == 0 && self(self, dep)) return true;
    }
    stack.pop_back();
    color[node] = 2;
    return false;
  };
  for (const auto& [layer, deps] : dag.deps) {
    if (color[layer] == 0 && dfs(dfs, layer)) return cycle;
  }
  return {};
}

std::optional<std::map<std::string, std::set<std::string>>> dag_closure(const LayerDag& dag) {
  if (!find_dag_cycle(dag).empty()) return std::nullopt;
  std::map<std::string, std::set<std::string>> closure;
  auto resolve = [&](auto&& self, const std::string& node) -> const std::set<std::string>& {
    auto found = closure.find(node);
    if (found != closure.end()) return found->second;
    std::set<std::string> deps;
    for (const auto& [layer, direct] : dag.deps) {
      if (layer != node) continue;
      for (const auto& dep : direct) {
        deps.insert(dep);
        const auto& transitive = self(self, dep);
        deps.insert(transitive.begin(), transitive.end());
      }
    }
    return closure.emplace(node, std::move(deps)).first->second;
  };
  for (const auto& [layer, direct] : dag.deps) resolve(resolve, layer);
  return closure;
}

namespace {

// ---------------------------------------------------------------------------
// Token-stream rules

constexpr std::array<std::string_view, 8> kPrintfFamily{
    "printf", "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf", "puts", "putchar"};

// <cmath> transcendentals the fast profile replaces with polynomial kernels;
// sqrt/abs/fma and friends are single instructions and stay allowed in the
// model layers (the draw pipeline additionally bans sqrt — see
// scan_profile_math).
constexpr std::array<std::string_view, 20> kTranscendentals{
    "exp",  "exp2", "expm1", "log",  "log2", "log10", "log1p", "pow",  "sin",  "cos",
    "tan",  "sincos", "sinh", "cosh", "tanh", "asin",  "acos",  "atan", "atan2", "cbrt"};

constexpr std::array<std::string_view, 6> kMallocFamily{"malloc", "calloc",       "realloc",
                                                        "free",   "aligned_alloc", "strdup"};

constexpr std::array<std::string_view, 7> kGrowthCalls{
    "push_back", "emplace_back", "push_front", "emplace_front", "insert", "emplace", "append"};

constexpr std::array<std::string_view, 3> kCapacityCalls{"reserve", "resize", "assign"};

constexpr std::array<std::string_view, 9> kWallClockCalls{
    "time",     "clock",  "gettimeofday", "clock_gettime", "timespec_get",
    "localtime", "gmtime", "mktime",      "ftime"};

constexpr std::array<std::string_view, 4> kUnorderedContainers{
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

// A raw SI scale factor (1e-12 and friends) used as an initializer. Exponents
// ±{3,6,9,12,15} are exactly the prefixes units.hpp provides literals for.
const std::regex& si_literal_number_re() {
  static const std::regex re(R"(^[0-9][0-9.]*[eE][+-]?(3|6|9|12|15)$)");
  return re;
}

// A zero-argument const member declaration, e.g. "double value() const;".
const std::regex& const_accessor_re() {
  static const std::regex re(
      R"(^\s*(?:virtual\s+)?(?!void\b)(?:const\s+)?[A-Za-z_][A-Za-z0-9_:<>,*& ]*[&* ]\s*[a-z_][A-Za-z0-9_]*\(\)\s*const\b)");
  return re;
}

struct FileContext {
  std::string file;       // generic path string, as reported
  bool in_src = false;
  bool is_header = false;
  bool is_rng_facade = false;     // src/common/random.* defines the facade
  bool in_math_layer = false;     // src/analog | src/pipeline | src/batch (profile-math)
  bool in_draw_pipeline = false;  // common/counter_rng* | common/noise_plane:
                                  // fast contract v2 is division/sqrt-free, so
                                  // even std::sqrt is a finding there
  bool in_alloc_layer = false;    // src/analog | src/pipeline | src/batch | src/digital
  bool in_clock_exempt = false;   // src/runtime (telemetry), src/service
                                  // (socket/poll deadlines) and src/fleet
                                  // (claim heartbeats/polling) may read clocks
  std::string layer;              // src/<layer>, empty outside src or unknown
};

FileContext make_context(const fs::path& path) {
  FileContext ctx;
  ctx.file = path.generic_string();
  ctx.in_src = path_contains(path, "src/");
  ctx.is_header = path.extension() == ".hpp";
  ctx.is_rng_facade = path_contains(path, "common/random.");
  const bool in_analog = path_contains(path, "src/analog/");
  const bool in_pipeline = path_contains(path, "src/pipeline/");
  const bool in_batch = path_contains(path, "src/batch/");
  ctx.in_math_layer = in_analog || in_pipeline || in_batch;
  ctx.in_draw_pipeline = path_contains(path, "common/counter_rng") ||
                         path_contains(path, "common/noise_plane");
  ctx.in_alloc_layer =
      in_analog || in_pipeline || in_batch || path_contains(path, "src/digital/");
  ctx.in_clock_exempt = path_contains(path, "src/runtime/") ||
                        path_contains(path, "src/service/") ||
                        path_contains(path, "src/fleet/");
  ctx.layer = layer_of(path);
  return ctx;
}

class TokenScanner {
 public:
  TokenScanner(const FileContext& ctx, const LexedFile& lexed, std::vector<Finding>& findings)
      : ctx_(ctx), tokens_(lexed.tokens), code_lines_(lexed.code_lines), findings_(findings) {}

  void scan() {
    reserved_scopes_.emplace_back();  // file-level scope
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      track_scopes(i);
      scan_rng_facade(i);
      scan_profile_math(i);
      scan_printf(i);
      scan_si_literal(i);
      scan_alloc(i);
      scan_determinism(i);
    }
  }

 private:
  bool id_at(std::size_t i, std::string_view text) const {
    return i < tokens_.size() && tokens_[i].kind == TokenKind::kIdentifier &&
           tokens_[i].text == text;
  }
  bool punct_at(std::size_t i, std::string_view text) const {
    return i < tokens_.size() && tokens_[i].kind == TokenKind::kPunct && tokens_[i].text == text;
  }
  bool ident(std::size_t i) const {
    return i < tokens_.size() && tokens_[i].kind == TokenKind::kIdentifier;
  }
  /// Token is `std` `::` `<name>` starting at i.
  bool std_qualified(std::size_t i, std::string_view name) const {
    return id_at(i, "std") && punct_at(i + 1, "::") && id_at(i + 2, name);
  }
  bool member_access_before(std::size_t i) const {
    return i > 0 && (punct_at(i - 1, ".") || punct_at(i - 1, "->"));
  }
  bool scope_before(std::size_t i) const { return i > 0 && punct_at(i - 1, "::"); }
  /// Heuristic: the identifier at i reads as a *call*, not a declaration —
  /// the preceding token is not a type name / declarator fragment.
  bool call_context(std::size_t i) const {
    if (i == 0) return true;
    const Token& prev = tokens_[i - 1];
    if (prev.kind == TokenKind::kIdentifier) {
      return prev.text == "return" || prev.text == "case" || prev.text == "co_return";
    }
    return prev.kind == TokenKind::kPunct && prev.text != "." && prev.text != "->" &&
           prev.text != "::" && prev.text != "&" && prev.text != "*" && prev.text != "~";
  }
  void add(std::size_t line, std::string rule, std::string message) {
    findings_.push_back({ctx_.file, line, std::move(rule), std::move(message)});
  }

  void track_scopes(std::size_t i) {
    if (punct_at(i, "{")) {
      reserved_scopes_.emplace_back();
    } else if (punct_at(i, "}")) {
      if (reserved_scopes_.size() > 1) reserved_scopes_.pop_back();
    } else if ((punct_at(i, ".") || punct_at(i, "->")) && ident(i + 1) &&
               any_of_ids(kCapacityCalls, tokens_[i + 1].text) && punct_at(i + 2, "(")) {
      // `obj.reserve(` / `obj.resize(` / `obj.assign(`: the object is sized
      // for the batch; later growth on it is the legal fill pattern.
      if (i > 0 && ident(i - 1)) reserved_scopes_.back().insert(tokens_[i - 1].text);
    }
  }

  bool is_reserved(const std::string& object) const {
    for (auto it = reserved_scopes_.rbegin(); it != reserved_scopes_.rend(); ++it) {
      if (it->count(object) > 0) return true;
    }
    return false;
  }

  void scan_rng_facade(std::size_t i) {
    if (ctx_.is_rng_facade) return;
    const auto& t = tokens_[i];
    if (t.kind != TokenKind::kIdentifier) return;
    const char* const msg =
        "raw RNG/time seeding; use the seeded adc::common::Rng facade "
        "(src/common/random.hpp) so results stay reproducible";
    if (t.text == "rand" && punct_at(i + 1, "(") && !member_access_before(i)) {
      add(t.line, "rng-facade", msg);
    } else if (t.text == "srand" && punct_at(i + 1, "(") && !member_access_before(i)) {
      add(t.line, "rng-facade", msg);
    } else if (t.text == "random_device") {
      add(t.line, "rng-facade", msg);
    } else if (t.text == "time" && punct_at(i + 1, "(")) {
      const bool std_call = i >= 2 && id_at(i - 2, "std") && punct_at(i - 1, "::");
      const bool null_seed = id_at(i + 2, "NULL") || id_at(i + 2, "nullptr") ||
                             (i + 2 < tokens_.size() && tokens_[i + 2].kind == TokenKind::kNumber &&
                              tokens_[i + 2].text == "0");
      if ((std_call || (!member_access_before(i) && !scope_before(i))) && null_seed) {
        add(t.line, "rng-facade", msg);
      }
    }
  }

  void scan_profile_math(std::size_t i) {
    if (!ctx_.in_math_layer && !ctx_.in_draw_pipeline) return;
    if (!id_at(i, "std") || !punct_at(i + 1, "::")) return;
    if (!ident(i + 2) || !punct_at(i + 3, "(")) return;
    const std::string& callee = tokens_[i + 2].text;
    if (any_of_ids(kTranscendentals, callee)) {
      add(tokens_[i + 2].line, "profile-math",
          ctx_.in_draw_pipeline
              ? "direct <cmath> transcendental in the fast-profile draw pipeline; "
                "fast contract v2 pins the division-free fastmath kernels "
                "(common/fastmath.hpp) — a libm call here silently changes the "
                "pinned deviates and forks the golden-code fingerprint"
              : "direct <cmath> transcendental in a per-sample model layer bypasses "
                "the fidelity-profile dispatch; call adc::common::math::*_p "
                "(common/fastmath.hpp), or mark construction-time/cached sites "
                "lint-ok with the reason");
    } else if (ctx_.in_draw_pipeline && (callee == "sqrt" || callee == "hypot")) {
      // sqrt is allowed in the model layers (a single instruction), but the
      // draw pipeline's whole point since contract v2 is keeping the divider/
      // sqrt ports idle — and vsqrtpd there would re-open the throughput wall.
      add(tokens_[i + 2].line, "profile-math",
          "std::" + callee +
              " in the fast-profile draw pipeline re-opens the divider-port "
              "wall fast contract v2 removed; use fastmath::sqrt_fast "
              "(common/fastmath.hpp), or mark a non-draw site lint-ok with "
              "the reason");
    }
  }

  void scan_printf(std::size_t i) {
    if (!ctx_.in_src) return;
    if (!ident(i) || !any_of_ids(kPrintfFamily, tokens_[i].text)) return;
    if (!punct_at(i + 1, "(") || member_access_before(i)) return;
    add(tokens_[i].line, "no-printf",
        "printf-family call in a src/ library; return values or use the "
        "testbench report layer instead");
  }

  void scan_si_literal(std::size_t i) {
    if (!ctx_.in_src || !ctx_.is_header || path_like_units()) return;
    const auto& t = tokens_[i];
    if (t.kind != TokenKind::kNumber || !std::regex_match(t.text, si_literal_number_re())) return;
    if (i == 0 || tokens_[i - 1].kind != TokenKind::kPunct) return;
    const std::string& prev = tokens_[i - 1].text;
    if (prev != "=" && prev != "{" && prev != "," && prev != "(") return;
    if (t.line - 1 < code_lines_.size() &&
        code_lines_[t.line - 1].find("constexpr") != std::string::npos) {
      return;  // constexpr physical-constant definitions are exempt
    }
    add(t.line, "si-literal",
        "raw SI scale factor in a header initializer; use a units.hpp "
        "literal (e.g. 12.0_pF, 110.0_MHz, 150.0_uA)");
  }

  bool path_like_units() const { return ctx_.file.find("common/units.hpp") != std::string::npos; }

  void scan_alloc(std::size_t i) {
    if (!ctx_.in_alloc_layer) return;
    const auto& t = tokens_[i];
    if (t.kind != TokenKind::kIdentifier) return;
    const char* const heap_msg =
        "raw heap allocation in a per-sample model layer (allocation-free "
        "kernel contract, PR 3); hoist to construction time or mark the "
        "construction-time site lint-ok with the reason";
    if (t.text == "new") {
      add(t.line, "hot-path-alloc", heap_msg);
      return;
    }
    if (any_of_ids(kMallocFamily, t.text) && punct_at(i + 1, "(") && !member_access_before(i)) {
      add(t.line, "hot-path-alloc", heap_msg);
      return;
    }
    if ((t.text == "make_unique" || t.text == "make_shared") &&
        (punct_at(i + 1, "<") || punct_at(i + 1, "("))) {
      add(t.line, "hot-path-alloc", heap_msg);
      return;
    }
    if (any_of_ids(kGrowthCalls, t.text) && member_access_before(i) && punct_at(i + 1, "(")) {
      const std::string object = i >= 2 && ident(i - 2) ? tokens_[i - 2].text : std::string();
      if (object.empty() || !is_reserved(object)) {
        add(t.line, "hot-path-alloc",
            "container growth without a prior reserve/resize on '" +
                (object.empty() ? std::string("<expression>") : object) +
                "' in this scope (allocation-free kernel contract, PR 3); "
                "reserve at the batch boundary, or lint-ok a construction-time "
                "or fixed-capacity site with the reason");
      }
    }
  }

  void scan_determinism(std::size_t i) {
    if (!ctx_.in_src) return;
    const auto& t = tokens_[i];
    if (t.kind != TokenKind::kIdentifier) return;
    // Unordered containers are banned tree-wide under src/: their iteration
    // order is implementation-defined, and anything that reaches common/json
    // serialization or the FNV-1a cache hash would fork the content-addressed
    // cache between builds.
    if (any_of_ids(kUnorderedContainers, t.text)) {
      add(t.line, "determinism",
          "unordered container in a result-producing layer: iteration order "
          "would leak into common/json serialization or the cache hash and "
          "fork the content-addressed cache; use std::map / a sorted vector, "
          "or lint-ok with a proof the order never escapes");
      return;
    }
    // The telemetry layer owns the clocks; the service layer legitimately
    // waits on sockets, polls and condition-variable deadlines.
    if (ctx_.in_clock_exempt) return;
    const char* const clock_msg =
        "wall-clock/thread-identity read in a result-producing layer breaks "
        "run-to-run determinism; timing belongs to src/runtime/ telemetry "
        "(RunManifest), src/service/ I/O deadlines or src/fleet/ claim "
        "leases, results must depend only on seeds and specs";
    if (t.text == "chrono" || t.text == "this_thread" || t.text == "rdtsc" ||
        t.text == "__rdtsc" || t.text == "__builtin_ia32_rdtsc") {
      add(t.line, "determinism", clock_msg);
      return;
    }
    if (any_of_ids(kWallClockCalls, t.text) && punct_at(i + 1, "(")) {
      const bool std_call = i >= 2 && id_at(i - 2, "std") && punct_at(i - 1, "::");
      if (std_call || (!member_access_before(i) && !scope_before(i) && call_context(i))) {
        add(t.line, "determinism", clock_msg);
      }
    }
  }

  const FileContext& ctx_;
  const std::vector<Token>& tokens_;
  const std::vector<std::string>& code_lines_;
  std::vector<Finding>& findings_;
  std::vector<std::set<std::string>> reserved_scopes_;
};

// nodiscard-accessor stays line-shaped: it matches a declaration form, and the
// lexer's comment/string-blanked code lines give it clean input.
void scan_nodiscard(const FileContext& ctx, const LexedFile& lexed,
                    std::vector<Finding>& findings) {
  if (!ctx.in_src || !ctx.is_header) return;
  std::string prev_line;
  for (std::size_t n = 0; n < lexed.code_lines.size(); ++n) {
    const std::string& line = lexed.code_lines[n];
    if (line.find("operator") == std::string::npos &&
        std::regex_search(line, const_accessor_re()) &&
        line.find("[[nodiscard]]") == std::string::npos &&
        prev_line.find("[[nodiscard]]") == std::string::npos) {
      findings.push_back({ctx.file, n + 1, "nodiscard-accessor",
                          "const measurement accessor without [[nodiscard]]; a discarded "
                          "measurement is always a bug"});
    }
    prev_line = line;
  }
}

void scan_layering(const FileContext& ctx, const LexedFile& lexed,
                   std::vector<Finding>& findings, std::vector<IncludeEdge>& edges) {
  const auto closure = dag_closure(default_layer_dag());
  const std::string from = !ctx.layer.empty() ? ctx.layer : root_of(ctx.file);
  const bool enforce = !ctx.layer.empty() && closure.has_value();
  for (const auto& inc : lexed.includes) {
    if (inc.angled) continue;  // system headers are not part of the DAG
    const std::size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string to = inc.path.substr(0, slash);
    const auto& layers = known_layers();
    if (std::find(layers.begin(), layers.end(), to) == layers.end()) continue;
    bool allowed = true;
    if (enforce && to != ctx.layer) {
      const auto deps = closure->find(ctx.layer);
      allowed = deps != closure->end() && deps->second.count(to) > 0;
      if (!allowed) {
        findings.push_back(
            {ctx.file, inc.line, "include-layering",
             "#include \"" + inc.path + "\" violates the layer DAG: '" + ctx.layer +
                 "' may not depend on '" + to +
                 "' (see default_layer_dag in tools/lint_physics); invert the "
                 "dependency, move the file, or lint-ok with the reason"});
      }
    }
    if (!from.empty()) {
      auto found = std::find_if(edges.begin(), edges.end(), [&](const IncludeEdge& e) {
        return e.from == from && e.to == to;
      });
      if (found == edges.end()) {
        edges.push_back({from, to, 1, allowed});
      } else {
        ++found->count;
        found->allowed = found->allowed && allowed;
      }
    }
  }
}

}  // namespace

FileReport lint_file_report(const fs::path& path, const std::string& contents) {
  FileReport report;
  const FileContext ctx = make_context(path);
  const LexedFile lexed = lex(contents);

  // Candidates: every rule fires regardless of suppressions, so that the
  // hygiene pass can tell a live suppression from a stale one.
  std::vector<Finding> candidates;
  TokenScanner(ctx, lexed, candidates).scan();
  scan_nodiscard(ctx, lexed, candidates);
  scan_layering(ctx, lexed, candidates, report.edges);

  std::set<std::size_t> suppressed_lines;
  for (const auto& s : lexed.suppressions) suppressed_lines.insert(s.line);

  for (auto& finding : candidates) {
    if (suppressed_lines.count(finding.line) == 0) {
      report.findings.push_back(std::move(finding));
    }
  }
  for (const auto& s : lexed.suppressions) {
    if (!s.has_reason) {
      report.findings.push_back({ctx.file, s.line, "lint-ok-hygiene",
                                 "lint-ok without a reason; the reason is mandatory and "
                                 "greppable (write `// lint-ok: <why this is sound>`)"});
      continue;
    }
    const bool live = std::any_of(candidates.begin(), candidates.end(),
                                  [&](const Finding& f) { return f.line == s.line; });
    if (!live) {
      report.findings.push_back({ctx.file, s.line, "lint-ok-hygiene",
                                 "stale lint-ok: no rule fires on this line any more; "
                                 "delete the suppression so the allowlist cannot rot"});
    }
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return report;
}

std::vector<Finding> lint_file(const fs::path& path, const std::string& contents) {
  return lint_file_report(path, contents).findings;
}

std::vector<Finding> lint_tree(const fs::path& repo_root, std::size_t* files_scanned,
                               IncludeGraph* graph) {
  std::vector<Finding> findings;
  std::map<std::pair<std::string, std::string>, IncludeEdge> merged;
  std::size_t scanned = 0;
  static constexpr std::array<std::string_view, 5> kRoots{"src", "tests", "bench", "examples",
                                                          "tools"};
  for (const auto root : kRoots) {
    const fs::path dir = repo_root / root;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& path = entry.path();
      const auto ext = path.extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      // The linter's own sources and fixtures spell out the banned tokens.
      if (path_contains(path, "lint_physics")) continue;
      if (path_contains(path, "/build")) continue;
      std::ifstream in(path);
      std::ostringstream buf;
      buf << in.rdbuf();
      ++scanned;
      auto report = lint_file_report(path, buf.str());
      findings.insert(findings.end(), report.findings.begin(), report.findings.end());
      for (const auto& edge : report.edges) {
        auto& slot = merged[{edge.from, edge.to}];
        if (slot.count == 0) {
          slot = edge;
        } else {
          slot.count += edge.count;
          slot.allowed = slot.allowed && edge.allowed;
        }
      }
    }
  }
  if (files_scanned != nullptr) *files_scanned = scanned;
  if (graph != nullptr) {
    graph->edges.clear();
    for (auto& [key, edge] : merged) graph->edges.push_back(std::move(edge));
  }
  return findings;
}

std::string to_string(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule << "] " << finding.message;
  return out.str();
}

}  // namespace adc::lint
