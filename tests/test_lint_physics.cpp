/// Self-test for the lint_physics domain linter: every rule must fire on its
/// known-bad fixture and stay silent on the known-good one. Fixture files live
/// in tools/lint_physics/fixtures/src/ (ADC_LINT_FIXTURE_DIR) and are never
/// compiled; they are test data.
#include "lexer.hpp"
#include "lint_rules.hpp"
#include "report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

using adc::lint::Finding;
using adc::lint::lint_file;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ADC_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(), [&](const Finding& f) { return f.rule == rule; }));
}

bool has_finding_at(const std::vector<Finding>& findings, const std::string& rule,
                    std::size_t line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, ExtractsIncludesWithAngledFlagAndLine) {
  const std::string text =
      "#include <vector>\n"
      "// #include <chrono> in a comment is not an include\n"
      "#include \"analog/opamp.hpp\"\n";
  const auto lexed = adc::lint::lex(text);
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "vector");
  EXPECT_TRUE(lexed.includes[0].angled);
  EXPECT_EQ(lexed.includes[0].line, 1u);
  EXPECT_EQ(lexed.includes[1].path, "analog/opamp.hpp");
  EXPECT_FALSE(lexed.includes[1].angled);
  EXPECT_EQ(lexed.includes[1].line, 3u);
}

TEST(LintLexer, TokensCarryLineNumbersAcrossCommentsAndStrings) {
  const std::string text =
      "int a; /* block\n"
      "comment */ int b;\n"
      "const char* s = \"int c;\";\n";
  const auto lexed = adc::lint::lex(text);
  // "int c;" inside the string must not produce identifier tokens.
  const auto idents = std::count_if(
      lexed.tokens.begin(), lexed.tokens.end(),
      [](const adc::lint::Token& t) { return t.kind == adc::lint::TokenKind::kIdentifier; });
  EXPECT_EQ(idents, 7);  // int a int b const char s
  EXPECT_EQ(lexed.tokens.front().line, 1u);
}

TEST(LintLexer, SuppressionNeedsMarkerPositionNotJustSubstring) {
  const std::string text =
      "// the lint-ok-hygiene rule polices lint-ok markers\n"
      "int a = 1;  // lint-ok: real marker\n"
      "double slew = 2.0;  ///< [V/s] doc text  // lint-ok: trailing doc pair\n";
  const auto lexed = adc::lint::lex(text);
  ASSERT_EQ(lexed.suppressions.size(), 2u);
  EXPECT_EQ(lexed.suppressions[0].line, 2u);
  EXPECT_TRUE(lexed.suppressions[0].has_reason);
  EXPECT_EQ(lexed.suppressions[0].reason, "real marker");
  EXPECT_EQ(lexed.suppressions[1].line, 3u);
  EXPECT_EQ(lexed.suppressions[1].reason, "trailing doc pair");
}

// ---------------------------------------------------------------- legacy rules

TEST(LintPhysics, GoodFixtureIsClean) {
  const auto findings = lint_file("src/fixture/good_model.hpp", read_fixture("good_model.hpp"));
  for (const auto& f : findings) ADD_FAILURE() << adc::lint::to_string(f);
  EXPECT_TRUE(findings.empty());
}

TEST(LintPhysics, RngFacadeRuleFiresOnRawRandomness) {
  const auto findings = lint_file("src/fixture/bad_rng.cpp", read_fixture("bad_rng.cpp"));
  // srand + time(nullptr) on one line, std::rand, and std::random_device.
  EXPECT_GE(count_rule(findings, "rng-facade"), 3u);
}

TEST(LintPhysics, RngFacadeRuleExemptsTheFacadeItself) {
  const std::string facade = "std::uint64_t seed() { std::random_device rd; return rd(); }\n";
  EXPECT_TRUE(lint_file("src/common/random.cpp", facade).empty());
  EXPECT_EQ(count_rule(lint_file("src/analog/noise.cpp", facade), "rng-facade"), 1u);
}

TEST(LintPhysics, ProfileMathRuleFiresInModelLayers) {
  const auto contents = read_fixture("analog/bad_cmath.cpp");
  // exp, pow, and the softplus line's log1p + exp: four call sites. The
  // lint-ok'd cached site and the sqrt/abs line stay silent.
  EXPECT_EQ(count_rule(lint_file("src/analog/bad_cmath.cpp", contents), "profile-math"), 4u);
  EXPECT_EQ(count_rule(lint_file("src/pipeline/bad_cmath.cpp", contents), "profile-math"), 4u);
  // Outside the per-sample model layers the same code is fine: dsp and
  // testbench run per-record, not per-sample, and libm is their contract.
  EXPECT_EQ(count_rule(lint_file("src/dsp/bad_cmath.cpp", contents), "profile-math"), 0u);
  EXPECT_EQ(count_rule(lint_file("tests/bad_cmath.cpp", contents), "profile-math"), 0u);
}

TEST(LintPhysics, ProfileMathRuleCoversDrawPipeline) {
  const auto contents = read_fixture("common/counter_rng_bad.hpp");
  // sqrt + log on the radius line, cos, and hypot: four findings. The
  // abs/fma line and the lint-ok'd diagnostic sqrt stay silent.
  const auto findings = lint_file("src/common/counter_rng_bad.hpp", contents);
  EXPECT_EQ(count_rule(findings, "profile-math"), 4u);
  // The same scope applies to every draw-pipeline file, headers and TUs.
  EXPECT_EQ(count_rule(lint_file("src/common/noise_plane.hpp", contents), "profile-math"), 4u);
  EXPECT_EQ(count_rule(lint_file("src/common/counter_rng.cpp", contents), "profile-math"), 4u);
  // Elsewhere under src/common the rule keeps its old scope: not a model
  // layer, so the same code is clean.
  EXPECT_EQ(count_rule(lint_file("src/common/json.cpp", contents), "profile-math"), 0u);
}

TEST(LintPhysics, ProfileMathSqrtIsDrawPipelineOnly) {
  // std::sqrt stays a single-instruction non-finding in the model layers;
  // only the draw pipeline (division/sqrt-free by fast contract v2) bans it.
  const std::string text = "double r = std::sqrt(x);\n";
  EXPECT_EQ(count_rule(lint_file("src/analog/opamp.cpp", text), "profile-math"), 0u);
  EXPECT_EQ(count_rule(lint_file("src/common/counter_rng_tile.hpp", text), "profile-math"), 1u);
}

TEST(LintPhysics, PrintfRuleFiresInSrcOnly) {
  const auto contents = read_fixture("bad_printf.cpp");
  EXPECT_EQ(count_rule(lint_file("src/fixture/bad_printf.cpp", contents), "no-printf"), 1u);
  // The same code in a tool is allowed: CLIs print by design.
  EXPECT_EQ(count_rule(lint_file("tools/fixture/cli.cpp", contents), "no-printf"), 0u);
}

TEST(LintPhysics, SiLiteralRuleFiresOnRawScaleFactors) {
  const auto findings = lint_file("src/fixture/bad_magic.hpp", read_fixture("bad_magic.hpp"));
  EXPECT_EQ(count_rule(findings, "si-literal"), 3u);
}

TEST(LintPhysics, SiLiteralRuleIgnoresConstexprPhysicalConstants) {
  const std::string constants = "inline constexpr double kp_nmos = 340e-6;\n";
  EXPECT_TRUE(lint_file("src/common/constants.hpp", constants).empty());
}

TEST(LintPhysics, NodiscardRuleFiresOnBareConstAccessors) {
  const auto findings =
      lint_file("src/fixture/bad_nodiscard.hpp", read_fixture("bad_nodiscard.hpp"));
  EXPECT_EQ(count_rule(findings, "nodiscard-accessor"), 2u);
}

TEST(LintPhysics, NodiscardOnPrecedingLineIsAccepted) {
  const std::string decl =
      "class M {\n public:\n  [[nodiscard]]\n  double enob() const;\n};\n";
  EXPECT_EQ(count_rule(lint_file("src/fixture/meter.hpp", decl), "nodiscard-accessor"), 0u);
}

TEST(LintPhysics, CommentsAndStringsAreInvisibleToRules) {
  const std::string text =
      "// std::rand() in prose\n"
      "/* printf(\"x\") in a block comment */\n"
      "const char* msg = \"std::rand() inside a string\";\n";
  EXPECT_TRUE(lint_file("src/fixture/prose.cpp", text).empty());
}

TEST(LintPhysics, RawStringFixtureIsClean) {
  // Banned tokens live only inside comments, strings, and a raw string with an
  // embedded quote and a lookalike terminator — the lexer must hide them all.
  const auto findings =
      lint_file("src/analog/good_raw_string.cpp", read_fixture("analog/good_raw_string.cpp"));
  for (const auto& f : findings) ADD_FAILURE() << adc::lint::to_string(f);
  EXPECT_TRUE(findings.empty());
}

TEST(LintPhysics, LintOkSuppressionDisablesTheLine) {
  const std::string text = "unsigned s = std::rand();  // lint-ok: documented exception\n";
  EXPECT_TRUE(lint_file("src/fixture/suppressed.cpp", text).empty());
}

// ---------------------------------------------------------------- hot-path-alloc

TEST(LintPhysics, HotPathAllocFixturePinsFourFindings) {
  const auto contents = read_fixture("analog/bad_alloc.cpp");
  const auto findings = lint_file("src/analog/bad_alloc.cpp", contents);
  EXPECT_EQ(count_rule(findings, "hot-path-alloc"), 4u);
  EXPECT_TRUE(has_finding_at(findings, "hot-path-alloc", 12));  // unreserved push_back
  EXPECT_TRUE(has_finding_at(findings, "hot-path-alloc", 16));  // new double[n]
  EXPECT_TRUE(has_finding_at(findings, "hot-path-alloc", 20));  // std::malloc
  EXPECT_TRUE(has_finding_at(findings, "hot-path-alloc", 25));  // macro-hidden push_back
  // The same code outside the alloc layers is not the rule's business.
  EXPECT_EQ(count_rule(lint_file("src/dsp/bad_alloc.cpp", contents), "hot-path-alloc"), 0u);
}

TEST(LintPhysics, HotPathAllocAcceptsReserveThenGrow) {
  const std::string text =
      "void fill(std::vector<double>& out, std::size_t n) {\n"
      "  out.reserve(n);\n"
      "  for (std::size_t i = 0; i < n; ++i) out.push_back(0.0);\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/analog/fill.cpp", text), "hot-path-alloc"), 0u);
}

TEST(LintPhysics, HotPathAllocReserveDoesNotLeakAcrossScopes) {
  // The reserve in fill() must not license the push in grow().
  const std::string text =
      "void fill(std::vector<double>& v) { v.reserve(8); v.push_back(0.0); }\n"
      "void grow(std::vector<double>& v) { v.push_back(1.0); }\n";
  const auto findings = lint_file("src/digital/grow.cpp", text);
  EXPECT_EQ(count_rule(findings, "hot-path-alloc"), 1u);
  EXPECT_TRUE(has_finding_at(findings, "hot-path-alloc", 2));
}

TEST(LintPhysics, HotPathAllocMacroBodyIsVisible) {
  const std::string text = "#define APPEND(v, x) (v).push_back(x)\n";
  EXPECT_EQ(count_rule(lint_file("src/pipeline/macros.hpp", text), "hot-path-alloc"), 1u);
}

TEST(LintPhysics, HotPathAllocHonoursLintOkEscape) {
  const std::string text =
      "void wire() {\n"
      "  auto p = std::make_unique<int>(7);  // lint-ok: construction-time wiring\n"
      "}\n";
  EXPECT_TRUE(lint_file("src/pipeline/wire.cpp", text).empty());
}

// ---------------------------------------------------------------- determinism

TEST(LintPhysics, DeterminismFixturePinsFiveFindings) {
  const auto contents = read_fixture("bad_determinism.cpp");
  const auto findings = lint_file("src/fixture/bad_determinism.cpp", contents);
  EXPECT_EQ(count_rule(findings, "determinism"), 5u);
}

TEST(LintPhysics, DeterminismRuntimeLayerOwnsClocks) {
  // src/runtime/ is the telemetry layer: wall-clock reads are its contract.
  const std::string clocks = "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(lint_file("src/runtime/manifest.cpp", clocks), "determinism"), 0u);
  EXPECT_EQ(count_rule(lint_file("src/dsp/fft.cpp", clocks), "determinism"), 1u);
}

TEST(LintPhysics, DeterminismServiceLayerOwnsSocketDeadlines) {
  // src/service/ drives poll()/accept timeouts and status telemetry, so
  // wall-clock reads are legal there exactly as in src/runtime/.
  const std::string clocks = "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(lint_file("src/service/server.cpp", clocks), "determinism"), 0u);
  EXPECT_EQ(count_rule(lint_file("src/scenario/runner.cpp", clocks), "determinism"), 1u);
}

TEST(LintPhysics, DeterminismUnorderedContainersFlaggedEvenInRuntime) {
  // Iteration order can leak into serialized manifests, so the unordered
  // half of the rule has no runtime exemption.
  const std::string text = "std::unordered_map<std::string, double> m;\n";
  EXPECT_EQ(count_rule(lint_file("src/runtime/manifest.cpp", text), "determinism"), 1u);
  // Outside src/ (tests, tools) the rule does not apply.
  EXPECT_EQ(count_rule(lint_file("tests/scratch.cpp", text), "determinism"), 0u);
}

TEST(LintPhysics, DeterminismDoesNotFlagTimeLikeDeclarations) {
  // Identifiers merely containing "time", and declarations of functions that
  // shadow libc names, are not wall-clock reads.
  const std::string text =
      "double dead_time(double tau) { return 5.0 * tau; }\n"
      "double time_constant(double r, double c) { return r * c; }\n";
  EXPECT_EQ(count_rule(lint_file("src/analog/settle.cpp", text), "determinism"), 0u);
}

// ---------------------------------------------------------------- include-layering

TEST(LintPhysics, IncludeLayeringFlagsUpwardInclude) {
  const auto contents = read_fixture("analog/bad_layer_up.hpp");
  const auto findings = lint_file("src/analog/bad_layer_up.hpp", contents);
  EXPECT_EQ(count_rule(findings, "include-layering"), 1u);
  EXPECT_TRUE(has_finding_at(findings, "include-layering", 9));
}

TEST(LintPhysics, IncludeLayeringAcceptsDownwardInclude) {
  const auto contents = read_fixture("pipeline/layer_down.hpp");
  const auto findings = lint_file("src/pipeline/layer_down.hpp", contents);
  for (const auto& f : findings) ADD_FAILURE() << adc::lint::to_string(f);
  EXPECT_TRUE(findings.empty());
}

TEST(LintPhysics, DefaultLayerDagIsAcyclic) {
  EXPECT_TRUE(adc::lint::find_dag_cycle(adc::lint::default_layer_dag()).empty());
  EXPECT_TRUE(adc::lint::dag_closure(adc::lint::default_layer_dag()).has_value());
}

TEST(LintPhysics, ServiceLayerSitsAboveScenarioAndBelowTools) {
  // service may include scenario/runtime/common ...
  const std::string down =
      "#include \"scenario/runner.hpp\"\n"
      "#include \"runtime/thread_pool.hpp\"\n"
      "#include \"common/json.hpp\"\n";
  EXPECT_EQ(count_rule(lint_file("src/service/server.cpp", down), "include-layering"), 0u);
  // ... but nothing below service may reach up into it.
  const std::string up = "#include \"service/protocol.hpp\"\n";
  EXPECT_EQ(count_rule(lint_file("src/scenario/runner.cpp", up), "include-layering"), 1u);
  EXPECT_EQ(count_rule(lint_file("src/runtime/manifest.cpp", up), "include-layering"), 1u);
}

TEST(LintPhysics, CyclicLayerDagIsRejectedLoudly) {
  adc::lint::LayerDag cyclic;
  cyclic.deps = {{"a", {"b"}}, {"b", {"c"}}, {"c", {"a"}}};
  EXPECT_FALSE(adc::lint::find_dag_cycle(cyclic).empty());
  EXPECT_FALSE(adc::lint::dag_closure(cyclic).has_value());
}

TEST(LintPhysics, IncludeEdgesAreCollectedPerFile) {
  const auto contents = read_fixture("pipeline/layer_down.hpp");
  const auto report = adc::lint::lint_file_report("src/pipeline/layer_down.hpp", contents);
  ASSERT_FALSE(report.edges.empty());
  EXPECT_EQ(report.edges.front().from, "pipeline");
  EXPECT_EQ(report.edges.front().to, "analog");
  EXPECT_TRUE(report.edges.front().allowed);
}

// ---------------------------------------------------------------- lint-ok-hygiene

TEST(LintPhysics, LintOkHygieneFlagsStaleAndReasonless) {
  const auto contents = read_fixture("bad_stale_ok.cpp");
  const auto findings = lint_file("src/fixture/bad_stale_ok.cpp", contents);
  EXPECT_EQ(count_rule(findings, "lint-ok-hygiene"), 2u);
  EXPECT_TRUE(has_finding_at(findings, "lint-ok-hygiene", 7));   // stale
  EXPECT_TRUE(has_finding_at(findings, "lint-ok-hygiene", 10));  // reasonless
}

TEST(LintPhysics, LintOkProseMentionIsNotASuppression) {
  // A comment discussing the marker must neither suppress nor count as stale.
  const std::string text = "// the lint-ok-hygiene rule polices lint-ok rot\nint a = 1;\n";
  EXPECT_TRUE(lint_file("src/fixture/prose.cpp", text).empty());
}

// ---------------------------------------------------------------- reports

TEST(LintReport, JsonCarriesSchemaRuleAndRelativePath) {
  std::vector<Finding> findings{{"/repo/src/analog/mos.hpp", 19, "si-literal", "raw factor"}};
  const std::string json = adc::lint::to_json(findings, "/repo");
  EXPECT_NE(json.find("lint_physics/findings/v1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"si-literal\""), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/analog/mos.hpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":19"), std::string::npos);
}

TEST(LintReport, SarifCarriesVersionRuleIdAndRegion) {
  std::vector<Finding> findings{{"/repo/src/analog/mos.hpp", 19, "si-literal", "raw factor"}};
  const std::string sarif = adc::lint::to_sarif(findings, "/repo");
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"si-literal\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":19"), std::string::npos);
  EXPECT_NE(sarif.find("src/analog/mos.hpp"), std::string::npos);
}

TEST(LintReport, SarifListsEveryCatalogRule) {
  const std::string sarif = adc::lint::to_sarif({}, {});
  for (const auto& rule : adc::lint::rule_catalog()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule.id) + "\""), std::string::npos)
        << "rule missing from SARIF catalog: " << rule.id;
  }
}

TEST(LintReport, IncludeGraphJsonIsDeterministic) {
  adc::lint::IncludeGraph graph;
  graph.edges = {{"analog", "common", 3, true}, {"pipeline", "power", 1, false}};
  const std::string json = adc::lint::to_json(graph);
  EXPECT_NE(json.find("lint_physics/include_graph/v1"), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"analog\""), std::string::npos);
  EXPECT_NE(json.find("\"allowed\":false"), std::string::npos);
  EXPECT_EQ(json, adc::lint::to_json(graph));
}

}  // namespace
