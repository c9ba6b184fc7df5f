// The determinism-contract linter (src/lint/): lexer unit tests, the
// fixture corpus under tests/lint_fixtures/ (one positive and one
// suppressed case per check, compared against .expected goldens), and the
// path-scoping of the default configuration.

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"
#include "lint/token.hpp"

namespace {

using dagsched::lint::Finding;
using dagsched::lint::LexResult;
using dagsched::lint::LintOptions;
using dagsched::lint::Token;
using dagsched::lint::TokenKind;

std::string fixture_dir() {
  return std::string(DAGSCHED_SOURCE_DIR) + "/tests/lint_fixtures";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The options every fixture runs with: all checks, every path in scope
/// (fixtures live outside the repo's writer-path fragments).
LintOptions fixture_options() {
  LintOptions options;
  options.writer_paths = {""};
  options.ordered_paths = {""};
  return options;
}

std::string lint_fixture(const std::string& name) {
  const std::string source = read_file(fixture_dir() + "/" + name);
  return dagsched::lint::format_findings(
      dagsched::lint::lint_source(name, source, fixture_options()));
}

// --------------------------------------------------------------- lexer

TEST(LintLexer, TracksLinesAndKinds) {
  const LexResult lexed =
      dagsched::lint::lex("int a = 1;\ndouble b = 2.5; // note\n");
  ASSERT_GE(lexed.tokens.size(), 8u);
  EXPECT_EQ(lexed.tokens[0].kind, TokenKind::Identifier);
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].line, 1);
  EXPECT_EQ(lexed.tokens[3].kind, TokenKind::Number);
  EXPECT_FALSE(lexed.tokens[3].is_float);
  const Token& b_value = lexed.tokens[8];
  EXPECT_EQ(b_value.text, "2.5");
  EXPECT_TRUE(b_value.is_float);
  EXPECT_EQ(b_value.line, 2);
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line, 2);
  EXPECT_EQ(lexed.comments[0].text, " note");
}

TEST(LintLexer, StringsAndCommentsAreOpaque) {
  // Clock names inside string literals and comments must not token-match.
  const LexResult lexed = dagsched::lint::lex(
      "const char* s = \"steady_clock\"; /* steady_clock */\n");
  for (const Token& token : lexed.tokens) {
    EXPECT_FALSE(token.kind == TokenKind::Identifier &&
                 token.text == "steady_clock")
        << "literal content leaked into the identifier stream";
  }
  ASSERT_EQ(lexed.comments.size(), 1u);
}

TEST(LintLexer, RawStringsAndEscapes) {
  const LexResult lexed = dagsched::lint::lex(
      "auto r = R\"x(rand() \"quoted\")x\"; char c = '\\n';");
  bool saw_raw = false;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::String) {
      saw_raw = true;
      EXPECT_EQ(token.text, "rand() \"quoted\"");
    }
    EXPECT_NE(token.text, "rand");
  }
  EXPECT_TRUE(saw_raw);
}

TEST(LintLexer, FloatLiteralForms) {
  const LexResult lexed = dagsched::lint::lex("1.0 2e9 0x1f 37 1e-3 .5");
  std::vector<bool> is_float;
  for (const Token& token : lexed.tokens) {
    if (token.kind == TokenKind::Number) is_float.push_back(token.is_float);
  }
  EXPECT_EQ(is_float,
            (std::vector<bool>{true, true, false, false, true, true}));
}

// ------------------------------------------------------------- fixtures

struct FixtureCase {
  const char* name;
  bool expects_findings;
};

// Print the case by value so the test names CTest registers do not carry
// the (address-randomised) bytes of the name pointer.
void PrintTo(const FixtureCase& fixture, std::ostream* os) {
  *os << fixture.name;
}

class LintFixture : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixture, MatchesGolden) {
  const FixtureCase& fixture = GetParam();
  const std::string actual = lint_fixture(fixture.name);
  const std::string expected =
      read_file(fixture_dir() + "/" + fixture.name + ".expected");
  EXPECT_EQ(actual, expected);
  // Every *_bad fixture must actually prove its check live; every
  // *_allowed fixture must be fully suppressed.
  EXPECT_EQ(!actual.empty(), fixture.expects_findings);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LintFixture,
    ::testing::Values(FixtureCase{"wall_clock_bad.cpp", true},
                      FixtureCase{"wall_clock_allowed.cpp", false},
                      FixtureCase{"unordered_iter_bad.cpp", true},
                      FixtureCase{"unordered_iter_allowed.cpp", false},
                      FixtureCase{"rng_stream_bad.cpp", true},
                      FixtureCase{"rng_stream_allowed.cpp", false},
                      FixtureCase{"float_format_bad.cpp", true},
                      FixtureCase{"float_format_allowed.cpp", false},
                      FixtureCase{"bare_assert_bad.cpp", true},
                      FixtureCase{"bare_assert_allowed.cpp", false},
                      FixtureCase{"locale_number_bad.cpp", true},
                      FixtureCase{"locale_number_allowed.cpp", false},
                      FixtureCase{"ready_scan_bad.cpp", true},
                      FixtureCase{"ready_scan_allowed.cpp", false},
                      FixtureCase{"lint_allow_bad.cpp", true}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name = info.param.name;
      name.resize(name.size() - 4);  // drop ".cpp"
      return name;
    });

// ------------------------------------------------------------- scoping

TEST(LintScope, UnorderedIterOnlyFiresInOrderedPaths) {
  const std::string source =
      "#include <unordered_map>\n"
      "int sum(const std::unordered_map<int, int>& m) {\n"
      "  int total = 0;\n"
      "  for (const auto& kv : m) total += kv.second;\n"
      "  return total;\n"
      "}\n";
  const LintOptions options = dagsched::lint::default_options();
  EXPECT_FALSE(
      dagsched::lint::lint_source("src/sweep/summary.cpp", source, options)
          .empty());
  // The same loop in non-serialization code is legitimate (order-free
  // aggregation) and must not be flagged.
  EXPECT_TRUE(
      dagsched::lint::lint_source("src/core/sa_core.cpp", source, options)
          .empty());
}

TEST(LintScope, FloatFormatOnlyFiresInWriterPaths) {
  const std::string source =
      "#include <string>\n"
      "std::string f(double ratio) { return std::to_string(ratio); }\n";
  const LintOptions options = dagsched::lint::default_options();
  EXPECT_FALSE(
      dagsched::lint::lint_source("src/util/json.cpp", source, options)
          .empty());
  EXPECT_TRUE(
      dagsched::lint::lint_source("src/core/cost.cpp", source, options)
          .empty());
}

TEST(LintScope, ReadyScanOnlyFiresInPolicyPaths) {
  const std::string source =
      "int count(const Context& ctx) { return ctx.ready_tasks().size(); }\n";
  const LintOptions options = dagsched::lint::default_options();
  EXPECT_FALSE(
      dagsched::lint::lint_source("src/sched/hlf.cpp", source, options)
          .empty());
  // The SA packet former and the oracle's epoch observer read the whole
  // ready set by design and live outside src/sched/.
  EXPECT_TRUE(
      dagsched::lint::lint_source("src/core/packet.cpp", source, options)
          .empty());
}

TEST(LintScope, HeaderDeclarationsReachTheIncludingFile) {
  // A .cpp iterating an unordered member declared in its own header is
  // still caught: the TU model merges directly-included declaration
  // tables.
  const std::string header =
      "#pragma once\n"
      "#include <unordered_map>\n"
      "struct Registry { std::unordered_map<int, int> table_; };\n";
  const std::string source =
      "#include \"registry_under_test.hpp\"\n"
      "int walk(const Registry& r) {\n"
      "  int total = 0;\n"
      "  for (const auto& kv : r.table_) total += kv.second;\n"
      "  return total;\n"
      "}\n";
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "/registry_under_test.hpp");
    out << header;
  }
  LintOptions options = fixture_options();
  const auto findings = dagsched::lint::lint_source(
      dir + "/registry_walk.cpp", source, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "unordered-iter");
}

TEST(LintSuppress, AllowOnSameLineAndLineAbove) {
  const LintOptions options = fixture_options();
  const std::string same_line =
      "#include <cassert>\n"
      "void f(int v) { assert(v); }  // LINT-ALLOW(bare-assert): fine\n";
  EXPECT_TRUE(dagsched::lint::lint_source("x.cpp",
                                          "void g();\n" + same_line, options)
                  .empty());
  const std::string wrong_check =
      "#include <cassert>\n"
      "// LINT-ALLOW(wall-clock): wrong check name\n"
      "void f(int v) { assert(v); }\n";
  const auto findings =
      dagsched::lint::lint_source("x.cpp", wrong_check, options);
  // The assert still fires and the mismatched suppression reports unused.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "lint-allow");
  EXPECT_EQ(findings[1].check, "bare-assert");
}

TEST(LintCli, KnownChecksAreStable) {
  const std::vector<std::string> expected = {
      "wall-clock", "unordered-iter", "rng-stream", "float-format",
      "bare-assert", "locale-number", "ready-scan"};
  EXPECT_EQ(dagsched::lint::known_checks(), expected);
}

}  // namespace
