// varuna_analyze battery: every seeded fixture defect is caught by its pass,
// the false-positive traps stay silent, and the real tree is clean.
//
// Fixtures live in tests/analyze_fixtures/ (never compiled — they are data
// for the analyzer). VARUNA_REPO_ROOT / VARUNA_ANALYZE_FIXTURES are injected
// by tests/CMakeLists.txt.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/analyze/analyzer.h"
#include "tools/analyze/lexer.h"

namespace varuna {
namespace analyze {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Lexes a fixture file, using `rel` as its pretended repo-relative path.
LexedFile LexFixture(const std::string& fixture_rel, const std::string& rel) {
  const std::string path = std::string(VARUNA_ANALYZE_FIXTURES) + "/" + fixture_rel;
  return Lex(path, rel, ReadFileOrDie(path));
}

LayeringSpec RealLayeringSpec() {
  LayeringSpec spec;
  std::string error;
  const std::string path = std::string(VARUNA_REPO_ROOT) + "/tools/analyze/layering.txt";
  EXPECT_TRUE(ParseLayeringSpec(ReadFileOrDie(path), &spec, &error)) << error;
  return spec;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += FormatFinding(f) + "\n";
  return out;
}

// --- Lexer -----------------------------------------------------------------

TEST(Lexer, DigitSeparatorsAreNotCharLiterals) {
  const LexedFile f = Lex("m", "m.cc", "uint64_t x = 1'000'003;");
  ASSERT_EQ(f.tokens.size(), 5u);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(f.tokens[3].text, "1'000'003");
}

TEST(Lexer, RawStringSwallowsHazardText) {
  const LexedFile f =
      Lex("m", "m.cc", "auto s = R\"(line one\n\"quoted\" rand()\n)\";\nint y = 2;");
  int raw = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kRawString) ++raw;
    EXPECT_NE(t.text, "rand") << "raw-string body leaked into the token stream";
    if (t.text == "y") {
      EXPECT_EQ(t.line, 4) << "line tracking lost across the raw string";
    }
  }
  EXPECT_EQ(raw, 1);
}

TEST(Lexer, CustomDelimiterRawString) {
  const LexedFile f = Lex("m", "m.cc", "auto s = R\"doc(x )\" still inside)doc\"; int z;");
  ASSERT_GE(f.tokens.size(), 4u);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kRawString);
  bool saw_z = false;
  for (const Token& t : f.tokens) saw_z = saw_z || t.text == "z";
  EXPECT_TRUE(saw_z);
}

TEST(Lexer, LineContinuationSplicesTokens) {
  const LexedFile f = Lex("m", "m.cc", "int a\\\nb = 2;");
  ASSERT_GE(f.tokens.size(), 2u);
  EXPECT_EQ(f.tokens[1].text, "ab");
  EXPECT_EQ(f.tokens[1].line, 1);
}

TEST(Lexer, BlockCommentRetainedWithLineTracking) {
  const LexedFile f = Lex("m", "m.cc", "/* one\ntwo */ int z;");
  ASSERT_GE(f.tokens.size(), 3u);
  EXPECT_EQ(f.tokens[0].kind, TokKind::kComment);
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[1].text, "int");
  EXPECT_EQ(f.tokens[1].line, 2);
}

TEST(Lexer, HeaderNameAfterInclude) {
  const LexedFile f = Lex("m", "m.cc", "#include <chrono>\nbool lt = a < b;");
  ASSERT_GE(f.tokens.size(), 3u);
  EXPECT_EQ(f.tokens[2].kind, TokKind::kHeader);
  EXPECT_EQ(f.tokens[2].text, "<chrono>");
  // The `<` in `a < b` must stay ordinary punctuation.
  int headers = 0;
  for (const Token& t : f.tokens) headers += t.kind == TokKind::kHeader ? 1 : 0;
  EXPECT_EQ(headers, 1);
}

TEST(Lexer, CommentAllowsParsesRuleNames) {
  EXPECT_TRUE(CommentAllows("// varuna-analyze: allow(layering)", "layering"));
  EXPECT_TRUE(CommentAllows("// text varuna-analyze: allow(rng-copy)", "rng-copy"));
  EXPECT_FALSE(CommentAllows("// varuna-analyze: allow(layering)", "rng-copy"));
  EXPECT_FALSE(CommentAllows("// varuna-lint: allow(layering)", "layering"));
}

// --- Layering spec ----------------------------------------------------------

TEST(LayeringSpec, ParsesRealSpecBottomUp) {
  const LayeringSpec spec = RealLayeringSpec();
  ASSERT_FALSE(spec.layers.empty());
  EXPECT_EQ(spec.layers.front().front(), "common");
  EXPECT_LT(spec.layer_of.at("sim"), spec.layer_of.at("manager"));
  EXPECT_LT(spec.layer_of.at("manager"), spec.layer_of.at("varuna"));
  EXPECT_LT(spec.layer_of.at("varuna"), spec.layer_of.at("chaos"));
}

TEST(LayeringSpec, RejectsDuplicateModule) {
  LayeringSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayeringSpec("common\nsim common\n", &spec, &error));
  EXPECT_NE(error.find("common"), std::string::npos);
}

TEST(LayeringSpec, RejectsEmptySpec) {
  LayeringSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayeringSpec("# comments only\n", &spec, &error));
}

// --- Pass 1: include graph ---------------------------------------------------

TEST(IncludeGraph, FixtureBatteryCatchesEverySeededDefect) {
  const LayeringSpec spec = RealLayeringSpec();
  std::vector<LexedFile> files;
  files.push_back(LexFixture("layering/src/sim/bad_engine.h", "src/sim/bad_engine.h"));
  files.push_back(LexFixture("layering/src/common/cycle_a.h", "src/common/cycle_a.h"));
  files.push_back(LexFixture("layering/src/common/cycle_b.h", "src/common/cycle_b.h"));
  files.push_back(LexFixture("layering/src/widgets/rogue.h", "src/widgets/rogue.h"));

  std::vector<Finding> findings;
  CheckIncludeGraph(files, spec, &findings);

  // One sim->manager back-edge (the suppressed manager include stays quiet),
  // one unlisted module, one cycle.
  EXPECT_EQ(CountRule(findings, "layering"), 2) << Dump(findings);
  EXPECT_EQ(CountRule(findings, "include-cycle"), 1) << Dump(findings);

  bool saw_backedge = false;
  bool saw_unlisted = false;
  for (const Finding& f : findings) {
    if (f.rule == "layering" && f.rel == "src/sim/bad_engine.h") {
      saw_backedge = true;
      EXPECT_NE(f.message.find("src/manager"), std::string::npos) << f.message;
    }
    if (f.rule == "layering" && f.message.find("widgets") != std::string::npos) {
      saw_unlisted = true;
    }
    if (f.rule == "include-cycle") {
      EXPECT_NE(f.message.find("cycle_a.h"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("cycle_b.h"), std::string::npos) << f.message;
    }
  }
  EXPECT_TRUE(saw_backedge) << Dump(findings);
  EXPECT_TRUE(saw_unlisted) << Dump(findings);
}

TEST(IncludeGraph, SameLayerPeersMayNotIncludeEachOther) {
  const LayeringSpec spec = RealLayeringSpec();
  std::vector<LexedFile> files;
  files.push_back(
      Lex("mem", "src/tensor/x.h", "#include \"src/model/op_graph.h\"\n"));
  std::vector<Finding> findings;
  CheckIncludeGraph(files, spec, &findings);
  EXPECT_EQ(CountRule(findings, "layering"), 1) << Dump(findings);
}

TEST(IncludeGraph, DownwardIncludeIsClean) {
  const LayeringSpec spec = RealLayeringSpec();
  std::vector<LexedFile> files;
  files.push_back(Lex("mem", "src/manager/x.h",
                      "#include \"src/sim/engine.h\"\n#include \"src/common/rng.h\"\n"));
  std::vector<Finding> findings;
  CheckIncludeGraph(files, spec, &findings);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// --- Pass 2: Rng discipline --------------------------------------------------

std::vector<Finding> RngFindings(const std::string& fixture) {
  const LexedFile file = LexFixture("rng/" + fixture, "src/fixture/" + fixture);
  std::vector<Finding> findings;
  CheckRngDiscipline(file, &findings);
  return findings;
}

TEST(RngDiscipline, ByValueParamDrawsAreForks) {
  const std::vector<Finding> findings = RngFindings("bad_value_param.cc");
  EXPECT_EQ(CountRule(findings, "rng-value-param"), 2) << Dump(findings);
  EXPECT_EQ(findings.size(), 2u) << Dump(findings);
}

TEST(RngDiscipline, CopiesOutsideForkAreFlagged) {
  const std::vector<Finding> findings = RngFindings("bad_copy.cc");
  EXPECT_EQ(CountRule(findings, "rng-copy"), 2) << Dump(findings);
  EXPECT_EQ(findings.size(), 2u) << Dump(findings);
}

TEST(RngDiscipline, TemporaryDrawsAreFlagged) {
  const std::vector<Finding> findings = RngFindings("bad_temp.cc");
  EXPECT_EQ(CountRule(findings, "rng-temp"), 1) << Dump(findings);
  EXPECT_EQ(findings.size(), 1u) << Dump(findings);
}

TEST(RngDiscipline, RawStringsCommentsAndSinksStayClean) {
  const std::vector<Finding> findings = RngFindings("clean.cc");
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// The liveput predictor contract (src/morph/liveput.h): policy code draws no
// randomness. The seeded-defect fixture shows one instance of each way a
// predictor might sneak a draw in; its disciplined counterpart (pure
// function of the observation stream) must stay clean.
TEST(RngDiscipline, JitteredPredictorPolicyDrawsAreFlagged) {
  const std::vector<Finding> findings = RngFindings("bad_predictor.cc");
  EXPECT_EQ(CountRule(findings, "rng-value-param"), 1) << Dump(findings);
  EXPECT_EQ(CountRule(findings, "rng-temp"), 1) << Dump(findings);
  EXPECT_EQ(CountRule(findings, "rng-copy"), 1) << Dump(findings);
  EXPECT_EQ(findings.size(), 3u) << Dump(findings);
}

TEST(RngDiscipline, ObservationDrivenPredictorIsClean) {
  const std::vector<Finding> findings = RngFindings("clean_predictor.cc");
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// --- The real tree -----------------------------------------------------------

TEST(RealTree, FullAnalysisIsClean) {
  AnalyzerOptions options;
  options.root = VARUNA_REPO_ROOT;
  std::vector<Finding> findings;
  std::string error;
  const int status = RunAnalysis(options, &findings, &error);
  EXPECT_EQ(status, 0) << error << "\n" << Dump(findings);
}

}  // namespace
}  // namespace analyze
}  // namespace varuna
