// varuna_analyze battery: every seeded fixture defect is caught by its pass,
// the false-positive traps stay silent, and the real tree is clean.
//
// Fixtures live in tests/analyze_fixtures/ (never compiled — they are data
// for the analyzer). VARUNA_REPO_ROOT / VARUNA_ANALYZE_FIXTURES are injected
// by tests/CMakeLists.txt.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
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
  EXPECT_TRUE(CommentAllows("// text varuna-analyze: allow(global-state)", "global-state"));
  EXPECT_FALSE(CommentAllows("// varuna-analyze: allow(layering)", "global-state"));
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

// --- Pass 2: house rules -----------------------------------------------------

// Lines of the `rule` findings when the house rules read `text` as `rel`.
std::vector<int> HouseLines(const std::string& rel, const std::string& text,
                            const std::string& rule) {
  std::vector<Finding> findings;
  CheckHouseRules(Lex("mem", rel, text), &findings);
  std::vector<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

using Lines = std::vector<int>;

std::vector<int> DeterminismLines(const std::string& text) {
  return HouseLines("src/x.cc", text, "determinism");
}

// Hazard text inside a literal or comment is not code; real code after it is.
TEST(LiteralText, StringAndLineCommentAreNotCode) {
  EXPECT_EQ(DeterminismLines("x = \"rand()\"; // rand()\nrand();"), Lines{2});
}

TEST(LiteralText, EscapedQuoteDoesNotCloseString) {
  EXPECT_EQ(DeterminismLines(R"(f("say \"rand()\" now"); rand();)"), Lines{1});
}

TEST(LiteralText, DoubleBackslashThenCloseQuote) {
  EXPECT_EQ(DeterminismLines(R"(f("tail\\"); rand();)"), Lines{1});
}

TEST(LiteralText, RawStringOnOneLine) {
  EXPECT_EQ(DeterminismLines(R"cc(s = R"(std::random_device "x" rand())"; rand();)cc"), Lines{1});
}

TEST(LiteralText, RawStringEncodingPrefixes) {
  for (const std::string prefix : {"u8R", "uR", "UR", "LR"}) {
    EXPECT_EQ(DeterminismLines("s = " + prefix + "\"(rand())\"; rand();"), Lines{1}) << prefix;
  }
}

TEST(LiteralText, IdentifierEndingInRIsNotARawPrefix) {
  EXPECT_EQ(DeterminismLines(R"cc(auto x = matcher"(abc"; rand(); // )")cc"), Lines{1});
}

TEST(LiteralText, ContinuedStringLiteral) {
  EXPECT_EQ(DeterminismLines("s = \"begin \\\nstd::random_device end\"; rand();"), Lines{2});
}

TEST(LiteralText, ContinuedLineComment) {
  EXPECT_EQ(DeterminismLines("// comment continues \\\nrand(); still comment \\\n"
                             "rand(); also comment\nrand();"),
            Lines{4});
}

TEST(LiteralText, BlockCommentSpanningLines) {
  EXPECT_EQ(DeterminismLines("a(); /* rand()\nstd::random_device\n*/ rand();"), Lines{3});
}

TEST(LiteralText, CommentMarkerInsideString) {
  EXPECT_EQ(DeterminismLines("s = \"/*\"; rand();\nrand();"), (Lines{1, 2}));
}

TEST(LiteralText, EscapedQuoteCharLiteral) {
  EXPECT_EQ(DeterminismLines(R"(c = '\''; rand();)"), Lines{1});
}

TEST(Determinism, RawStringHazardTextIsClean) {
  EXPECT_EQ(DeterminismLines(R"cc(const char* kDoc = R"doc(
  std::random_device rd;
  srand(42); time(NULL);
  #include <chrono>
)doc";
)cc"),
            Lines{});
}

TEST(Determinism, ContinuedStringHazardTextIsClean) {
  EXPECT_EQ(DeterminismLines("const char* s = \"part one \\\nstd::random_device part two\";\n"),
            Lines{});
}

TEST(Determinism, ViolationAfterRawStringIsCaught) {
  EXPECT_EQ(DeterminismLines("const char* kDoc = R\"(text)\";\nconst int x = rand();\n"),
            Lines{2});
}

TEST(Determinism, WallClocksAndAmbientRngsAreFlagged) {
  EXPECT_EQ(DeterminismLines("#include <random>\n"
                             "#include <chrono>\n"
                             "std::random_device rd;\n"
                             "auto t = std::chrono::steady_clock::now();\n"
                             "auto u = system_clock::now() + high_resolution_clock::now();\n"
                             "gettimeofday(&tv, nullptr);\n"
                             "long a = time(nullptr) + time(NULL) + time(0) + time(&t);\n"
                             "long b = clock();\n"
                             "srand(7);\n"),
            (Lines{1, 2, 3, 4, 5, 5, 6, 7, 7, 7, 7, 8, 9}));
}

TEST(Determinism, QualifiedAmbientCallsAreFlagged) {
  EXPECT_EQ(DeterminismLines("int a = std::rand();\n"
                             "int b = ::rand();\n"
                             "std::srand(1);\n"
                             "long c = std::time(nullptr);\n"
                             "long d = std::clock();\n"),
            (Lines{1, 2, 3, 4, 5}));
}

TEST(Determinism, MemberAndOtherNamespaceCallsAreClean) {
  EXPECT_EQ(DeterminismLines("long a = x.time(0) + sim::clock() + engine.now();\n"
                             "int b = sim::rand() + clock.Now() + time_s(0);\n"),
            Lines{});
}

TEST(Determinism, CoversTestsBenchAndExamples) {
  for (const std::string rel : {"tests/t.cc", "bench/b.cc", "examples/e.cpp"}) {
    EXPECT_EQ(HouseLines(rel, "#include <chrono>\n", "determinism"), Lines{1}) << rel;
  }
  EXPECT_EQ(HouseLines("tools/t.cc", "#include <chrono>\n", "determinism"), Lines{});
}

TEST(Determinism, BenchUtilIsTheTimingExemption) {
  EXPECT_EQ(HouseLines("bench/bench_util.h", "#include <chrono>\n", "determinism"), Lines{});
  EXPECT_EQ(HouseLines("bench/bench_other.h", "#include <chrono>\n", "determinism"), Lines{1});
}

TEST(CheckMacro, AssertIsFlaggedInTestsToo) {
  EXPECT_EQ(HouseLines("tests/t.cc", "void f() { assert(1 == 1); }\n", "check-macro"), Lines{1});
  EXPECT_EQ(HouseLines("src/x.cc",
                       "static_assert(sizeof(int) == 4);\n"
                       "v.assert(x);\n"
                       "static_assert(true); assert (x);\n",
                       "check-macro"),
            Lines{3});
}

TEST(IncludeGuard, GuardMustMatchThePath) {
  auto guard = [](const std::string& rel, const std::string& text) {
    return HouseLines(rel, text, "include-guard");
  };
  EXPECT_EQ(guard("src/net/link.h", "#ifndef SRC_NET_LINK_H_\n#define SRC_NET_LINK_H_\n"), Lines{});
  EXPECT_EQ(guard("bench/a-b.h", "// x\n#ifndef BENCH_A_B_H_\n#define BENCH_A_B_H_\n"), Lines{});
  EXPECT_EQ(guard("src/net/link.h", "\n#ifndef NET_LINK_H\n#define NET_LINK_H\n"), Lines{2});
  EXPECT_EQ(guard("src/net/link.h", "#pragma once\nint x;\n"), Lines{1});
  EXPECT_EQ(guard("src/net/link.h", "// varuna-analyze: allow(include-guard)\n#pragma once\n"),
            Lines{});
  EXPECT_EQ(guard("src/net/link.cc", "int x;\n"), Lines{});
}

TEST(UnitSuffix, TimeAndByteNamesCarryTheirUnit) {
  const std::string text =
      "struct Link {\n"
      "  double timeout;\n"              // 2: time without _s
      "  double latency_s;\n"
      "  double stall_probability;\n"
      "  double bytes;\n"
      "  double total_bytes_;\n"
      "  double payload = 0;\n"          // 7: bytes without _bytes
      "  double wait_time_s_ = 1.0;\n"
      "  double bandwidth_bps;\n"
      "};\n"
      "void Send(double delay, double chunk_bytes, double payload_size);\n";  // 11, 11
  EXPECT_EQ(HouseLines("src/net/link.h", text, "unit-suffix"), (Lines{2, 7, 11, 11}));
  EXPECT_EQ(HouseLines("src/cluster/fleet.h", text, "unit-suffix").size(), 4u);
  EXPECT_EQ(HouseLines("src/net/link.cc", text, "unit-suffix"), Lines{});
  EXPECT_EQ(HouseLines("src/sim/link.h", text, "unit-suffix"), Lines{});
}

TEST(UnitSuffix, SplitDeclarationIsFlagged) {
  EXPECT_EQ(HouseLines("src/net/link.h", "double Total(double deadline_s, double\n    timeout);\n",
                       "unit-suffix"),
            Lines{1});
}

TEST(Threading, SpawningOutsideThePoolIsFlagged) {
  const std::string text =
      "#include <thread>\n"
      "#include <future>\n"
      "std::thread t;\n"
      "std::jthread j;\n"
      "auto f = std::async(g);\n"
      "std::this_thread::yield(); std::mutex m; std::condition_variable cv;\n";
  EXPECT_EQ(HouseLines("src/x.cc", text, "threading"), (Lines{1, 2, 3, 4, 5}));
  EXPECT_EQ(HouseLines("src/common/thread_pool.cc", text, "threading"), Lines{});
  EXPECT_EQ(HouseLines("tests/x.cc", text, "threading"), Lines{});
}

TEST(Threading, PoolUsersAreAReviewedList) {
  const std::string text = "#include \"src/common/thread_pool.h\"\nvoid F(ThreadPool* pool);\n";
  EXPECT_EQ(HouseLines("src/x.cc", text, "threading"), (Lines{1, 2}));
  EXPECT_EQ(HouseLines("src/train/trainers.h", text, "threading"), Lines{});
}

TEST(HotPath, NodeContainersAndStdFunctionAreFlagged) {
  const std::string text =
      "#include <map>\n"
      "#include <functional>\n"
      "std::map<int, int> m;\n"
      "std::function<void()> f;\n"
      "std::unordered_set<int> s; std::set<int> o;\n"
      "std::vector<int> v; SmallCallback cb;\n";
  EXPECT_EQ(HouseLines("src/sim/x.cc", text, "hot-path"), (Lines{1, 2, 3, 4, 5, 5}));
  EXPECT_EQ(HouseLines("src/morph/x.h", text, "hot-path").size(), 6u);
  EXPECT_EQ(HouseLines("src/pipeline/executor.cc", text, "hot-path").size(), 6u);
  EXPECT_EQ(HouseLines("src/nn/x.cc", text, "hot-path"), Lines{});
}

std::vector<int> GlobalStateLines(const std::string& text, const std::string& rel = "src/x.cc") {
  return HouseLines(rel, text, "global-state");
}

TEST(GlobalState, FunctionLocalStaticMapIsFlagged) {
  EXPECT_EQ(GlobalStateLines("const Schedule& Get(int key) {\n"
                             "  static std::map<std::tuple<int, int>, Schedule> cache;\n"
                             "  return cache[key];\n"
                             "}\n"),
            Lines{2});
}

TEST(GlobalState, NamespaceScopeStaticAndThreadLocalAreFlagged) {
  EXPECT_EQ(GlobalStateLines("static int g_calls = 0;\n"
                             "thread_local std::vector<float> scratch;\n"
                             "static std::vector<int>\n"
                             "    g_table{1, 2};\n"),
            (Lines{1, 2, 3}));
}

TEST(GlobalState, ConstConstexprAndFunctionsAreClean) {
  EXPECT_EQ(GlobalStateLines(R"cc(static const int kLimit = 4;
static constexpr double kScale = 0.5;
static const std::map<int, int> kNames = {};
static bool Eq(const Key& a, uint32_t size,
               int rings);
class C {
  static std::vector<std::unique_ptr<C>> Split(std::unique_ptr<C> c);
  static C& Process();
};
const int x = static_cast<int>(y); static_assert(sizeof(int) == 4);
// static int in_a_comment = 0;
)cc",
                             "src/x.h"),
            Lines{});
}

TEST(GlobalState, AllowCommentIsHonoured) {
  EXPECT_EQ(GlobalStateLines("C& C::Process() {\n"
                             "  static C instance;  // varuna-analyze: allow(global-state)\n"
                             "  return instance;\n"
                             "}\n"),
            Lines{});
}

TEST(GlobalState, MutableNamespaceScopeVariablesAreFlagged) {
  EXPECT_EQ(GlobalStateLines("int g_calls;\n"
                             "namespace varuna {\n"
                             "namespace {\n"
                             "GemmKernel g_gemm_kernel = GemmKernel::kBlocked;\n"
                             "std::vector<int> g_table{1, 2};\n"
                             "std::map<int, int>\n"
                             "    g_names = {{1, 2}};\n"
                             "}  // namespace\n"
                             "int Counter::count_ = 0;\n"
                             "inline std::string g_label = \"x\";\n"
                             "}  // namespace varuna\n"),
            (Lines{1, 4, 5, 6, 9, 10}));
}

TEST(GlobalState, NamespaceScopeNonVariablesAreClean) {
  EXPECT_EQ(GlobalStateLines(R"cc(#define DECLARE(name) \
  int name;
namespace varuna {
namespace fs = std::filesystem;
using Table = std::vector<int>;
typedef float v8sf __attribute__((vector_size(32)));
class Forward;
extern int g_declared;
const int kA = 1;
constexpr double kB = 2.0;
inline constexpr int kC = 3;
const std::vector<int> kD{1, 2};
const auto kSquare = [](int x) { int y = x * x; return y; };
enum class Kind : uint8_t { kA, kB };
template <typename T = int>
T Max(T a, T b);
struct Point {
  int x = 0;
  std::vector<int> items;
};
class C {
 public:
  C() : a_{1}, b_(2) {}
  C& operator=(const C& other) { a_ = other.a_; return *this; }
 private:
  int a_ = 0;
  int b_;
};
int Sum(int n = 3) {
  int total = 0;
  for (int i = 0; i < n; ++i) { total += i; }
  return total;
}
Point::Point() : x{1} {}
const int kAfterConstructor = 4;
extern "C" {
int c_api(int x);
}
}  // namespace varuna
)cc",
                             "src/x.h"),
            Lines{});
}

TEST(GlobalState, NamespaceScopeAllowCommentIsHonoured) {
  EXPECT_EQ(GlobalStateLines("namespace {\n"
                             "GemmKernel g_kernel = GemmKernel::kBlocked;  "
                             "// varuna-analyze: allow(global-state)\n"
                             "}  // namespace\n"),
            Lines{});
}

TEST(GlobalState, CoversSrcOnly) {
  EXPECT_EQ(GlobalStateLines("static int calls = 0;\nint count = 0;\n", "tests/t.cc"), Lines{});
}

// --- Pass 3: allowlists --------------------------------------------------------

// A fresh directory under the test temp dir, removed on destruction.
struct ScratchRoot {
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) /
      ("varuna_analyze_" + std::to_string(getpid()) + "_" +
       testing::UnitTest::GetInstance()->current_test_info()->name());
  ScratchRoot() { std::filesystem::create_directories(path); }
  ~ScratchRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;
  void Write(const std::string& rel, const std::string& text) const {
    std::filesystem::create_directories((path / rel).parent_path());
    std::ofstream(path / rel) << text;
  }
};

// Text under which an allowlist entry is not stale: pool users use the pool.
std::string LiveEntryText(const Allowlist& list) {
  return list.name == "kPoolUserFiles" ? "#include \"src/common/thread_pool.h\"\n" : "";
}

TEST(Allowlists, MissingFileIsReported) {
  const ScratchRoot root;
  std::string gone;
  for (const Allowlist& list : Allowlists()) {
    for (const std::string_view rel : list.files) {
      if (gone.empty() && list.name == "kHotPathFiles") {
        gone = std::string(list.name) + " names missing file " + std::string(rel);
      } else {
        root.Write(std::string(rel), LiveEntryText(list));
      }
    }
  }
  std::vector<Finding> findings;
  CheckAllowlists(root.path.string(), &findings);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "stale-allowlist");
  EXPECT_NE(findings[0].message.find(gone), std::string::npos) << findings[0].message;
}

// A kPoolUserFiles entry whose code no longer names ThreadPool nor includes
// thread_pool.h is stale; a comment or a string literal is not a use.
TEST(Allowlists, PoolEntryWithoutPoolUseIsReported) {
  const ScratchRoot root;
  std::string stale;
  bool token_user_written = false;
  for (const Allowlist& list : Allowlists()) {
    for (const std::string_view rel : list.files) {
      std::string text = LiveEntryText(list);
      if (list.name == "kPoolUserFiles" && stale.empty()) {
        stale = std::string(rel);
        text = "// Used ThreadPool once.\nconst char* kWhat = \"ThreadPool\";\n";
      } else if (list.name == "kPoolUserFiles" && !token_user_written) {
        token_user_written = true;
        text = "class ThreadPool;\n";
      }
      root.Write(std::string(rel), text);
    }
  }
  ASSERT_TRUE(token_user_written);
  std::vector<Finding> findings;
  CheckAllowlists(root.path.string(), &findings);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "stale-allowlist");
  EXPECT_NE(findings[0].message.find("kPoolUserFiles names " + stale + ", which no longer uses"),
            std::string::npos)
      << findings[0].message;
}

TEST(Allowlists, EveryListIsChecked) {
  std::vector<std::string_view> names;
  size_t entries = 0;
  for (const Allowlist& list : Allowlists()) {
    names.push_back(list.name);
    entries += list.files.size();
  }
  EXPECT_EQ(names, (std::vector<std::string_view>{"kPoolUserFiles", "kHotPathFiles",
                                                   "kHotPathAllowFiles", "kTimingAllowFiles"}));
  const ScratchRoot root;
  std::vector<Finding> findings;
  CheckAllowlists(root.path.string(), &findings);
  EXPECT_EQ(findings.size(), entries) << Dump(findings);
}

// --- RunAnalysis ---------------------------------------------------------------

TEST(RunAnalysis, UnreadableDirectoryIsAnError) {
  if (geteuid() == 0) GTEST_SKIP() << "root reads a mode-000 directory anyway";
  const ScratchRoot root;
  root.Write("tools/analyze/layering.txt", "common\n");
  root.Write("src/common/a.h", "#ifndef SRC_COMMON_A_H_\n#define SRC_COMMON_A_H_\n#endif\n");
  root.Write("src/locked/b.h", "");
  const std::filesystem::path locked = root.path / "src" / "locked";
  std::filesystem::permissions(locked, std::filesystem::perms::none);
  AnalyzerOptions options;
  options.root = root.path.string();
  options.roots = {"src"};
  std::vector<Finding> findings;
  std::string error;
  const int status = RunAnalysis(options, &findings, &error);
  std::filesystem::permissions(locked, std::filesystem::perms::owner_all);
  EXPECT_EQ(status, 2) << Dump(findings);
  EXPECT_NE(error.find("src/locked"), std::string::npos) << error;
}

// --- The real tree -----------------------------------------------------------

// The member functions of `class Rng` that advance the stream (non-static,
// non-const, not a constructor, the destructor or an assignment) but lack
// the `&` ref-qualifier. `checked` receives the name of every such member
// examined, qualified or not.
std::vector<std::string> UnqualifiedRngMembers(const LexedFile& file,
                                               std::vector<std::string>* checked) {
  std::vector<const Token*> code;  // Comments and preprocessor lines dropped.
  for (const Token& token : file.tokens) {
    if (token.kind != TokKind::kComment && !token.directive) code.push_back(&token);
  }
  const auto text_is = [](const Token* token, std::string_view text) {
    return token->text == text;
  };
  size_t i = 0;
  while (i + 2 < code.size() &&
         !(text_is(code[i], "class") && text_is(code[i + 1], "Rng") &&
           text_is(code[i + 2], "{"))) {
    ++i;
  }
  EXPECT_LT(i + 2, code.size()) << "no `class Rng {` in " << file.rel;

  std::vector<std::string> unqualified;
  std::vector<const Token*> decl;  // One member declaration, body excluded.
  const auto has_paren = [&] {
    return std::any_of(decl.begin(), decl.end(), [&](const Token* t) { return text_is(t, "("); });
  };
  const auto finish = [&] {
    const auto open =
        std::find_if(decl.begin(), decl.end(), [&](const Token* t) { return text_is(t, "("); });
    if (open == decl.end() || open == decl.begin()) {
      decl.clear();
      return;  // A data member.
    }
    const std::string name = (*(open - 1))->text;
    const bool assignment = name == "=" && open - decl.begin() >= 2 &&
                            text_is(*(open - 2), "operator");
    const bool is_static = std::any_of(decl.begin(), open,
                                       [&](const Token* t) { return text_is(t, "static"); });
    auto close = open;
    for (int depth = 0; close != decl.end(); ++close) {
      depth += text_is(*close, "(") ? 1 : text_is(*close, ")") ? -1 : 0;
      if (depth == 0) break;
    }
    int ampersands = 0;
    bool is_const = false;
    for (auto q = close == decl.end() ? close : close + 1;
         q != decl.end() && !text_is(*q, "=") && !text_is(*q, "-"); ++q) {
      ampersands += text_is(*q, "&") ? 1 : 0;
      is_const = is_const || text_is(*q, "const");
    }
    if (name != "Rng" && !assignment && !is_static && !is_const) {
      checked->push_back(name);
      if (ampersands != 1) unqualified.push_back(name);
    }
    decl.clear();
  };
  int depth = 0;  // Parentheses, brackets and braced initializers.
  for (i += 3; i < code.size(); ++i) {
    const Token* t = code[i];
    if (depth == 0 && decl.empty() &&
        (text_is(t, "public") || text_is(t, "private") || text_is(t, "protected"))) {
      ++i;  // And its ':'.
      continue;
    }
    if (depth == 0 && text_is(t, "}")) break;  // The end of the class.
    if (depth == 0 && text_is(t, ";")) {
      finish();
      continue;
    }
    if (depth == 0 && text_is(t, "{") && has_paren()) {  // An inline body.
      for (int body = 1; body > 0 && ++i < code.size();) {
        body += text_is(code[i], "{") ? 1 : text_is(code[i], "}") ? -1 : 0;
      }
      finish();
      continue;
    }
    if (text_is(t, "(") || text_is(t, "[") || text_is(t, "{")) ++depth;
    if (text_is(t, ")") || text_is(t, "]") || text_is(t, "}")) --depth;
    decl.push_back(t);
  }
  return unqualified;
}

// Rng is move-only and lvalue-qualified so that a draw on a temporary fails
// to compile (src/common/rng.h). RngContract.* checks the members it names;
// this re-lexes the header so that a new member cannot slip past unqualified.
TEST(RealTree, RngStreamMembersAreLvalueQualified) {
  std::vector<std::string> checked;
  const std::vector<std::string> probe = UnqualifiedRngMembers(
      Lex("probe", "probe.h",
          "class Rng {\n public:\n  explicit Rng(int s);\n  ~Rng();\n"
          "  Rng& operator=(Rng&&) noexcept = default;\n  Rng Fork() &;\n"
          "  Rng ForkX();\n  double Peek() const;\n  static int Rotl(int x) { return x; }\n"
          "  uint64_t Draw() && { return 1; }\n private:\n  int state_[4];\n};\n"),
      &checked);
  EXPECT_EQ(probe, (std::vector<std::string>{"ForkX", "Draw"}));
  EXPECT_EQ(checked, (std::vector<std::string>{"Fork", "ForkX", "Draw"}));

  const std::string path = std::string(VARUNA_REPO_ROOT) + "/src/common/rng.h";
  checked.clear();
  const std::vector<std::string> unqualified =
      UnqualifiedRngMembers(Lex(path, "src/common/rng.h", ReadFileOrDie(path)), &checked);
  std::string names;
  for (const std::string& name : unqualified) names += " " + name;
  EXPECT_TRUE(unqualified.empty()) << "Rng members without the & ref-qualifier:" << names;
  for (const char* name : {"NextUint64", "Gaussian", "Fork", "GaussianPair"}) {
    EXPECT_NE(std::find(checked.begin(), checked.end(), name), checked.end())
        << name << " was not reached";
  }
}

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
