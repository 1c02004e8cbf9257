#!/usr/bin/env python3
"""Regression tests for tools/varuna_lint.py, focused on the stripper blind
spots this file exists to pin down: raw string literals, escaped quotes and
backslash continuations at end-of-line, and block comments — none of which a
naive per-line scan handles — plus the global-state rule's declaration
classifier and the stale-allowlist check. Invoked from ctest (label `lint`)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
import varuna_lint  # noqa: E402

strip = varuna_lint.strip_comments_and_strings
fresh = varuna_lint.fresh_strip_state


def strip_lines(lines):
    """Strips a whole file's lines with shared cross-line state."""
    state = fresh()
    return [strip(line, state) for line in lines]


class StripTest(unittest.TestCase):
    def test_plain_string_and_line_comment(self):
        self.assertEqual(strip('x = "rand()"; // rand()'), 'x = ""; ')

    def test_escaped_quote_inside_string(self):
        self.assertEqual(strip(r'f("say \"rand()\" now"); g();'), 'f(""); g();')

    def test_double_backslash_then_close_quote(self):
        # The \\ pair must not swallow the closing quote: g() is real code.
        self.assertEqual(strip(r'f("tail\\"); g();'), 'f(""); g();')

    def test_raw_string_on_one_line(self):
        self.assertEqual(strip('s = R"(std::random_device "x" rand())"; h();'),
                         's = R""; h();')

    def test_raw_string_custom_delimiter(self):
        # The )" inside the body does not close a )delim"-delimited literal.
        self.assertEqual(strip('s = R"doc(a )" rand() b)doc"; h();'), 's = R""; h();')

    def test_raw_string_prefixes(self):
        for prefix in ("u8R", "uR", "UR", "LR"):
            self.assertEqual(strip('s = %s"(rand())"; h();' % prefix),
                             's = %s""; h();' % prefix)

    def test_identifier_ending_in_r_is_not_raw_prefix(self):
        # `matcher"..."` (a UDL-ish token) must not trigger raw-string parsing.
        self.assertEqual(strip('auto x = matcher"(abc)"; rand();'),
                         'auto x = matcher""; rand();')

    def test_raw_string_spanning_lines(self):
        code = strip_lines(['s = R"(first rand()',
                            'std::random_device mid',
                            ')" ; tail();'])
        self.assertEqual(code[0], 's = R"')
        self.assertEqual(code[1], '')
        self.assertEqual(code[2], '" ; tail();')

    def test_string_continued_with_backslash_newline(self):
        # The second physical line is still inside the literal: its text must
        # not surface as code, and the code after the close quote must.
        code = strip_lines(['s = "begin \\', 'std::random_device end"; tail();'])
        self.assertEqual(code[0], 's = "')
        self.assertEqual(code[1], '"; tail();')

    def test_line_comment_continued_with_backslash(self):
        code = strip_lines(['// comment continues \\', 'rand(); still comment \\',
                            'rand(); also comment', 'real();'])
        self.assertEqual(code[1], '')
        self.assertEqual(code[2], '')
        self.assertEqual(code[3], 'real();')

    def test_block_comment_spanning_lines(self):
        code = strip_lines(['a(); /* rand()', 'std::random_device', '*/ b();'])
        self.assertEqual(code[0], 'a(); ')
        self.assertEqual(code[1], '')
        self.assertEqual(code[2], ' b();')

    def test_block_comment_marker_inside_string(self):
        # A /* inside a string literal must not open a comment.
        code = strip_lines(['s = "/*"; a();', 'b();'])
        self.assertEqual(code[0], 's = ""; a();')
        self.assertEqual(code[1], 'b();')

    def test_char_literal(self):
        self.assertEqual(strip("c = '\\''; d();"), "c = ''; d();")


class LintFileTest(unittest.TestCase):
    """End-to-end: the determinism rule over files exercising the stripper."""

    def lint(self, name, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            linter = varuna_lint.Linter(tmp)
            linter.lint_file(path)
            return linter.violations

    def test_raw_string_hazard_text_is_not_a_violation(self):
        violations = self.lint("src/x.cc", '\n'.join([
            'const char* kDoc = R"doc(',
            '  std::random_device rd;',
            '  srand(42); time(NULL);',
            '  #include <chrono>',
            ')doc";',
            '']))
        self.assertEqual(violations, [])

    def test_continued_string_hazard_text_is_not_a_violation(self):
        violations = self.lint("src/x.cc", '\n'.join([
            'const char* s = "part one \\',
            'std::random_device part two";',
            '']))
        self.assertEqual(violations, [])

    def test_real_violation_after_raw_string_is_still_caught(self):
        violations = self.lint("src/x.cc", '\n'.join([
            'const char* kDoc = R"(text)";',
            'const int x = rand();',
            '']))
        self.assertEqual(len(violations), 1)
        self.assertIn("determinism", violations[0])
        self.assertIn(":2:", violations[0])

    def test_determinism_rule_covers_tests_and_bench(self):
        for rel in ("tests/t.cc", "bench/b.cc"):
            violations = self.lint(rel, "#include <chrono>\n")
            self.assertEqual(len(violations), 1, rel)
            self.assertIn("determinism", violations[0])

    def test_bench_util_timing_allowlist(self):
        self.assertIn("bench/bench_util.h", varuna_lint.TIMING_ALLOW_FILES)

    def test_check_macro_rule_covers_tests(self):
        violations = self.lint("tests/t.cc", "void f() { assert(1 == 1); }\n")
        self.assertEqual(len(violations), 1)
        self.assertIn("check-macro", violations[0])


class GlobalStateTest(unittest.TestCase):
    """The global-state rule: mutable static/thread_local variables, and
    mutable variables at namespace scope, in src/."""

    lint = LintFileTest.lint

    def rule_hits(self, text, rel="src/x.cc"):
        return [v for v in self.lint(rel, text) if "[global-state]" in v]

    def test_function_local_static_map_is_flagged(self):
        violations = self.rule_hits('\n'.join([
            'const Schedule& Get(int key) {',
            '  static std::map<std::tuple<int, int>, Schedule> cache;',
            '  return cache[key];',
            '}',
            '']))
        self.assertEqual(len(violations), 1)
        self.assertIn(":2:", violations[0])

    def test_namespace_scope_and_thread_local_are_flagged(self):
        violations = self.rule_hits('\n'.join([
            'static int g_calls = 0;',
            'thread_local std::vector<float> scratch;',
            'static std::vector<int>',
            '    g_table{1, 2};',
            '']))
        self.assertEqual([v.split(": ")[0] for v in violations],
                         ["src/x.cc:1", "src/x.cc:2", "src/x.cc:3"])

    def test_const_constexpr_and_functions_are_clean(self):
        self.assertEqual(self.rule_hits('\n'.join([
            'static const int kLimit = 4;',
            'static constexpr double kScale = 0.5;',
            'static const std::map<int, int> kNames = {};',
            'static bool Eq(const Key& a, uint32_t size,',
            '               int rings);',
            'class C {',
            '  static std::vector<std::unique_ptr<C>> Split(std::unique_ptr<C> c);',
            '  static C& Process();',
            '};',
            'const int x = static_cast<int>(y); static_assert(sizeof(int) == 4);',
            '// static int in_a_comment = 0;',
            '']), rel="src/x.h"), [])

    def test_allow_comment_is_honoured(self):
        self.assertEqual(self.rule_hits('\n'.join([
            'C& C::Process() {',
            '  static C instance;  // varuna-lint: allow(global-state)',
            '  return instance;',
            '}',
            ''])), [])

    def test_mutable_namespace_scope_variables_are_flagged(self):
        violations = self.rule_hits('\n'.join([
            'int g_calls;',
            'namespace varuna {',
            'namespace {',
            'GemmKernel g_gemm_kernel = GemmKernel::kBlocked;',
            'std::vector<int> g_table{1, 2};',
            'std::map<int, int>',
            '    g_names = {{1, 2}};',
            '}  // namespace',
            'int Counter::count_ = 0;',
            'inline std::string g_label = "x";',
            '}  // namespace varuna',
            '']))
        self.assertEqual([v.split(": ")[0] for v in violations],
                         ["src/x.cc:1", "src/x.cc:4", "src/x.cc:5", "src/x.cc:6",
                          "src/x.cc:9", "src/x.cc:10"])

    def test_namespace_scope_non_variables_are_clean(self):
        self.assertEqual(self.rule_hits('\n'.join([
            '#define DECLARE(name) \\',
            '  int name;',
            'namespace varuna {',
            'namespace fs = std::filesystem;',
            'using Table = std::vector<int>;',
            'typedef float v8sf __attribute__((vector_size(32)));',
            'class Forward;',
            'extern int g_declared;',
            'const int kA = 1;',
            'constexpr double kB = 2.0;',
            'inline constexpr int kC = 3;',
            'const std::vector<int> kD{1, 2};',
            'const auto kSquare = [](int x) { int y = x * x; return y; };',
            'enum class Kind : uint8_t { kA, kB };',
            'template <typename T = int>',
            'T Max(T a, T b);',
            'struct Point {',
            '  int x = 0;',
            '  std::vector<int> items;',
            '};',
            'class C {',
            ' public:',
            '  C() : a_{1}, b_(2) {}',
            '  C& operator=(const C& other) { a_ = other.a_; return *this; }',
            ' private:',
            '  int a_ = 0;',
            '  int b_;',
            '};',
            'int Sum(int n = 3) {',
            '  int total = 0;',
            '  for (int i = 0; i < n; ++i) { total += i; }',
            '  return total;',
            '}',
            'Point::Point() : x{1} {}',
            'const int kAfterConstructor = 4;',
            'extern "C" {',
            'int c_api(int x);',
            '}',
            '}  // namespace varuna',
            '']), rel="src/x.h"), [])

    def test_namespace_scope_allow_comment_is_honoured(self):
        self.assertEqual(self.rule_hits('\n'.join([
            'namespace {',
            'GemmKernel g_kernel = GemmKernel::kBlocked;  // varuna-lint: allow(global-state)',
            '}  // namespace',
            ''])), [])

    def test_rule_covers_src_only(self):
        self.assertEqual(self.rule_hits("static int calls = 0;\nint count = 0;\n",
                                        rel="tests/t.cc"), [])


class AllowlistTest(unittest.TestCase):
    """Allowlist entries must name files that exist."""

    def check(self, repo_root, allowlists=None):
        linter = varuna_lint.Linter(repo_root)
        linter.check_allowlists(allowlists)
        return linter.violations

    def test_repo_allowlists_name_existing_files(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.assertEqual(self.check(repo_root), [])

    def test_missing_file_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            with open(os.path.join(tmp, "src", "kept.cc"), "w", encoding="utf-8"):
                pass
            violations = self.check(tmp, {"HOT_PATH_FILES": ("src/kept.cc", "src/gone.cc")})
        self.assertEqual(len(violations), 1)
        self.assertIn("[stale-allowlist]", violations[0])
        self.assertIn("HOT_PATH_FILES names missing file src/gone.cc", violations[0])

    def test_every_allowlist_is_checked(self):
        self.assertEqual(set(varuna_lint.ALLOWLISTS),
                         {"POOL_USER_FILES", "HOT_PATH_FILES", "HOT_PATH_ALLOW_FILES",
                          "TIMING_ALLOW_FILES"})
        with tempfile.TemporaryDirectory() as tmp:
            violations = self.check(tmp)
        entries = sum(len(entries) for entries in varuna_lint.ALLOWLISTS.values())
        self.assertEqual(len(violations), entries)


if __name__ == "__main__":
    unittest.main()
