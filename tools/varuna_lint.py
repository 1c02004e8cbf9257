#!/usr/bin/env python3
"""varuna-lint: repo-specific static checks no generic tool knows about.

Rules (each can be suppressed on a line with `// varuna-lint: allow(<rule>)`):

  determinism     The DES contract (src/sim/engine.h) requires every stochastic
                  or temporal input to flow through the seeded varuna::Rng and
                  the simulated clock. Wall-clock reads and ambient RNGs
                  silently break bit-identical replay: rand(), srand(),
                  std::random_device, system_clock/steady_clock/
                  high_resolution_clock, gettimeofday(), time(), clock(),
                  <random> and <chrono> includes. Applies to src/, tests/ and
                  bench/ (the bench timing harness is the reviewed exception,
                  TIMING_ALLOW_FILES).

  check-macro     Use VARUNA_CHECK (src/common/check.h) instead of assert():
                  contract checks must stay on in release builds, and
                  CHECK failures print the violated expression with context.
                  static_assert is fine. Applies to src/, tests/ and bench/.

  include-guard   Header guards must be the path uppercased:
                  src/sim/engine.h -> SRC_SIM_ENGINE_H_.

  unit-suffix     Public headers in src/net and src/cluster must not take raw
                  `double` time/byte quantities without a unit suffix: names
                  that read as times end in `_s`, names that read as byte
                  counts end in `_bytes` (a bare `bytes` is already a unit).
                  Applies to parameters and struct/class members.

  threading       All parallelism inside src/ flows through the deterministic
                  fan-out/join pool in src/common/thread_pool.{h,cc}; ad-hoc
                  threads have no determinism contract and no TSan coverage.
                  Bans std::thread / std::jthread / std::async and the
                  <thread> / <future> includes everywhere in src/ except the
                  pool itself (std::mutex / std::condition_variable stay
                  allowed — locking is fine, spawning is not). Using the pool
                  is itself gated: deterministic fan-out requires
                  pure-function-of-index work items, so ThreadPool users are
                  an explicit reviewed allowlist (POOL_USER_FILES) — today the
                  config search, the elastic trainer, and the pooled
                  micro-batch trainers in src/train.

  hot-path        The per-event simulation hot path (src/sim/, the pipeline
                  executor, the checkpoint store, the Rng and the running
                  statistics) and the morph-decision sweep (src/morph/, the
                  schedule cache) must stay allocation-free in steady state:
                  node-based containers (std::map / std::unordered_map /
                  std::unordered_set / std::set) and std::function (heap
                  fallback above ~16 bytes of capture) are banned there — use
                  flat vectors, the SimEngine slot pool, open-addressing memo
                  tables, and SmallCallback (src/sim/callback.h). Deliberate
                  exceptions go on the reviewed HOT_PATH_ALLOW_FILES list
                  (empty today).

  tensor-by-value Passing varuna::Tensor by value copies the whole element
                  buffer — one stray signature silently reintroduces the
                  allocation the arena hot path exists to avoid. Function
                  parameters in src/ must take `const Tensor&` (inputs) or
                  `Tensor*` (explicit outputs, the *Into style).

  global-state    No process-global mutable state in src/: a `static` or
                  `thread_local` variable, function-local or at namespace or
                  class scope, must be const or constexpr, and so must every
                  variable defined at namespace scope (named or anonymous
                  namespace, or the file's top level), `static` or not.
                  Class-member and function-local variables without those
                  keywords are per object or per call. Mutable globals are
                  shared between every session, search and pool worker in the
                  process, so they race under the pool and leak history from
                  one run into the next. Static member functions and free
                  `static` functions are fine. The reviewed exceptions carry
                  an allow comment with their reason (today: the process-wide
                  schedule memo, the GEMM kernels' per-thread packing scratch
                  and the reference-kernel selector only tests and benches
                  set).

  stale-allowlist Every entry of POOL_USER_FILES, HOT_PATH_FILES,
                  HOT_PATH_ALLOW_FILES and TIMING_ALLOW_FILES must name an
                  existing file, so a deletion cannot leave a silent
                  exemption behind for the next file at that path. Checked on
                  every run, whatever paths are given.

Semantic hazards (stream forks, include layering) are the sibling C++
analyzer's job: tools/analyze (varuna_analyze). This file
stays line-oriented; its stripper is regression-tested by
tests/varuna_lint_test.py (ctest label `lint`).

Usage:
  tools/varuna_lint.py [paths...]     # default: src/ tests/ bench/
Exit status: 0 clean, 1 violations, 2 usage error.
"""

import os
import re
import sys

ALLOW_RE = re.compile(r"//\s*varuna-lint:\s*allow\(([a-z-]+)\)")

# --- determinism ------------------------------------------------------------

DETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall clock (std::chrono::*_clock)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"#\s*include\s*<random>"), "#include <random>"),
    (re.compile(r"#\s*include\s*<chrono>"), "#include <chrono>"),
]

# The determinism rule also covers tests/ and bench/ (a wall-clock read in a
# test can hide flaky behaviour exactly like it breaks replay in src/). The
# bench timing harness is the one reviewed exception: measuring wall time is
# its entire job, and nothing downstream of it feeds a simulation.
TIMING_ALLOW_FILES = ("bench/bench_util.h",)

# --- check-macro ------------------------------------------------------------

ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")

# --- threading --------------------------------------------------------------

THREADING_PATTERNS = [
    # `std::this_thread` is fine (the `thread\b` must follow `std::` directly).
    (re.compile(r"\bstd\s*::\s*(jthread|thread)\b"), "std::thread/std::jthread"),
    (re.compile(r"\bstd\s*::\s*async\b"), "std::async"),
    (re.compile(r"#\s*include\s*<thread>"), "#include <thread>"),
    (re.compile(r"#\s*include\s*<future>"), "#include <future>"),
]
# The one place allowed to create threads.
THREAD_POOL_FILES = ("src/common/thread_pool.h", "src/common/thread_pool.cc")

# Files allowed to *use* the pool. Deterministic fan-out requires
# pure-function-of-index work items with a fixed merge order, so every new
# user is a deliberate, reviewed addition to this list.
POOL_USER_FILES = THREAD_POOL_FILES + (
    "src/morph/config_search.h",        # parallel candidate evaluation
    "src/manager/elastic_trainer.h",    # morph planning off the step loop
    "src/manager/elastic_trainer.cc",
    "src/train/trainers.h",             # pooled micro-batch execution
    "src/train/trainers.cc",
    "src/varuna/varuna.h",              # umbrella header re-export
)
# The include path is a string literal, which strip_comments_and_strings
# empties — so the include pattern is matched against the string-preserving
# line instead (see lint_file).
POOL_INCLUDE_RE = re.compile(r'#\s*include\s*"src/common/thread_pool\.h"')
POOL_USE_RE = re.compile(r"\bThreadPool\b")

# --- hot-path ---------------------------------------------------------------

HOT_PATH_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*function\b"), "std::function"),
    (re.compile(r"\bstd\s*::\s*(unordered_map|unordered_set|map|set)\b"),
     "node-based std container"),
    (re.compile(r"#\s*include\s*<(map|set|unordered_map|unordered_set|functional)>"),
     "node-based/functional include"),
]
# The simulation hot path: every file under src/sim/, plus the executor, plus
# the morph-decision sweep (src/morph/ and the schedule cache it leans on) —
# the config search runs at every preemption/arrival event and its memo
# tables must stay flat (sorted vectors / open addressing, no node chasing).
# The checkpoint store joined the list when its record table went flat: its
# per-shard flush events and the latest-usable chain scans fire on the DES
# hot path during every storm. The Rng and the running statistics joined when
# their per-draw functions moved into the headers: every calibration sample,
# heartbeat and transfer jitter runs them inline.
HOT_PATH_PREFIXES = ("src/sim/", "src/morph/")
HOT_PATH_FILES = (
    "src/common/rng.h",
    "src/common/rng.cc",
    "src/common/stats.h",
    "src/common/stats.cc",
    "src/pipeline/executor.h",
    "src/pipeline/executor.cc",
    "src/pipeline/schedule_cache.h",
    "src/pipeline/schedule_cache.cc",
    "src/manager/checkpoint.h",
    "src/manager/checkpoint.cc",
)
# Explicit, reviewed exceptions: hot-path files that may still use a banned
# construct. Empty: every hot-path file keeps its tables flat.
HOT_PATH_ALLOW_FILES = ()

# --- global-state -----------------------------------------------------------

# A `static` / `thread_local` declaration; group 1 is the text after the
# keyword (`static_cast` / `static_assert` fail the trailing \b).
STATIC_DECL_RE = re.compile(r"\b(?:static|thread_local)\b(.*)")
# Lines a declaration may span before the rule gives up on classifying it.
STATIC_DECL_MAX_LINES = 4


def is_mutable_static_variable(declaration):
    """Classifies the text after a `static` / `thread_local` keyword: True for
    a mutable variable, False for a const/constexpr variable or a function,
    None when the text ends before the declaration can be told apart.

    At template depth 0, a `(` before any of `;`, `=`, `{` or `[` makes the
    declaration a function; otherwise it is a variable, mutable unless the
    qualifiers before its name include const or constexpr."""
    depth = 0
    top_level = []
    for c in declaration:
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            if c == "(":
                return False
            if c in ";={[":
                words = re.findall(r"\w+", "".join(top_level))
                return "const" not in words and "constexpr" not in words
            top_level.append(c)
    return None


# Words that open a namespace-scope statement declaring no variable.
NON_VARIABLE_WORDS = {"using", "typedef", "class", "struct", "union", "enum", "namespace",
                      "extern", "friend", "template", "static_assert"}


def strip_template_prefixes(statement):
    """Drops leading `template <...>` heads (nested angle brackets included)."""
    text = statement.lstrip()
    while re.match(r"template\s*<", text):
        depth = 0
        for i, c in enumerate(text):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    text = text[i + 1:].lstrip()
                    break
        else:
            return text
    return text


def bracket_skeleton(text):
    """The text with the contents of (), [] and <> removed, brackets kept:
    `void f(int x = 3) const` -> `void f() const`."""
    out = []
    depth = 0
    for c in text:
        if c in "([<":
            if depth == 0:
                out.append(c)
            depth += 1
        elif c in ")]>":
            depth = max(0, depth - 1)
            if depth == 0:
                out.append(c)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def namespace_brace_kind(statement):
    """Classifies a `{` met at namespace scope by the statement before it:
    "namespace" opens a namespace (or an extern "C" block, whose string the
    stripper has emptied), "init" a variable's brace initializer (the
    statement continues after the matching `}`), "block" anything else — a
    function, class or enum body, whose contents are not at namespace
    scope."""
    text = strip_template_prefixes(statement).strip()
    if re.match(r"(inline\s+)?namespace\b", text) or re.fullmatch(r'extern\s*""', text):
        return "namespace"
    skeleton = bracket_skeleton(text)
    if re.search(r"\boperator\b", text) or re.search(r"\b(class|struct|union|enum)\b", skeleton):
        return "block"
    if "=" in skeleton or ("(" not in skeleton and re.search(r"\w\s*$", skeleton)):
        return "init"
    return "block"


def is_mutable_namespace_variable(statement):
    """True when a complete namespace-scope statement (its `;` dropped)
    defines a mutable variable. `static` / `thread_local` declarations are
    left to the keyword check, so none is reported twice."""
    text = strip_template_prefixes(statement).strip()
    words = re.findall(r"\w+", text)
    if not words or words[0] in NON_VARIABLE_WORDS \
            or "static" in words or "thread_local" in words:
        return False
    return bool(is_mutable_static_variable(text + ";"))


class NamespaceScope:
    """Follows a file's braces across lines and collects the statements that
    sit directly at namespace scope. Preprocessor directives (with their
    backslash continuations) are skipped."""

    def __init__(self):
        self.stack = []  # One kind per open brace (see namespace_brace_kind).
        self.text = ""
        self.start = 0
        self.directive = False

    def at_scope(self):
        return not self.stack or self.stack[-1] == "namespace"

    def feed(self, number, code, raw):
        """Consumes one stripped line; returns the (first line, text) of every
        namespace-scope statement it completes."""
        if self.directive or code.lstrip().startswith("#"):
            self.directive = raw.endswith("\\")
            return []
        done = []
        for c in code:
            if c == "{":
                kind = namespace_brace_kind(self.text) if self.at_scope() else "block"
                if kind != "init" and self.at_scope():
                    self.text = ""
                self.stack.append(kind)
            elif c == "}":
                kind = self.stack.pop() if self.stack else "namespace"
                if kind == "init":
                    self.text += "{}"
                elif self.at_scope():
                    self.text = ""
            elif self.at_scope():
                if c == ";":
                    if self.text.strip():
                        done.append((self.start, self.text))
                    self.text = ""
                    continue
                if not self.text.strip() and not c.isspace():
                    self.start = number
                self.text += c
        if self.at_scope():
            self.text += " "
        return done


# --- stale-allowlist --------------------------------------------------------

# Every reviewed exemption must name a file that exists. Deleting a file must
# delete its entry too, or a future file at the same path inherits the
# exemption without review.
ALLOWLISTS = {
    "POOL_USER_FILES": POOL_USER_FILES,
    "HOT_PATH_FILES": HOT_PATH_FILES,
    "HOT_PATH_ALLOW_FILES": HOT_PATH_ALLOW_FILES,
    "TIMING_ALLOW_FILES": TIMING_ALLOW_FILES,
}

# --- tensor-by-value --------------------------------------------------------

# `Tensor <name>` followed by `,` or `)` is a by-value parameter; references,
# pointers, return types (`Tensor Foo(`), members (`Tensor x_;`) and
# template arguments (`vector<Tensor>`) all fail the match.
TENSOR_BY_VALUE_RE = re.compile(r"\bTensor\s+[A-Za-z_]\w*\s*[,)]")

# --- unit-suffix ------------------------------------------------------------

# `double <name>` in a declaration context (parameter list or member).
DOUBLE_DECL_RE = re.compile(r"\bdouble\s+([A-Za-z_]\w*)\s*[,)=;{]")
TIME_WORDS = re.compile(
    r"(^|_)(time|latency|delay|timeout|interval|duration|deadline|period|stall|horizon)(_|$)")
BYTE_WORDS = re.compile(r"(^|_)(bytes?|payload)(_|$)")
# Accepted unit suffixes for time-like and byte-like quantities (private
# members carry a trailing underscore after the unit).
TIME_OK = re.compile(r"(_s|_per_s)_?$")
BYTE_OK = re.compile(r"(_bytes|_bytes_per_s|_bps)_?$")
# Dimensionless quantities that merely mention a time/byte word
# (stall_probability, preemption_hazard_fraction, ...).
DIMENSIONLESS = re.compile(r"(probability|prob|ratio|fraction|factor|sigma|count|slots?)$")


def fresh_strip_state():
    """Cross-line lexing state for strip_comments_and_strings: block comments,
    raw strings, backslash-continued ordinary literals and // comments."""
    return {"block": False, "raw": None, "quote": None, "line_comment": False}


def _opens_raw_string(line, i):
    """True when the quote at line[i] opens a raw string literal (R"...",
    including the u8R/uR/UR/LR encoding prefixes)."""
    for prefix in ("u8R", "uR", "UR", "LR", "R"):
        start = i - len(prefix)
        if start < 0 or line[start:i] != prefix:
            continue
        before = line[start - 1] if start > 0 else ""
        if not (before.isalnum() or before == "_"):
            return True
    return False


def strip_comments_and_strings(line, state=None):
    """Removes comments and the contents of string/char literals, keeping the
    line length stable enough for human-readable reporting.

    Handles raw string literals (R"delim(...)delim", any encoding prefix) and
    escaped quotes/backslashes correctly; pass the same `state` dict (from
    fresh_strip_state()) across consecutive lines of a file and multi-line
    constructs — block comments, raw strings, literals and // comments
    continued with a trailing backslash — are carried over instead of leaking
    their contents into the "code" the rules match against."""
    if state is None:
        state = fresh_strip_state()
    out = []
    i = 0
    n = len(line)
    if state["line_comment"]:
        state["line_comment"] = line.endswith("\\")
        return ""
    while i < n:
        if state["block"]:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out)
            state["block"] = False
            i = end + 2
            continue
        if state["raw"] is not None:
            close = ")" + state["raw"] + '"'
            end = line.find(close, i)
            if end < 0:
                return "".join(out)
            out.append('"')
            state["raw"] = None
            i = end + len(close)
            continue
        if state["quote"] is not None:
            quote = state["quote"]
            state["quote"] = None
            closed = False
            while i < n:
                if line[i] == "\\":
                    if i + 1 >= n:  # escaped newline: literal continues
                        state["quote"] = quote
                        return "".join(out)
                    i += 2
                    continue
                if line[i] == quote:
                    closed = True
                    out.append(quote)
                    i += 1
                    break
                i += 1
            if not closed and i >= n:
                return "".join(out)
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            state["line_comment"] = line.endswith("\\")
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            state["block"] = True
            i += 2
            continue
        if c == '"' and _opens_raw_string(line, i):
            paren = line.find("(", i + 1)
            if paren >= 0:
                out.append('"')
                state["raw"] = line[i + 1:paren]
                i = paren + 1
                continue
            # Malformed raw string; fall through and treat as ordinary.
        if c in "\"'":
            out.append(c)
            state["quote"] = c
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, repo_root):
        self.repo_root = repo_root
        self.violations = []

    def report(self, path, line_number, rule, message):
        rel = os.path.relpath(path, self.repo_root)
        self.violations.append(f"{rel}:{line_number}: [{rule}] {message}")

    def check_allowlists(self, allowlists=None):
        """Reports every allowlist entry that names a missing file."""
        for name, entries in (allowlists or ALLOWLISTS).items():
            for rel in entries:
                if not os.path.isfile(os.path.join(self.repo_root, rel)):
                    self.report(os.path.abspath(__file__), 0, "stale-allowlist",
                                f"{name} names missing file {rel}; delete the entry")

    def lint_file(self, path):
        rel = os.path.relpath(path, self.repo_root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8") as f:
                raw_lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as error:
            self.report(path, 0, "io", f"unreadable: {error}")
            return

        in_src = rel.startswith("src/")
        # The determinism and check-macro contracts extend to the test and
        # bench trees: a wall-clock read in a test harness hides flakiness the
        # same way it breaks replay in src/. The bench timing harness is the
        # one reviewed exception (TIMING_ALLOW_FILES).
        in_checked = rel.startswith(("src/", "tests/", "bench/"))
        determinism_scoped = in_checked and rel not in TIMING_ALLOW_FILES
        unit_scoped = rel.startswith(("src/net/", "src/cluster/")) and rel.endswith(".h")

        state = fresh_strip_state()
        # An open `static` declaration: (line number, text so far, allowed).
        static_decl = None
        namespace_scope = NamespaceScope()
        allowed_by_line = {}
        for number, raw in enumerate(raw_lines, start=1):
            allowed = set(ALLOW_RE.findall(raw))
            # A line opened inside a multi-line construct (block comment, raw
            # string, continued literal) is not code for the raw-line checks.
            carried_over = (state["block"] or state["raw"] is not None
                            or state["quote"] is not None or state["line_comment"])
            line = "" if carried_over else raw
            code = strip_comments_and_strings(raw, state)

            if determinism_scoped and "determinism" not in allowed:
                for pattern, what in DETERMINISM_PATTERNS:
                    if pattern.search(code):
                        self.report(path, number, "determinism",
                                    f"{what} breaks the SimEngine determinism contract; "
                                    "route randomness through varuna::Rng and time through "
                                    "SimEngine::now()")
            if in_checked and "check-macro" not in allowed:
                if ASSERT_RE.search(code) and "static_assert" not in code:
                    self.report(path, number, "check-macro",
                                "use VARUNA_CHECK (src/common/check.h) instead of assert()")
            if in_src and rel not in THREAD_POOL_FILES and "threading" not in allowed:
                for pattern, what in THREADING_PATTERNS:
                    if pattern.search(code):
                        self.report(path, number, "threading",
                                    f"{what}: spawn work through the deterministic pool "
                                    "in src/common/thread_pool.h, not ad-hoc threads")
            if in_src and rel not in POOL_USER_FILES and "threading" not in allowed:
                if POOL_USE_RE.search(code) or POOL_INCLUDE_RE.search(line.split("//", 1)[0]):
                    self.report(path, number, "threading",
                                "ThreadPool use outside the reviewed allowlist; pooled "
                                "work items must be pure functions of their index — add "
                                "the file to POOL_USER_FILES deliberately")
            hot_path = (rel.startswith(HOT_PATH_PREFIXES) or rel in HOT_PATH_FILES) \
                and rel not in HOT_PATH_ALLOW_FILES
            if hot_path and "hot-path" not in allowed:
                for pattern, what in HOT_PATH_PATTERNS:
                    if pattern.search(code):
                        self.report(path, number, "hot-path",
                                    f"{what} in a simulation hot-path file; use flat "
                                    "vectors / the SimEngine slot pool / SmallCallback "
                                    "(src/sim/callback.h), or add the file to "
                                    "HOT_PATH_ALLOW_FILES deliberately")
            if in_src:
                match = STATIC_DECL_RE.search(code)
                if match:
                    static_decl = (number, match.group(1), "global-state" in allowed)
                elif static_decl is not None:
                    static_decl = (static_decl[0], static_decl[1] + " " + code, static_decl[2])
                if static_decl is not None:
                    start, declaration, exempt = static_decl
                    verdict = is_mutable_static_variable(declaration)
                    if verdict and not exempt:
                        self.report(path, start, "global-state",
                                    "mutable static/thread_local variable is process-global "
                                    "state; make it const/constexpr, pass the state in "
                                    "explicitly, or justify it with an allow comment")
                    if verdict is not None or number - start + 1 >= STATIC_DECL_MAX_LINES:
                        static_decl = None
                allowed_by_line[number] = allowed
                for start, statement in namespace_scope.feed(number, code, raw):
                    if ("global-state" not in allowed_by_line[start]
                            and is_mutable_namespace_variable(statement)):
                        self.report(path, start, "global-state",
                                    "mutable variable at namespace scope is process-global "
                                    "state; make it const/constexpr, pass the state in "
                                    "explicitly, or justify it with an allow comment")
            if in_src and "tensor-by-value" not in allowed:
                if TENSOR_BY_VALUE_RE.search(code):
                    self.report(path, number, "tensor-by-value",
                                "by-value Tensor parameter copies the element buffer; "
                                "take const Tensor& (input) or Tensor* (output)")
            if unit_scoped and "unit-suffix" not in allowed:
                for match in DOUBLE_DECL_RE.finditer(code):
                    name = match.group(1)
                    if DIMENSIONLESS.search(name):
                        continue
                    if TIME_WORDS.search(name) and not TIME_OK.search(name):
                        self.report(path, number, "unit-suffix",
                                    f"double '{name}' reads as a time; suffix it with _s")
                    elif (BYTE_WORDS.search(name) and name != "bytes"
                          and not BYTE_OK.search(name)):
                        self.report(path, number, "unit-suffix",
                                    f"double '{name}' reads as a byte count; "
                                    "suffix it with _bytes")

        if rel.endswith(".h"):
            self.check_include_guard(path, rel, raw_lines)

    def check_include_guard(self, path, rel, raw_lines):
        expected = rel.upper().replace("/", "_").replace(".", "_").replace("-", "_") + "_"
        ifndef = define = None
        ifndef_line = 0
        for number, line in enumerate(raw_lines, start=1):
            if "varuna-lint: allow(include-guard)" in line:
                return
            m = re.match(r"\s*#\s*ifndef\s+(\w+)", line)
            if m and ifndef is None:
                ifndef, ifndef_line = m.group(1), number
                continue
            m = re.match(r"\s*#\s*define\s+(\w+)", line)
            if m and ifndef is not None and define is None:
                define = m.group(1)
                break
        if ifndef is None or define is None:
            self.report(path, 1, "include-guard", f"missing include guard {expected}")
        elif ifndef != expected or define != expected:
            self.report(path, ifndef_line, "include-guard",
                        f"guard is {ifndef}, want {expected}")


def iter_files(paths):
    extensions = (".h", ".cc", ".cpp")
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            # Never descend into build trees or VCS metadata; the analyzer
            # fixtures are deliberately-defective *data* for varuna_analyze,
            # not code.
            dirnames[:] = [d for d in dirnames
                           if not d.startswith("build") and d != ".git"
                           and d != "analyze_fixtures"]
            for name in sorted(filenames):
                if name.endswith(extensions):
                    yield os.path.join(dirpath, name)


def main(argv):
    repo_root = os.path.dirname(os.path.abspath(os.path.dirname(__file__)))
    paths = argv[1:] or [os.path.join(repo_root, d) for d in ("src", "tests", "bench")]
    for path in paths:
        if not os.path.exists(path):
            print(f"varuna-lint: no such path: {path}", file=sys.stderr)
            return 2
    linter = Linter(repo_root)
    linter.check_allowlists()
    count = 0
    for file_path in iter_files(paths):
        count += 1
        linter.lint_file(file_path)
    if linter.violations:
        for violation in linter.violations:
            print(violation)
        print(f"varuna-lint: {len(linter.violations)} violation(s) in {count} file(s)")
        return 1
    print(f"varuna-lint: {count} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
