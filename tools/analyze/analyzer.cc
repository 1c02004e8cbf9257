#include "tools/analyze/analyzer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <set>
#include <sstream>

namespace varuna {
namespace analyze {
namespace {

// Comments indexed by physical line, for suppression lookups.
class SuppressionIndex {
 public:
  explicit SuppressionIndex(const LexedFile& file) {
    for (const Token& token : file.tokens) {
      if (token.kind == TokKind::kComment) comments_[token.line].push_back(&token.text);
    }
  }

  bool Allows(int line, const std::string& rule) const {
    auto it = comments_.find(line);
    if (it == comments_.end()) return false;
    for (const std::string* text : it->second) {
      if (CommentAllows(*text, rule)) return true;
    }
    return false;
  }

 private:
  std::map<int, std::vector<const std::string*>> comments_;
};

// The token stream with comments filtered out (suppressions are read from
// the full stream separately).
std::vector<const Token*> CodeTokens(const LexedFile& file) {
  std::vector<const Token*> code;
  code.reserve(file.tokens.size());
  for (const Token& token : file.tokens) {
    if (token.kind != TokKind::kComment) code.push_back(&token);
  }
  return code;
}

// Both accept nullptr (a lookup past either end of the stream; see At).
bool IsPunct(const Token* t, const char* text) {
  return t != nullptr && t->kind == TokKind::kPunct && t->text == text;
}
bool IsIdent(const Token* t, const char* text) {
  return t != nullptr && t->kind == TokKind::kIdent && t->text == text;
}
bool IsAnyIdent(const Token* t) { return t != nullptr && t->kind == TokKind::kIdent; }

// code[i], or nullptr past either end (i - 1 at i = 0 wraps past the far end).
const Token* At(const std::vector<const Token*>& code, size_t i) {
  return i < code.size() ? code[i] : nullptr;
}

// Finds the index of the matching close for the open bracket at `open`
// (code[open] must be "(" or "{"). Returns code.size() when unterminated.
size_t MatchForward(const std::vector<const Token*>& code, size_t open, const char* open_text,
                    const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code[i], open_text)) ++depth;
    if (IsPunct(code[i], close_text) && --depth == 0) return i;
  }
  return code.size();
}

void Report(std::vector<Finding>* findings, const std::string& rel, int line,
            const std::string& rule, const std::string& message) {
  findings->push_back(Finding{rel, line, rule, message});
}

// ---------------------------------------------------------------------------
// Pass 1: include graph
// ---------------------------------------------------------------------------

struct IncludeEdge {
  size_t file_index;
  int line;
  std::string target;  // repo-relative, e.g. "src/manager/elastic_trainer.h"
};

std::vector<IncludeEdge> ExtractIncludes(const std::vector<LexedFile>& files) {
  std::vector<IncludeEdge> edges;
  for (size_t f = 0; f < files.size(); ++f) {
    const std::vector<const Token*> code = CodeTokens(files[f]);
    for (size_t i = 0; i + 2 < code.size(); ++i) {
      if (!IsPunct(code[i], "#") || !IsIdent(code[i + 1], "include")) continue;
      const Token* target = code[i + 2];
      if (target->kind != TokKind::kString || target->text.size() < 2) continue;
      std::string path = target->text.substr(1, target->text.size() - 2);
      if (path.rfind("src/", 0) != 0) continue;
      edges.push_back(IncludeEdge{f, target->line, std::move(path)});
    }
  }
  return edges;
}

void CheckCycles(const std::vector<LexedFile>& files, const std::vector<IncludeEdge>& edges,
                 const std::vector<SuppressionIndex>& suppressions,
                 std::vector<Finding>* findings) {
  // File-level graph over repo-relative paths. Targets outside the analyzed
  // set become leaf nodes.
  std::map<std::string, std::vector<const IncludeEdge*>> graph;
  for (const IncludeEdge& edge : edges) {
    if (suppressions[edge.file_index].Allows(edge.line, "include-cycle")) continue;
    graph[files[edge.file_index].rel].push_back(&edge);
  }
  // Iterative DFS with tri-state marks; reports each back-edge once.
  std::map<std::string, int> state;  // 0 unseen / 1 on stack / 2 done
  std::vector<std::string> stack;
  struct Frame {
    std::string node;
    size_t next = 0;
  };
  for (const auto& [start, unused] : graph) {
    (void)unused;
    if (state[start] != 0) continue;
    std::vector<Frame> frames{{start, 0}};
    state[start] = 1;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto it = graph.find(frame.node);
      const size_t degree = it == graph.end() ? 0 : it->second.size();
      if (frame.next >= degree) {
        state[frame.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const IncludeEdge* edge = it->second[frame.next++];
      const int mark = state[edge->target];
      if (mark == 1) {
        std::ostringstream path;
        const auto at = std::find(stack.begin(), stack.end(), edge->target);
        for (auto p = at; p != stack.end(); ++p) path << *p << " -> ";
        path << edge->target;
        Report(findings, files[edge->file_index].rel, edge->line, "include-cycle",
               "include cycle: " + path.str());
      } else if (mark == 0) {
        state[edge->target] = 1;
        stack.push_back(edge->target);
        frames.push_back(Frame{edge->target, 0});
      }
    }
  }
}

}  // namespace

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.rel << ":" << finding.line << ": [" << finding.rule << "] " << finding.message;
  return out.str();
}

bool ParseLayeringSpec(const std::string& text, LayeringSpec* spec, std::string* error) {
  spec->layers.clear();
  spec->layer_of.clear();
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::vector<std::string> layer;
    std::string module;
    while (words >> module) {
      if (spec->layer_of.count(module) != 0) {
        *error = "layering spec: module '" + module + "' listed twice";
        return false;
      }
      spec->layer_of[module] = static_cast<int>(spec->layers.size());
      layer.push_back(module);
    }
    if (!layer.empty()) spec->layers.push_back(std::move(layer));
  }
  if (spec->layers.empty()) {
    *error = "layering spec: no layers defined";
    return false;
  }
  return true;
}

std::string ModuleOf(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

void CheckIncludeGraph(const std::vector<LexedFile>& files, const LayeringSpec& spec,
                       std::vector<Finding>* findings) {
  std::vector<SuppressionIndex> suppressions;
  suppressions.reserve(files.size());
  for (const LexedFile& file : files) suppressions.emplace_back(file);

  const std::vector<IncludeEdge> edges = ExtractIncludes(files);
  std::set<std::string> unlisted_reported;
  for (const IncludeEdge& edge : edges) {
    const LexedFile& file = files[edge.file_index];
    if (suppressions[edge.file_index].Allows(edge.line, "layering")) continue;
    const std::string from = ModuleOf(file.rel);
    const std::string to = ModuleOf(edge.target);
    if (from.empty() || to.empty() || from == to) continue;
    const auto from_it = spec.layer_of.find(from);
    const auto to_it = spec.layer_of.find(to);
    if (from_it == spec.layer_of.end()) {
      if (unlisted_reported.insert(from).second) {
        Report(findings, file.rel, edge.line, "layering",
               "module 'src/" + from + "' is not in the layering spec; add it to "
               "tools/analyze/layering.txt deliberately");
      }
      continue;
    }
    if (to_it == spec.layer_of.end()) {
      if (unlisted_reported.insert(to).second) {
        Report(findings, file.rel, edge.line, "layering",
               "included module 'src/" + to + "' is not in the layering spec; add it to "
               "tools/analyze/layering.txt deliberately");
      }
      continue;
    }
    if (to_it->second >= from_it->second) {
      std::ostringstream msg;
      msg << "layering violation: src/" << from << " (layer " << from_it->second
          << ") must not include src/" << to << " (layer " << to_it->second
          << "); only strictly lower layers are visible";
      Report(findings, file.rel, edge.line, "layering", msg.str());
    }
  }
  CheckCycles(files, edges, suppressions, findings);
}

// ---------------------------------------------------------------------------
// Pass 2: house rules
// ---------------------------------------------------------------------------

namespace {

// The one place allowed to create threads.
constexpr std::array<std::string_view, 2> kThreadPoolFiles = {"src/common/thread_pool.h",
                                                               "src/common/thread_pool.cc"};
// Files allowed to use the pool. Deterministic fan-out requires
// pure-function-of-index work items with a fixed merge order, so every new
// user is a deliberate, reviewed addition, and an entry whose file no longer
// uses the pool is stale (CheckAllowlists).
constexpr std::array<std::string_view, 5> kPoolUserFiles = {
    "src/common/thread_pool.h",
    "src/common/thread_pool.cc",
    "src/train/trainers.h",  // pooled micro-batch execution
    "src/train/trainers.cc",
    "src/varuna/varuna.h",  // umbrella header re-export
};
// The hot path beyond src/sim/ (the per-event DES) and src/morph/ (the
// morph-decision sweep): the executor, the schedule generators, validator and
// cache (every sweep miss runs all three), the checkpoint store (its flush
// events and chain scans fire during every storm), the network cost model and
// topology (the executor prices every message and every allreduce ring
// through them), and the Rng and running statistics, whose per-draw code is
// inline.
constexpr std::array<std::string_view, 18> kHotPathFiles = {
    "src/common/rng.h",              "src/common/rng.cc",
    "src/common/stats.h",            "src/common/stats.cc",
    "src/pipeline/executor.h",       "src/pipeline/executor.cc",
    "src/pipeline/schedule.h",       "src/pipeline/schedule.cc",
    "src/pipeline/validate.h",       "src/pipeline/validate.cc",
    "src/pipeline/schedule_cache.h", "src/pipeline/schedule_cache.cc",
    "src/manager/checkpoint.h",      "src/manager/checkpoint.cc",
    "src/net/network.h",             "src/net/network.cc",
    "src/net/topology.h",            "src/net/topology.cc"};
// Hot-path files that may still use a banned construct. Empty: every
// hot-path file keeps its tables flat.
constexpr std::array<std::string_view, 0> kHotPathAllowFiles = {};
// Measuring wall time is the bench timing harness's whole job, and nothing
// downstream of it feeds a simulation.
constexpr std::array<std::string_view, 1> kTimingAllowFiles = {"bench/bench_util.h"};

constexpr std::array<Allowlist, 4> kAllowlists = {{
    {"kPoolUserFiles", kPoolUserFiles},
    {"kHotPathFiles", kHotPathFiles},
    {"kHotPathAllowFiles", kHotPathAllowFiles},
    {"kTimingAllowFiles", kTimingAllowFiles},
}};

bool Listed(std::span<const std::string_view> list, std::string_view rel) {
  return std::find(list.begin(), list.end(), rel) != list.end();
}

bool OneOf(std::string_view text, std::initializer_list<std::string_view> options) {
  return std::find(options.begin(), options.end(), text) != options.end();
}

bool IsHeader(const Token* t, std::initializer_list<std::string_view> names) {
  return t->kind == TokKind::kHeader && OneOf(t->text, names);
}

enum class Qualifier { kNone, kStd, kOtherNamespace, kMember };

// How the name at code[i] is reached: `std::name`, `ns::name`, `x.name`, or
// plainly (which includes `::name` and `p->name`).
Qualifier QualifierOf(const std::vector<const Token*>& code, size_t i) {
  if (IsPunct(At(code, i - 1), ".")) return Qualifier::kMember;
  if (!IsPunct(At(code, i - 1), ":") || !IsPunct(At(code, i - 2), ":") ||
      !IsAnyIdent(At(code, i - 3))) {
    return Qualifier::kNone;
  }
  return code[i - 3]->text == "std" ? Qualifier::kStd : Qualifier::kOtherNamespace;
}

// The ambient randomness or wall-clock read at code[i], or nullptr.
const char* DeterminismHazard(const std::vector<const Token*>& code, size_t i) {
  const Token* t = code[i];
  if (IsHeader(t, {"<random>"})) return "#include <random>";
  if (IsHeader(t, {"<chrono>"})) return "#include <chrono>";
  if (t->kind != TokKind::kIdent) return nullptr;
  if (t->text == "random_device") return "std::random_device";
  if (OneOf(t->text, {"system_clock", "steady_clock", "high_resolution_clock"})) {
    return "wall clock (std::chrono::*_clock)";
  }
  if (!IsPunct(At(code, i + 1), "(")) return nullptr;
  if (t->text == "gettimeofday") return "gettimeofday()";
  const Qualifier qualifier = QualifierOf(code, i);
  if (qualifier == Qualifier::kOtherNamespace) return nullptr;
  // rand() stays flagged even as a member call; time() and clock() do not.
  if (OneOf(t->text, {"rand", "srand"})) return "rand()/srand()";
  if (qualifier == Qualifier::kMember) return nullptr;
  const Token* arg = At(code, i + 2);
  if (t->text == "time" && arg != nullptr &&
      (IsIdent(arg, "NULL") || IsIdent(arg, "nullptr") || IsPunct(arg, "&") ||
       (arg->kind == TokKind::kNumber && arg->text[0] == '0'))) {
    return "time()";
  }
  if (t->text == "clock" && IsPunct(arg, ")")) return "clock()";
  return nullptr;
}

const char* ThreadingHazard(const std::vector<const Token*>& code, size_t i) {
  const Token* t = code[i];
  if (IsHeader(t, {"<thread>"})) return "#include <thread>";
  if (IsHeader(t, {"<future>"})) return "#include <future>";
  if (t->kind != TokKind::kIdent || QualifierOf(code, i) != Qualifier::kStd) return nullptr;
  if (OneOf(t->text, {"thread", "jthread"})) return "std::thread/std::jthread";
  if (t->text == "async") return "std::async";
  return nullptr;
}

bool IsPoolUse(const std::vector<const Token*>& code, size_t i) {
  const Token* t = code[i];
  return IsIdent(t, "ThreadPool") ||
         (t->kind == TokKind::kString && t->text == "\"src/common/thread_pool.h\"" &&
          IsIdent(At(code, i - 1), "include"));
}

const char* HotPathHazard(const std::vector<const Token*>& code, size_t i) {
  const Token* t = code[i];
  if (IsHeader(t, {"<map>", "<set>", "<unordered_map>", "<unordered_set>", "<functional>"})) {
    return "node-based/functional include";
  }
  if (t->kind != TokKind::kIdent || QualifierOf(code, i) != Qualifier::kStd) return nullptr;
  if (t->text == "function") return "std::function";
  if (OneOf(t->text, {"map", "set", "unordered_map", "unordered_set"})) {
    return "node-based std container";
  }
  return nullptr;
}

// True when one of the `_`-separated words of `name` is in `words`.
bool HasWord(std::string_view name, std::initializer_list<std::string_view> words) {
  for (size_t begin = 0; begin <= name.size();) {
    const size_t end = std::min(name.find('_', begin), name.size());
    if (OneOf(name.substr(begin, end - begin), words)) return true;
    begin = end + 1;
  }
  return false;
}

bool EndsWithAny(std::string_view name, std::initializer_list<std::string_view> suffixes) {
  return std::any_of(suffixes.begin(), suffixes.end(),
                     [&](std::string_view suffix) { return name.ends_with(suffix); });
}

// What is wrong with a `double name` declaration, or "" when nothing is.
std::string UnitSuffixProblem(std::string_view name) {
  // Dimensionless quantities that merely mention a time or byte word.
  if (EndsWithAny(name, {"probability", "prob", "ratio", "fraction", "factor", "sigma", "count",
                         "slot", "slots"})) {
    return "";
  }
  // Private members carry a trailing underscore after the unit.
  const std::string_view unit = name.ends_with('_') ? name.substr(0, name.size() - 1) : name;
  if (HasWord(name, {"time", "latency", "delay", "timeout", "interval", "duration", "deadline",
                     "period", "stall", "horizon"}) &&
      !unit.ends_with("_s")) {
    return "reads as a time; suffix it with _s";
  }
  if (HasWord(name, {"byte", "bytes", "payload"}) && name != "bytes" &&
      !EndsWithAny(unit, {"_bytes", "_bytes_per_s", "_bps"})) {
    return "reads as a byte count; suffix it with _bytes";
  }
  return "";
}

// Classifies the declaration that starts at code[begin]: the text after a
// static/thread_local keyword, or a whole namespace-scope statement. Outside
// template brackets, a `(` before any of `;` `=` `{` `[` makes it a function;
// otherwise it is a variable, mutable unless const or constexpr qualifies it.
bool IsMutableVariable(const std::vector<const Token*>& code, size_t begin, size_t end) {
  int depth = 0;
  bool is_const = false;
  for (size_t i = begin; i < end; ++i) {
    const Token* t = code[i];
    if (IsPunct(t, "<")) ++depth;
    if (IsPunct(t, ">")) depth = std::max(0, depth - 1);
    if (depth > 0 || IsPunct(t, ">")) continue;
    if (IsPunct(t, "(")) return false;
    if (t->kind == TokKind::kPunct && OneOf(t->text, {";", "=", "{", "["})) return !is_const;
    is_const = is_const || IsIdent(t, "const") || IsIdent(t, "constexpr");
  }
  return false;  // the stream ended before the declaration did
}

// The first index in [begin, end) past any leading `template <...>` heads.
size_t SkipTemplateHeads(const std::vector<const Token*>& code, size_t begin, size_t end) {
  while (begin + 1 < end && IsIdent(code[begin], "template") && IsPunct(code[begin + 1], "<")) {
    int depth = 0;
    size_t i = begin + 1;
    for (; i < end; ++i) {
      if (IsPunct(code[i], "<")) ++depth;
      if (IsPunct(code[i], ">") && --depth == 0) break;
    }
    if (i == end) return begin;
    begin = i + 1;
  }
  return begin;
}

enum class BraceKind { kNamespace, kInit, kBody };

// What a `{` met at namespace scope opens, judged by the statement code[begin,
// end) before it: a namespace (or an extern "C" block), a variable's brace
// initializer (the statement goes on after the matching `}`), or the body of
// a function, class or enum, which is not at namespace scope.
BraceKind KindOfBrace(const std::vector<const Token*>& code, size_t begin, size_t end) {
  begin = SkipTemplateHeads(code, begin, end);
  const Token* first = At(code, begin);  // the `{` itself when the statement is empty
  if (IsIdent(first, "namespace") ||
      (IsIdent(first, "inline") && IsIdent(At(code, begin + 1), "namespace"))) {
    return BraceKind::kNamespace;
  }
  if (end - begin == 2 && IsIdent(first, "extern") && code[begin + 1]->kind == TokKind::kString) {
    return BraceKind::kNamespace;
  }
  // Read the statement with the contents of (), [] and <> dropped.
  bool has_assign = false;
  bool has_call = false;
  const Token* last = nullptr;
  int depth = 0;
  for (size_t i = begin; i < end; ++i) {
    const Token* t = code[i];
    if (IsIdent(t, "operator")) return BraceKind::kBody;
    if (IsPunct(t, "(") || IsPunct(t, "[") || IsPunct(t, "<")) {
      has_call = has_call || (depth == 0 && IsPunct(t, "("));
      if (depth++ == 0) last = t;
      continue;
    }
    if (IsPunct(t, ")") || IsPunct(t, "]") || IsPunct(t, ">")) {
      depth = std::max(0, depth - 1);
      if (depth == 0) last = t;
      continue;
    }
    if (depth > 0) continue;
    if (IsAnyIdent(t) && OneOf(t->text, {"class", "struct", "union", "enum"})) {
      return BraceKind::kBody;
    }
    has_assign = has_assign || IsPunct(t, "=");
    last = t;
  }
  const bool ends_in_name =
      last != nullptr && (last->kind == TokKind::kIdent || last->kind == TokKind::kNumber);
  return has_assign || (!has_call && ends_in_name) ? BraceKind::kInit : BraceKind::kBody;
}

// True when the namespace-scope statement code[begin, end), its `;`
// included, defines a mutable variable. Statements with a static or
// thread_local keyword are left to the keyword check, so none is reported
// twice.
bool IsMutableNamespaceVariable(const std::vector<const Token*>& code, size_t begin, size_t end) {
  begin = SkipTemplateHeads(code, begin, end);
  static constexpr std::array<std::string_view, 11> kNonVariableWords = {
      "using",     "typedef", "class",  "struct",   "union",        "enum",
      "namespace", "extern",  "friend", "template", "static_assert"};
  const Token* first = nullptr;
  for (size_t i = begin; i < end; ++i) {
    if (IsIdent(code[i], "static") || IsIdent(code[i], "thread_local")) return false;
    if (first == nullptr && IsAnyIdent(code[i])) first = code[i];
  }
  return first != nullptr && !Listed(kNonVariableWords, first->text) &&
         IsMutableVariable(code, begin, end);
}

// Walks the statements that sit directly at namespace scope (the file's top
// level and every namespace body), skipping preprocessor directives.
void CheckNamespaceScope(const LexedFile& file, const std::vector<const Token*>& all,
                         const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  std::vector<const Token*> code;
  std::copy_if(all.begin(), all.end(), std::back_inserter(code),
               [](const Token* t) { return !t->directive; });
  size_t start = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsPunct(code[i], "{")) {
      switch (KindOfBrace(code, start, i)) {
        case BraceKind::kNamespace:
          start = i + 1;
          break;
        case BraceKind::kInit:
          i = MatchForward(code, i, "{", "}");
          break;
        case BraceKind::kBody:
          i = MatchForward(code, i, "{", "}");
          start = i + 1;
          break;
      }
    } else if (IsPunct(code[i], "}")) {
      start = i + 1;  // closes a namespace
    } else if (IsPunct(code[i], ";")) {
      if (IsMutableNamespaceVariable(code, start, i + 1) &&
          !suppressions.Allows(code[start]->line, "global-state")) {
        Report(findings, file.rel, code[start]->line, "global-state",
               "mutable variable at namespace scope is process-global state; make it "
               "const/constexpr, pass the state in explicitly, or justify it with an allow "
               "comment");
      }
      start = i + 1;
    }
  }
}

void CheckIncludeGuard(const LexedFile& file, const std::vector<const Token*>& code,
                       std::vector<Finding>* findings) {
  for (const Token& token : file.tokens) {
    if (token.kind == TokKind::kComment && CommentAllows(token.text, "include-guard")) return;
  }
  std::string expected = file.rel + "_";
  for (char& c : expected) {
    const auto upper = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    c = c == '/' || c == '.' || c == '-' ? '_' : upper;
  }
  // The first `#ifndef NAME`, then the first `#define NAME` after it.
  const Token* guard[2] = {nullptr, nullptr};
  const char* directives[2] = {"ifndef", "define"};
  for (size_t i = 0, found = 0; i < code.size() && found < 2; ++i) {
    if (code[i]->directive && IsPunct(code[i], "#") &&
        IsIdent(At(code, i + 1), directives[found]) && IsAnyIdent(At(code, i + 2))) {
      guard[found++] = code[i + 2];
    }
  }
  if (guard[1] == nullptr) {
    Report(findings, file.rel, 1, "include-guard", "missing include guard " + expected);
  } else if (guard[0]->text != expected || guard[1]->text != expected) {
    Report(findings, file.rel, guard[0]->line, "include-guard",
           "guard is " + guard[0]->text + ", want " + expected);
  }
}

}  // namespace

void CheckHouseRules(const LexedFile& file, std::vector<Finding>* findings) {
  const std::string_view rel = file.rel;
  const bool in_src = rel.starts_with("src/");
  const bool checked = in_src || rel.starts_with("tests/") || rel.starts_with("bench/") ||
                       rel.starts_with("examples/");
  const bool determinism = checked && !Listed(kTimingAllowFiles, rel);
  const bool threading = in_src && !Listed(kThreadPoolFiles, rel);
  const bool pool_use = in_src && !Listed(kPoolUserFiles, rel);
  const bool hot_path = (rel.starts_with("src/sim/") || rel.starts_with("src/morph/") ||
                         Listed(kHotPathFiles, rel)) &&
                        !Listed(kHotPathAllowFiles, rel);
  const bool unit_suffix =
      (rel.starts_with("src/net/") || rel.starts_with("src/cluster/")) && rel.ends_with(".h");

  const SuppressionIndex suppressions(file);
  const std::vector<const Token*> code = CodeTokens(file);
  auto report = [&](const Token* at, const char* rule, const std::string& message) {
    if (!suppressions.Allows(at->line, rule)) Report(findings, file.rel, at->line, rule, message);
  };
  for (size_t i = 0; i < code.size(); ++i) {
    const Token* t = code[i];
    if (const char* what = determinism ? DeterminismHazard(code, i) : nullptr) {
      report(t, "determinism",
             std::string(what) + " breaks the SimEngine determinism contract; route randomness "
                                 "through varuna::Rng and time through SimEngine::now()");
    }
    if (checked && IsIdent(t, "assert") && IsPunct(At(code, i + 1), "(") &&
        !IsPunct(At(code, i - 1), ".")) {
      report(t, "check-macro", "use VARUNA_CHECK (src/common/check.h) instead of assert()");
    }
    if (const char* what = threading ? ThreadingHazard(code, i) : nullptr) {
      report(t, "threading",
             std::string(what) + ": spawn work through the deterministic pool in "
                                 "src/common/thread_pool.h, not ad-hoc threads");
    }
    if (pool_use && IsPoolUse(code, i)) {
      report(t, "threading",
             "ThreadPool use outside the reviewed allowlist; pooled work items must be pure "
             "functions of their index — add the file to kPoolUserFiles deliberately");
    }
    if (const char* what = hot_path ? HotPathHazard(code, i) : nullptr) {
      report(t, "hot-path",
             std::string(what) + " in a simulation hot-path file; use flat vectors / the "
                                 "SimEngine slot pool / SmallCallback (src/sim/callback.h), or "
                                 "add the file to kHotPathAllowFiles deliberately");
    }
    const Token* name = At(code, i + 1);
    const Token* after = At(code, i + 2);
    if (unit_suffix && IsIdent(t, "double") && IsAnyIdent(name) && after != nullptr &&
        after->kind == TokKind::kPunct && OneOf(after->text, {",", ")", "=", ";", "{"})) {
      const std::string problem = UnitSuffixProblem(name->text);
      if (!problem.empty()) report(t, "unit-suffix", "double '" + name->text + "' " + problem);
    }
    const bool storage_keyword = IsIdent(t, "static") || IsIdent(t, "thread_local");
    if (in_src && storage_keyword && !IsIdent(At(code, i - 1), "static") &&
        !IsIdent(At(code, i - 1), "thread_local") && IsMutableVariable(code, i + 1, code.size())) {
      report(t, "global-state",
             "mutable static/thread_local variable is process-global state; make it "
             "const/constexpr, pass the state in explicitly, or justify it with an allow "
             "comment");
    }
  }
  if (in_src) CheckNamespaceScope(file, code, suppressions, findings);
  if (rel.ends_with(".h")) CheckIncludeGuard(file, code, findings);
}

std::span<const Allowlist> Allowlists() { return kAllowlists; }

// ---------------------------------------------------------------------------
// Pass 3: stale allowlist entries
// ---------------------------------------------------------------------------

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// True when the file's code (not its comments) names ThreadPool or includes
// src/common/thread_pool.h; an unreadable file counts as a user.
bool UsesPool(const std::string& path, std::string_view rel) {
  std::string text;
  if (!ReadFile(path, &text)) return true;
  const LexedFile file = Lex(path, std::string(rel), text);
  const std::vector<const Token*> code = CodeTokens(file);
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsPoolUse(code, i)) return true;
  }
  return false;
}

}  // namespace

void CheckAllowlists(const std::string& root, std::vector<Finding>* findings) {
  for (const Allowlist& list : kAllowlists) {
    for (const std::string_view rel : list.files) {
      const std::filesystem::path path = std::filesystem::path(root) / rel;
      std::error_code ec;
      if (!std::filesystem::is_regular_file(path, ec)) {
        Report(findings, "tools/analyze/analyzer.cc", 0, "stale-allowlist",
               std::string(list.name) + " names missing file " + std::string(rel) +
                   "; delete the entry");
      } else if (list.name == "kPoolUserFiles" && !UsesPool(path.string(), rel)) {
        Report(findings, "tools/analyze/analyzer.cc", 0, "stale-allowlist",
               std::string(list.name) + " names " + std::string(rel) +
                   ", which no longer uses ThreadPool; delete the entry");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

namespace {

bool HasSourceExtension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

}  // namespace

int RunAnalysis(const AnalyzerOptions& options, std::vector<Finding>* findings,
                std::string* error) {
  namespace fs = std::filesystem;
  const fs::path root(options.root);

  std::string layering_text;
  if (!ReadFile((root / options.layering_rel).string(), &layering_text)) {
    *error = "cannot read layering spec: " + (root / options.layering_rel).string();
    return 2;
  }
  LayeringSpec spec;
  if (!ParseLayeringSpec(layering_text, &spec, error)) return 2;

  std::vector<std::string> rels;
  for (const std::string& scan : options.roots) {
    const fs::path base = root / scan;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      rels.push_back(fs::path(scan).generic_string());
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      *error = "no such scan root: " + base.string();
      return 2;
    }
    fs::path at = base;
    for (fs::recursive_directory_iterator it(base, ec), end; !ec && it != end; it.increment(ec)) {
      at = it->path();
      const std::string name = at.filename().string();
      if (it->is_directory() &&
          (name.rfind("build", 0) == 0 || name[0] == '.' || name == "analyze_fixtures")) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && HasSourceExtension(at)) {
        rels.push_back(fs::relative(at, root).generic_string());
      }
    }
    if (ec) {
      *error = "cannot walk " + at.string() + ": " + ec.message();
      return 2;
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());

  std::vector<LexedFile> files;
  files.reserve(rels.size());
  for (const std::string& rel : rels) {
    std::string text;
    const std::string path = (root / rel).string();
    if (!ReadFile(path, &text)) {
      *error = "cannot read " + path;
      return 2;
    }
    files.push_back(Lex(path, rel, text));
  }

  CheckIncludeGraph(files, spec, findings);
  for (const LexedFile& file : files) {
    CheckHouseRules(file, findings);
  }
  CheckAllowlists(options.root, findings);

  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.rel != b.rel) return a.rel < b.rel;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings->empty() ? 0 : 1;
}

}  // namespace analyze
}  // namespace varuna
