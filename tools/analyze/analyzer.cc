#include "tools/analyze/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
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

bool IsPunct(const Token* t, const char* text) {
  return t->kind == TokKind::kPunct && t->text == text;
}
bool IsIdent(const Token* t, const char* text) {
  return t->kind == TokKind::kIdent && t->text == text;
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
// Pass 2: Rng stream discipline
// ---------------------------------------------------------------------------

namespace {

bool IsDrawMethod(const std::string& name) {
  // Keep in sync with src/common/rng.h. Fork() counts: it advances the
  // stream, so calling it on a copy/temporary has the same hazard.
  static const std::set<std::string> kDraws = {
      "NextUint64", "NextDouble", "UniformInt",     "Uniform", "Gaussian",
      "Exponential", "Bernoulli", "LogNormalMedian", "Fork",
  };
  return kDraws.count(name) != 0;
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

// `Rng name = <init> ;` where the initializer contains neither a call nor
// Fork: a plain copy of an existing stream.
void CheckRngCopies(const LexedFile& file, const std::vector<const Token*>& code,
                    const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (!IsIdent(code[i], "Rng") || code[i + 1]->kind != TokKind::kIdent ||
        !IsPunct(code[i + 2], "=")) {
      continue;
    }
    bool has_call = false;
    bool has_fork = false;
    size_t j = i + 3;
    for (; j < code.size() && !IsPunct(code[j], ";"); ++j) {
      if (IsPunct(code[j], "(")) has_call = true;
      if (IsIdent(code[j], "Fork")) has_fork = true;
    }
    if (j == i + 3 || has_fork || has_call) continue;
    if (suppressions.Allows(code[i]->line, "rng-copy")) continue;
    Report(findings, file.rel, code[i]->line, "rng-copy",
           "'Rng " + code[i + 1]->text + " = ...' copies an existing draw stream; fork "
           "deliberately with .Fork() or seed a new Rng");
  }
}

// Draws on a by-value Rng parameter inside the function definition: the
// caller's stream does not advance, so the same values replay elsewhere.
void CheckRngValueParams(const LexedFile& file, const std::vector<const Token*>& code,
                         const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  for (size_t i = 1; i + 2 < code.size(); ++i) {
    if (!IsIdent(code[i], "Rng")) continue;
    if (!IsPunct(code[i - 1], "(") && !IsPunct(code[i - 1], ",")) continue;
    if (code[i + 1]->kind != TokKind::kIdent) continue;
    const Token* after = code[i + 2];
    if (!IsPunct(after, ",") && !IsPunct(after, ")") && !IsPunct(after, "=")) continue;
    const std::string& name = code[i + 1]->text;

    // Close of the parameter list: we are one level deep at the parameter.
    int depth = 1;
    size_t close = code.size();
    for (size_t j = i + 2; j < code.size(); ++j) {
      if (IsPunct(code[j], "(")) ++depth;
      if (IsPunct(code[j], ")") && --depth == 0) {
        close = j;
        break;
      }
    }
    if (close == code.size()) continue;

    // Definition? Scan past the init list / qualifiers for `{` before `;`.
    size_t body_open = code.size();
    int paren = 0;
    for (size_t j = close + 1; j < code.size(); ++j) {
      if (IsPunct(code[j], "(")) ++paren;
      if (IsPunct(code[j], ")")) --paren;
      if (paren > 0) continue;
      if (IsPunct(code[j], ";")) break;  // declaration only
      if (IsPunct(code[j], "{")) {
        body_open = j;
        break;
      }
    }
    if (body_open == code.size()) continue;
    const size_t body_close = MatchForward(code, body_open, "{", "}");

    // Draws anywhere from the parameter-list close (member-init lists
    // included) to the end of the body.
    for (size_t j = close + 1; j + 2 < body_close; ++j) {
      if (!IsIdent(code[j], name.c_str()) || !IsPunct(code[j + 1], ".")) continue;
      if (code[j + 2]->kind != TokKind::kIdent || !IsDrawMethod(code[j + 2]->text)) continue;
      if (suppressions.Allows(code[j]->line, "rng-value-param")) continue;
      Report(findings, file.rel, code[j]->line, "rng-value-param",
             "." + code[j + 2]->text + "() on by-value Rng parameter '" + name +
                 "' forks the stream (the caller's Rng does not advance); take Rng* "
                 "or store the Rng and draw from the stored copy");
    }
  }
}

// Draws chained onto an unnamed temporary: `Rng(seed).NextDouble()`. The
// stream lives for one expression, so its draws are position-dependent copies
// of whatever the seed expression happens to be.
void CheckRngTemporaries(const LexedFile& file, const std::vector<const Token*>& code,
                         const SuppressionIndex& suppressions, std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!IsIdent(code[i], "Rng") || !IsPunct(code[i + 1], "(")) continue;
    const size_t close = MatchForward(code, i + 1, "(", ")");
    if (close + 2 >= code.size()) continue;
    if (!IsPunct(code[close + 1], ".")) continue;
    if (code[close + 2]->kind != TokKind::kIdent || !IsDrawMethod(code[close + 2]->text)) {
      continue;
    }
    if (suppressions.Allows(code[i]->line, "rng-temp")) continue;
    Report(findings, file.rel, code[i]->line, "rng-temp",
           "." + code[close + 2]->text + "() on an unnamed Rng temporary is a draw outside "
           "any seeded scope; name the Rng and thread it from the scenario seed");
  }
}

}  // namespace

void CheckRngDiscipline(const LexedFile& file, std::vector<Finding>* findings) {
  const SuppressionIndex suppressions(file);
  const std::vector<const Token*> code = CodeTokens(file);
  CheckRngCopies(file, code, suppressions, findings);
  CheckRngValueParams(file, code, suppressions, findings);
  CheckRngTemporaries(file, code, suppressions, findings);
}

// ---------------------------------------------------------------------------
// Driver
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
    for (fs::recursive_directory_iterator it(base, ec), end; it != end; it.increment(ec)) {
      if (ec) break;
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory() && (name.rfind("build", 0) == 0 || name[0] == '.')) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && HasSourceExtension(p)) {
        rels.push_back(fs::relative(p, root).generic_string());
      }
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
    if (file.rel.rfind("src/", 0) == 0) CheckRngDiscipline(file, findings);
  }

  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.rel != b.rel) return a.rel < b.rel;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings->empty() ? 0 : 1;
}

}  // namespace analyze
}  // namespace varuna
