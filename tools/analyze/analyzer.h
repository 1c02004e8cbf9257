// varuna-analyze passes: the repo's one C++ source checker, run on the lexed
// token stream. Every rule defends a piece of the bit-identical-replay
// contract or of the allocation-free hot path.
//
//   layering / include-cycle
//     The #include DAG over the src/ modules must match the checked-in
//     layering spec (tools/analyze/layering.txt): a module may include only
//     modules in strictly lower layers (and itself). Back-edges couple the
//     hot simulation path to policy layers; cycles are rejected outright.
//
//   house rules (scope in parentheses; allowlists are analyzer.cc constants)
//     determinism (src tests bench examples): no rand()/srand(), even std::
//       or ::-qualified, std::random_device, wall clocks or <random>/<chrono>:
//       randomness flows through varuna::Rng, time through SimEngine::now().
//       bench/bench_util.h, the timing harness, is exempt.
//     check-macro (same trees): VARUNA_CHECK, which stays on in release
//       builds, instead of assert().
//     include-guard (headers): src/sim/engine.h -> SRC_SIM_ENGINE_H_.
//     unit-suffix (src/net and src/cluster headers): a double whose name reads
//       as a time ends in _s, one that reads as a byte count in _bytes.
//     threading (src): only src/common/thread_pool.{h,cc} spawn threads, and
//       only kPoolUserFiles use the pool.
//     hot-path (src/sim, src/morph, kHotPathFiles): no std::function or
//       node-based containers.
//     global-state (src): static, thread_local and namespace-scope variables
//       are const or constexpr.
//     stale-allowlist: every allowlist entry names a file under --root, and
//       every kPoolUserFiles entry still uses the pool (a ThreadPool token or
//       a src/common/thread_pool.h include in its code).
//
// Three contracts need no pass because the types enforce them at compile time
// in every tree. What joins the replay contract is the ReplayRecord type
// (src/manager/elastic_trainer.h): ElasticTrace::Fingerprint fails to compile
// when a record member goes unhashed. Rng (src/common/rng.h) is move-only with
// lvalue-only draws, so a stream cannot be copied or drawn from as a
// temporary. Tensor's copy constructor is explicit, so a Tensor cannot be
// copied into a by-value parameter.
//
// Any finding can be suppressed on its line with
// `// varuna-analyze: allow(<rule>)` (include-guard: anywhere in the header).
// tests/analyze_fixtures/ holds deliberately defective data and is never
// scanned as code.
#ifndef TOOLS_ANALYZE_ANALYZER_H_
#define TOOLS_ANALYZE_ANALYZER_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analyze/lexer.h"

namespace varuna {
namespace analyze {

struct Finding {
  std::string rel;
  int line = 0;
  std::string rule;
  std::string message;
};

std::string FormatFinding(const Finding& finding);

// Layering spec: one layer per line, lowest layer first, modules separated by
// whitespace; `#` starts a comment. A module may include modules in strictly
// lower layers and itself; everything under src/ must be listed.
struct LayeringSpec {
  std::vector<std::vector<std::string>> layers;
  std::map<std::string, int> layer_of;
};

bool ParseLayeringSpec(const std::string& text, LayeringSpec* spec, std::string* error);

// Module of a repo-relative path: "src/sim/engine.h" -> "sim"; empty when the
// path is not of the form src/<module>/...
std::string ModuleOf(const std::string& rel);

// Pass 1: layering conformance + file-level include-cycle detection over all
// `#include "src/..."` edges in `files`.
void CheckIncludeGraph(const std::vector<LexedFile>& files, const LayeringSpec& spec,
                       std::vector<Finding>* findings);

// Pass 2: the house rules within one file, each scoped by `file.rel`.
void CheckHouseRules(const LexedFile& file, std::vector<Finding>* findings);

// A reviewed per-file exemption list of the house rules.
struct Allowlist {
  std::string_view name;
  std::span<const std::string_view> files;  // repo-relative paths
};
std::span<const Allowlist> Allowlists();

// Pass 3 (stale-allowlist): every allowlist entry names a file under `root`,
// and every kPoolUserFiles entry's file still uses the pool.
void CheckAllowlists(const std::string& root, std::vector<Finding>* findings);

struct AnalyzerOptions {
  std::string root;  // repo root (absolute or cwd-relative)
  // Scan roots, relative to `root`.
  std::vector<std::string> roots = {"src", "tests", "bench", "examples"};
  std::string layering_rel = "tools/analyze/layering.txt";
};

// Runs every pass over the tree. Returns 0 clean, 1 findings, 2 on a
// configuration error (unreadable spec / scan root / directory / source
// file), with `error` set in the latter case.
int RunAnalysis(const AnalyzerOptions& options, std::vector<Finding>* findings,
                std::string* error);

}  // namespace analyze
}  // namespace varuna

#endif  // TOOLS_ANALYZE_ANALYZER_H_
