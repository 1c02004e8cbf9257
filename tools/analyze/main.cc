// varuna_analyze: the source checker for the Varuna tree.
//
//   varuna_analyze [--root DIR] [--layering REL] [scan-roots...]
//
// Scan roots default to `src tests bench examples`; REL paths are relative to
// --root (default the current directory). Exit status: 0 clean, 1 findings,
// 2 usage/config error.
//
// Runs in CI under the ctest label `lint` (tools/analyze/CMakeLists.txt), so
// every leg checks layering and the house rules on the exact tree it builds.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tools/analyze/analyzer.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--root DIR] [--layering REL] [scan-roots...]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  varuna::analyze::AnalyzerOptions options;
  options.root = ".";
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(&options.root)) return Usage(argv[0]);
    } else if (arg == "--layering") {
      if (!value(&options.layering_rel)) return Usage(argv[0]);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (!roots.empty()) options.roots = std::move(roots);

  std::vector<varuna::analyze::Finding> findings;
  std::string error;
  const int status = varuna::analyze::RunAnalysis(options, &findings, &error);
  if (status == 2) {
    std::fprintf(stderr, "varuna-analyze: %s\n", error.c_str());
    return 2;
  }
  for (const varuna::analyze::Finding& finding : findings) {
    std::printf("%s\n", varuna::analyze::FormatFinding(finding).c_str());
  }
  if (!findings.empty()) {
    std::printf("varuna-analyze: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::printf("varuna-analyze: clean\n");
  return 0;
}
