// varuna-analyze lexer: a real (if minimal) C++ tokenizer, so the passes
// never mistake comment or string-literal text for code, whichever line a
// literal or comment starts or ends on.
//
// Handled faithfully:
//   * line continuations (backslash-newline splicing, line numbers preserved),
//   * // and /* */ comments (retained as kComment tokens: the passes read
//     classification tags and `// varuna-analyze: allow(<rule>)` suppressions),
//   * string/char literals with escapes, encoding prefixes (u8, u, U, L),
//   * raw string literals R"delim(...)delim", including multi-line bodies,
//   * pp-numbers with digit separators (1'000'000),
//   * <header> names after `#include`,
//   * preprocessor directives (each token knows whether it belongs to one).
//
// Not a preprocessor: macros are not expanded and conditional groups are all
// lexed. That is deliberate — the passes check the text the reviewer reads.
#ifndef TOOLS_ANALYZE_LEXER_H_
#define TOOLS_ANALYZE_LEXER_H_

#include <string>
#include <vector>

namespace varuna {
namespace analyze {

enum class TokKind {
  kIdent,
  kNumber,
  kString,     // ordinary string literal, prefix included in text
  kRawString,  // raw string literal, full text including delimiters
  kChar,       // character literal
  kPunct,      // single punctuation character
  kComment,    // // or /* */ comment, full text including the markers
  kHeader,     // <...> header-name after #include
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based physical line of the token's first character
  bool directive = false;  // part of a `#...` line, continuations included
};

struct LexedFile {
  std::string path;  // as opened (absolute or cwd-relative)
  std::string rel;   // repo-relative with forward slashes, e.g. "src/sim/engine.h"
  std::vector<Token> tokens;
};

// Tokenizes `text`. Never fails: unterminated literals/comments are closed at
// end-of-file (the checks should still see the rest of a slightly-broken file).
LexedFile Lex(std::string path, std::string rel, const std::string& text);

// True when `comment` (a kComment token text) carries a
// `varuna-analyze: allow(<rule>)` suppression for `rule`.
bool CommentAllows(const std::string& comment, const std::string& rule);

}  // namespace analyze
}  // namespace varuna

#endif  // TOOLS_ANALYZE_LEXER_H_
