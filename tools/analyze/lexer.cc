#include "tools/analyze/lexer.h"

#include <cctype>
#include <cstddef>

namespace varuna {
namespace analyze {
namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Phase 1: splice backslash-newline continuations into a logical character
// stream while remembering each logical character's physical line.
void Splice(const std::string& text, std::string* logical, std::vector<int>* line_of) {
  int line = 1;
  for (size_t i = 0; i < text.size();) {
    if (text[i] == '\\') {
      if (i + 1 < text.size() && text[i + 1] == '\n') {
        i += 2;
        ++line;
        continue;
      }
      if (i + 2 < text.size() && text[i + 1] == '\r' && text[i + 2] == '\n') {
        i += 3;
        ++line;
        continue;
      }
    }
    logical->push_back(text[i]);
    line_of->push_back(line);
    if (text[i] == '\n') ++line;
    ++i;
  }
}

class Lexer {
 public:
  Lexer(const std::string& s, const std::vector<int>& line_of, std::vector<Token>* out)
      : s_(s), line_of_(line_of), out_(out) {}

  void Run() {
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '\n') {
        line_start_ = true;
        directive_ = false;
      }
      if (c == '\n' || c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        ++i_;
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (c == '"') {
        LexString(i_);
        continue;
      }
      if (c == '\'') {
        LexCharLit(i_);
        continue;
      }
      if (IsDigit(c) || (c == '.' && IsDigit(Peek(1)))) {
        LexNumber();
        continue;
      }
      if (IsIdentStart(c)) {
        LexIdentOrPrefixedLiteral();
        continue;
      }
      if (c == '<' && AfterHashInclude()) {
        LexHeaderName();
        continue;
      }
      Emit(TokKind::kPunct, std::string(1, c), i_);
      ++i_;
    }
  }

 private:
  char Peek(size_t ahead) const { return i_ + ahead < s_.size() ? s_[i_ + ahead] : '\0'; }
  int LineAt(size_t pos) const {
    if (line_of_.empty()) return 1;
    return line_of_[pos < line_of_.size() ? pos : line_of_.size() - 1];
  }

  void Emit(TokKind kind, std::string text, size_t start) {
    if (kind != TokKind::kComment) {
      if (line_start_ && text == "#") directive_ = true;
      line_start_ = false;
    }
    out_->push_back(Token{kind, std::move(text), LineAt(start), directive_});
  }

  void LexLineComment() {
    const size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '\n') ++i_;
    Emit(TokKind::kComment, s_.substr(start, i_ - start), start);
  }

  void LexBlockComment() {
    const size_t start = i_;
    i_ += 2;
    while (i_ < s_.size() && !(s_[i_] == '*' && Peek(1) == '/')) ++i_;
    if (i_ < s_.size()) i_ += 2;  // past "*/" (unterminated: closed at EOF)
    Emit(TokKind::kComment, s_.substr(start, i_ - start), start);
  }

  // Ordinary string starting at the '"' under i_; `start` is where the token
  // began (the prefix, for u8"..."-style literals).
  void LexString(size_t start) {
    ++i_;  // opening quote
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      ++i_;
    }
    if (i_ < s_.size()) ++i_;  // closing quote
    Emit(TokKind::kString, s_.substr(start, i_ - start), start);
  }

  void LexCharLit(size_t start) {
    ++i_;
    while (i_ < s_.size() && s_[i_] != '\'') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      ++i_;
    }
    if (i_ < s_.size()) ++i_;
    Emit(TokKind::kChar, s_.substr(start, i_ - start), start);
  }

  // R"delim( ... )delim" — the body is uninterpreted, including quotes,
  // backslashes, and newlines. `start` covers any encoding prefix.
  void LexRawString(size_t start) {
    ++i_;  // opening quote
    std::string delim;
    while (i_ < s_.size() && s_[i_] != '(') delim.push_back(s_[i_++]);
    if (i_ < s_.size()) ++i_;  // '('
    const std::string close = ")" + delim + "\"";
    const size_t end = s_.find(close, i_);
    i_ = end == std::string::npos ? s_.size() : end + close.size();
    Emit(TokKind::kRawString, s_.substr(start, i_ - start), start);
  }

  void LexNumber() {
    const size_t start = i_;
    // pp-number: digits, identifier chars, '.', exponent signs, and digit
    // separators (a quote between two alphanumerics).
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (IsIdentChar(c) || c == '.') {
        ++i_;
        if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') && i_ < s_.size() &&
            (s_[i_] == '+' || s_[i_] == '-')) {
          ++i_;
        }
        continue;
      }
      if (c == '\'' && i_ > start && IsIdentChar(s_[i_ - 1]) && IsIdentChar(Peek(1))) {
        i_ += 2;
        continue;
      }
      break;
    }
    Emit(TokKind::kNumber, s_.substr(start, i_ - start), start);
  }

  void LexIdentOrPrefixedLiteral() {
    const size_t start = i_;
    while (i_ < s_.size() && IsIdentChar(s_[i_])) ++i_;
    const std::string ident = s_.substr(start, i_ - start);
    if (i_ < s_.size() && s_[i_] == '"') {
      if (ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" || ident == "LR") {
        LexRawString(start);
        return;
      }
      if (ident == "u8" || ident == "u" || ident == "U" || ident == "L") {
        LexString(start);
        return;
      }
    }
    if (i_ < s_.size() && s_[i_] == '\'' &&
        (ident == "u8" || ident == "u" || ident == "U" || ident == "L")) {
      LexCharLit(start);
      return;
    }
    Emit(TokKind::kIdent, ident, start);
  }

  // True when the last two non-comment tokens are `#` `include`, i.e. the `<`
  // under the cursor opens a header-name, not a less-than.
  bool AfterHashInclude() const {
    const Token* last = nullptr;
    const Token* prev = nullptr;
    for (size_t k = out_->size(); k-- > 0;) {
      const Token& t = (*out_)[k];
      if (t.kind == TokKind::kComment) continue;
      if (last == nullptr) {
        last = &t;
      } else {
        prev = &t;
        break;
      }
    }
    return last != nullptr && prev != nullptr && last->kind == TokKind::kIdent &&
           last->text == "include" && prev->kind == TokKind::kPunct && prev->text == "#";
  }

  void LexHeaderName() {
    const size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '>' && s_[i_] != '\n') ++i_;
    if (i_ < s_.size() && s_[i_] == '>') ++i_;
    Emit(TokKind::kHeader, s_.substr(start, i_ - start), start);
  }

  const std::string& s_;
  const std::vector<int>& line_of_;
  std::vector<Token>* out_;
  size_t i_ = 0;
  bool line_start_ = true;  // no code token yet on this logical line
  bool directive_ = false;  // the logical line is a preprocessor directive
};

}  // namespace

LexedFile Lex(std::string path, std::string rel, const std::string& text) {
  LexedFile file;
  file.path = std::move(path);
  file.rel = std::move(rel);
  std::string logical;
  std::vector<int> line_of;
  logical.reserve(text.size());
  line_of.reserve(text.size());
  Splice(text, &logical, &line_of);
  Lexer lexer(logical, line_of, &file.tokens);
  lexer.Run();
  return file;
}

bool CommentAllows(const std::string& comment, const std::string& rule) {
  const std::string needle = "varuna-analyze:";
  const size_t at = comment.find(needle);
  if (at == std::string::npos) return false;
  size_t i = at + needle.size();
  while (i < comment.size() && comment[i] == ' ') ++i;
  const std::string allow = "allow(";
  if (comment.compare(i, allow.size(), allow) != 0) return false;
  i += allow.size();
  const size_t end = comment.find(')', i);
  if (end == std::string::npos) return false;
  return comment.substr(i, end - i) == rule;
}

}  // namespace analyze
}  // namespace varuna
