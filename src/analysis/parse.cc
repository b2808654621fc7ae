#include "analysis/parse.h"

#include <algorithm>
#include <array>
#include <unordered_set>

namespace pstk::analysis {

namespace {

const std::unordered_set<std::string>& ControlKeywords() {
  static const std::unordered_set<std::string> kSet{
      "if",     "for",    "while",  "switch", "return", "sizeof",
      "catch",  "new",    "delete", "throw",  "static_cast",
      "dynamic_cast", "reinterpret_cast", "const_cast", "alignof",
      "decltype", "co_await", "co_return", "co_yield",
  };
  return kSet;
}

bool IsTypeishToken(const Token& t) {
  if (t.kind == TokKind::kIdent) return true;
  if (t.kind != TokKind::kPunct) return t.kind == TokKind::kNumber;
  static const std::unordered_set<std::string> kOk{"::", "<", ">", ">>", "&",
                                                   "*",  ",", "[", "]"};
  return kOk.count(t.text) != 0;
}

const std::unordered_set<std::string>& CompoundAssignOps() {
  static const std::unordered_set<std::string> kSet{
      "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="};
  return kSet;
}

/// Join, masking string/char literal contents so later text queries can
/// never match inside a literal.
std::string JoinMasked(const std::vector<Token>& toks, std::size_t begin,
                       std::size_t end) {
  std::vector<Token> masked(toks.begin() + static_cast<std::ptrdiff_t>(begin),
                            toks.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(end, toks.size())));
  for (Token& t : masked) {
    if (t.kind == TokKind::kString) t.text = "\"\"";
    if (t.kind == TokKind::kChar) t.text = "''";
  }
  return JoinTokens(masked, 0, masked.size());
}

class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : t_(tokens) {}

  Unit Run() {
    std::size_t i = 0;
    while (i < t_.size()) {
      std::size_t next = 0;
      if (TryParseFunction(i, &next)) {
        i = next;
      } else {
        ++i;
      }
    }
    return std::move(unit_);
  }

 private:
  // --- token helpers -------------------------------------------------------

  [[nodiscard]] bool AtEnd(std::size_t i) const { return i >= t_.size(); }
  [[nodiscard]] const Token& Tok(std::size_t i) const { return t_[i]; }
  [[nodiscard]] bool IsPunct(std::size_t i, const char* p) const {
    return i < t_.size() && t_[i].IsPunct(p);
  }
  [[nodiscard]] bool IsIdent(std::size_t i, const char* p) const {
    return i < t_.size() && t_[i].IsIdent(p);
  }

  /// Index of the ")" matching the "(" at `i` (npos-style: t_.size()).
  [[nodiscard]] std::size_t MatchParen(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < t_.size(); ++j) {
      if (t_[j].kind != TokKind::kPunct) continue;
      if (t_[j].text == "(") ++depth;
      if (t_[j].text == ")" && --depth == 0) return j;
    }
    return t_.size();
  }

  // --- function discovery --------------------------------------------------

  bool TryParseFunction(std::size_t i, std::size_t* next) {
    if (Tok(i).kind != TokKind::kIdent || !IsPunct(i + 1, "(")) return false;
    if (ControlKeywords().count(Tok(i).text) != 0) return false;
    if (Tok(i).text == "operator") return false;
    const std::size_t close = MatchParen(i + 1);
    if (close >= t_.size()) return false;

    // Skip trailing qualifiers (const/noexcept/->T/&&) up to the body "{",
    // allowing a constructor member-init list after ":".
    std::size_t k = close + 1;
    static const std::unordered_set<std::string> kQualPunct{
        "->", "::", "<", ">", "&", "&&", "*", ",", "[", "]"};
    while (!AtEnd(k)) {
      const Token& t = Tok(k);
      if (t.IsPunct("{")) break;
      if (t.IsPunct(":")) {  // member-init list: balance to the body "{"
        int depth = 0;
        ++k;
        while (!AtEnd(k)) {
          if (Tok(k).kind == TokKind::kPunct) {
            const std::string& p = Tok(k).text;
            if (p == "(" || p == "[") ++depth;
            if (p == ")" || p == "]") --depth;
            if (p == "{" && depth == 0) break;
            if (p == ";") return false;
          }
          ++k;
        }
        break;
      }
      const bool ok = t.kind == TokKind::kIdent ||
                      (t.kind == TokKind::kPunct &&
                       kQualPunct.count(t.text) != 0);
      if (!ok || k - close > 24) return false;
      ++k;
    }
    if (!IsPunct(k, "{")) return false;

    Function fn;
    fn.name = Tok(i).text;
    fn.line = Tok(i).line;
    fn.params = ParseParams(i + 2, close);
    fn_stack_.push_back(fn.name);
    std::size_t end = 0;
    fn.body = ParseBlock(k, &end);
    fn_stack_.pop_back();
    unit_.functions.push_back(std::move(fn));
    *next = end;
    return true;
  }

  std::vector<Param> ParseParams(std::size_t begin, std::size_t end) {
    std::vector<Param> params;
    std::size_t start = begin;
    int depth = 0;
    for (std::size_t j = begin; j <= end && j <= t_.size(); ++j) {
      const bool at_end = j == end || j == t_.size();
      if (!at_end && Tok(j).kind == TokKind::kPunct) {
        const Token& t = Tok(j);
        if (t.text == "(" || t.text == "<" || t.text == "{") ++depth;
        if (t.text == ")" || t.text == ">" || t.text == "}") --depth;
      }
      if (at_end || (depth == 0 && Tok(j).IsPunct(","))) {
        if (j > start) {
          std::size_t stop = j;  // strip a default argument
          for (std::size_t m = start; m < j; ++m) {
            if (Tok(m).IsPunct("=")) {
              stop = m;
              break;
            }
          }
          // Last identifier is the name; everything before is the type.
          std::size_t name_at = stop;
          while (name_at > start &&
                 Tok(name_at - 1).kind != TokKind::kIdent) {
            --name_at;
          }
          if (name_at > start && Tok(name_at - 1).kind == TokKind::kIdent) {
            Param p;
            p.name = Tok(name_at - 1).text;
            p.type = JoinMasked(t_, start, name_at - 1);
            if (p.type.empty()) {  // unnamed parameter, type only
              p.type = p.name;
              p.name.clear();
            }
            params.push_back(std::move(p));
          }
        }
        start = j + 1;
      }
    }
    return params;
  }

  // --- statements ----------------------------------------------------------

  std::vector<Stmt> ParseBlock(std::size_t i, std::size_t* end) {
    std::vector<Stmt> out;
    ++i;  // consume "{"
    while (!AtEnd(i) && !IsPunct(i, "}")) {
      const std::size_t before = i;
      if (auto stmt = ParseStmt(&i)) out.push_back(std::move(*stmt));
      if (i == before) ++i;  // never wedge on unexpected tokens
    }
    *end = AtEnd(i) ? i : i + 1;
    return out;
  }

  std::optional<Stmt> ParseStmt(std::size_t* ip) {
    std::size_t i = *ip;
    // An unterminated header (`if (` at the end of input) leaves no body.
    if (AtEnd(i)) return std::nullopt;
    const Token& t = Tok(i);
    if (t.kind == TokKind::kPragma) {
      Stmt s;
      s.kind = StmtKind::kPragma;
      s.line = t.line;
      s.text = t.text;
      *ip = i + 1;
      return s;
    }
    if (t.kind == TokKind::kDirective) {
      *ip = i + 1;
      return std::nullopt;
    }
    if (t.IsPunct("{")) {
      Stmt s;
      s.kind = StmtKind::kBlock;
      s.line = t.line;
      s.children = ParseBlock(i, ip);
      return s;
    }
    if (t.IsPunct(";")) {
      *ip = i + 1;
      return std::nullopt;
    }
    if (t.kind == TokKind::kIdent) {
      const std::string& kw = t.text;
      if (kw == "if") return ParseIf(ip);
      if (kw == "for" || kw == "while") return ParseLoop(ip);
      if (kw == "do") return ParseDoWhile(ip);
      if (kw == "switch") return ParseSwitch(ip);
      if (kw == "return") return ParseReturn(ip);
      if (kw == "try" || kw == "else") {  // stray else guards misparses
        *ip = i + 1;
        if (IsPunct(*ip, "{")) {
          Stmt s;
          s.kind = StmtKind::kBlock;
          s.line = t.line;
          s.children = ParseBlock(*ip, ip);
          return s;
        }
        return std::nullopt;
      }
      if (kw == "catch") {
        ++i;
        if (IsPunct(i, "(")) i = MatchParen(i) + 1;
        if (IsPunct(i, "{")) {
          Stmt s;
          s.kind = StmtKind::kBlock;
          s.line = t.line;
          s.children = ParseBlock(i, ip);
          return s;
        }
        *ip = i;
        return std::nullopt;
      }
      if (kw == "struct" || kw == "class" || kw == "union" ||
          kw == "enum") {
        return ParseLocalType(ip);
      }
      if (kw == "case" || kw == "default") {
        while (!AtEnd(i) && !IsPunct(i, ":")) ++i;
        *ip = AtEnd(i) ? i : i + 1;
        return std::nullopt;
      }
      if (kw == "break" || kw == "continue") {
        while (!AtEnd(i) && !IsPunct(i, ";")) ++i;
        *ip = AtEnd(i) ? i : i + 1;
        return std::nullopt;
      }
    }
    return CollectPlain(ip);
  }

  std::optional<Stmt> ParseIf(std::size_t* ip) {
    std::size_t i = *ip;  // at "if"
    Stmt s;
    s.kind = StmtKind::kBranch;
    s.line = Tok(i).line;
    ++i;
    if (IsIdent(i, "constexpr")) ++i;
    if (!IsPunct(i, "(")) {
      *ip = i;
      return std::nullopt;
    }
    const std::size_t close = MatchParen(i);
    s.text = JoinMasked(t_, i + 1, close);
    s.calls = ExtractCalls(i + 1, close);
    i = close + 1;
    ParseBody(&i, &s.children);
    if (IsIdent(i, "else")) {
      ++i;
      ParseBody(&i, &s.else_children);
    }
    *ip = i;
    return s;
  }

  std::optional<Stmt> ParseLoop(std::size_t* ip) {
    std::size_t i = *ip;  // at "for"/"while"
    Stmt s;
    s.kind = StmtKind::kLoop;
    s.line = Tok(i).line;
    ++i;
    if (!IsPunct(i, "(")) {
      *ip = i;
      return std::nullopt;
    }
    const std::size_t close = MatchParen(i);
    s.text = JoinMasked(t_, i + 1, close);
    s.calls = ExtractCalls(i + 1, close);
    FindInduction(i + 1, close, &s);
    i = close + 1;
    ParseBody(&i, &s.children);
    *ip = i;
    return s;
  }

  std::optional<Stmt> ParseDoWhile(std::size_t* ip) {
    std::size_t i = *ip + 1;  // past "do"
    Stmt s;
    s.kind = StmtKind::kLoop;
    s.line = Tok(*ip).line;
    ParseBody(&i, &s.children);
    if (IsIdent(i, "while")) {
      ++i;
      if (IsPunct(i, "(")) {
        const std::size_t close = MatchParen(i);
        s.text = JoinMasked(t_, i + 1, close);
        s.calls = ExtractCalls(i + 1, close);
        i = close + 1;
      }
      if (IsPunct(i, ";")) ++i;
    }
    *ip = i;
    return s;
  }

  std::optional<Stmt> ParseSwitch(std::size_t* ip) {
    std::size_t i = *ip + 1;
    Stmt s;
    s.kind = StmtKind::kBranch;
    s.line = Tok(*ip).line;
    if (IsPunct(i, "(")) {
      const std::size_t close = MatchParen(i);
      s.text = JoinMasked(t_, i + 1, close);
      s.calls = ExtractCalls(i + 1, close);
      i = close + 1;
    }
    ParseBody(&i, &s.children);
    *ip = i;
    return s;
  }

  std::optional<Stmt> ParseReturn(std::size_t* ip) {
    std::size_t i = *ip + 1;
    Stmt s;
    s.kind = StmtKind::kReturn;
    s.line = Tok(*ip).line;
    std::vector<Token> acc;
    CollectExpr(&i, &acc);
    s.text = JoinVec(acc);
    s.calls = ExtractCallsFrom(acc);
    *ip = i;
    return s;
  }

  /// A local struct/class/enum: skip the member block entirely (members
  /// are not statements of this function).
  std::optional<Stmt> ParseLocalType(std::size_t* ip) {
    std::size_t i = *ip;
    Stmt s;
    s.kind = StmtKind::kPlain;
    s.line = Tok(i).line;
    while (!AtEnd(i) && !IsPunct(i, "{") && !IsPunct(i, ";")) ++i;
    if (IsPunct(i, "{")) {
      int depth = 0;
      while (!AtEnd(i)) {
        if (IsPunct(i, "{")) ++depth;
        if (IsPunct(i, "}") && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
    }
    while (!AtEnd(i) && !IsPunct(i, ";")) ++i;
    s.text = JoinMasked(t_, *ip, std::min(i, *ip + 4));
    *ip = AtEnd(i) ? i : i + 1;
    return s;
  }

  /// A braced or single-statement loop/branch body.
  void ParseBody(std::size_t* ip, std::vector<Stmt>* out) {
    if (IsPunct(*ip, "{")) {
      *out = ParseBlock(*ip, ip);
      return;
    }
    if (auto stmt = ParseStmt(ip)) out->push_back(std::move(*stmt));
  }

  /// For-header induction variable: `int i = 0; ...` or `auto& x : range`.
  void FindInduction(std::size_t begin, std::size_t end, Stmt* s) {
    std::size_t stop = end;
    int depth = 0;
    bool range_for = false;
    for (std::size_t j = begin; j < end; ++j) {
      if (Tok(j).kind != TokKind::kPunct) continue;
      const std::string& p = Tok(j).text;
      if (p == "(" || p == "[" || p == "{" || p == "<") ++depth;
      if (p == ")" || p == "]" || p == "}" || p == ">") --depth;
      if (depth == 0 && (p == ";" || p == "=" || p == ":")) {
        stop = j;
        range_for = p == ":";
        break;
      }
    }
    if (stop == end || stop == begin) return;
    std::size_t name_at = stop;
    if (!range_for && !Tok(stop).IsPunct("=") && !Tok(stop).IsPunct(";")) {
      return;
    }
    if (Tok(name_at - 1).kind != TokKind::kIdent) return;
    s->induction_var = Tok(name_at - 1).text;
    s->induction_type = JoinMasked(t_, begin, name_at - 1);
  }

  // --- plain statements & lambdas ------------------------------------------

  /// Collect expression tokens until ";" at nesting depth 0, lifting
  /// lambda bodies out as nested Function entries as they appear.
  void CollectExpr(std::size_t* ip, std::vector<Token>* acc) {
    std::size_t i = *ip;
    int depth = 0;
    while (!AtEnd(i)) {
      const Token& t = Tok(i);
      if (t.kind == TokKind::kPunct) {
        const std::string& p = t.text;
        if (p == ";" && depth == 0) {
          ++i;
          break;
        }
        if (p == "}" && depth == 0) break;  // unterminated: end of block
        if (p == "(" || p == "[") ++depth;
        if (p == ")" || p == "]") --depth;
        if (p == "{") {
          if (LooksLikeLambdaIntro(*acc)) {
            std::size_t end = 0;
            Function fn;
            fn.is_lambda = true;
            fn.name = (fn_stack_.empty() ? std::string("<file>")
                                         : fn_stack_.back()) +
                      "::lambda#" + std::to_string(++lambda_count_);
            fn.line = t.line;
            fn.params = LambdaParams(*acc);
            fn_stack_.push_back(fn.name);
            fn.body = ParseBlock(i, &end);
            fn_stack_.pop_back();
            unit_.functions.push_back(std::move(fn));
            acc->push_back(Token{TokKind::kIdent, "<lambda>", t.line});
            i = end;
            continue;
          }
          // Brace init: keep the tokens, keep commas nested.
          int bdepth = 0;
          while (!AtEnd(i)) {
            if (IsPunct(i, "{")) ++bdepth;
            if (IsPunct(i, "}") && --bdepth == 0) {
              acc->push_back(Tok(i));
              ++i;
              break;
            }
            acc->push_back(Tok(i));
            ++i;
          }
          continue;
        }
      }
      acc->push_back(t);
      ++i;
    }
    *ip = i;
  }

  /// Does the token run collected so far end in a lambda introducer —
  /// `[...]`, `[...] (params)`, plus optional mutable/noexcept/->T?
  static bool LooksLikeLambdaIntro(const std::vector<Token>& acc) {
    if (acc.empty()) return false;
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(acc.size()) - 1;
    // Skip trailing specifiers / return type (bounded walk).
    int skipped = 0;
    while (i >= 0 && skipped < 12) {
      const Token& t = acc[static_cast<std::size_t>(i)];
      if (t.IsPunct(")") || t.IsPunct("]")) break;
      const bool spec =
          t.kind == TokKind::kIdent ||
          (t.kind == TokKind::kPunct &&
           (t.text == "->" || t.text == "::" || t.text == "<" ||
            t.text == ">" || t.text == "&" || t.text == "*"));
      if (!spec) return false;
      --i;
      ++skipped;
    }
    if (i < 0) return false;
    if (acc[static_cast<std::size_t>(i)].IsPunct(")")) {
      int depth = 0;
      while (i >= 0) {
        const Token& t = acc[static_cast<std::size_t>(i)];
        if (t.IsPunct(")")) ++depth;
        if (t.IsPunct("(") && --depth == 0) break;
        --i;
      }
      --i;  // token before "("
      if (i < 0 || !acc[static_cast<std::size_t>(i)].IsPunct("]")) {
        return false;
      }
    }
    if (!acc[static_cast<std::size_t>(i)].IsPunct("]")) return false;
    // Walk to the matching "[" and check it sits in expression position
    // (not an array subscript).
    int depth = 0;
    while (i >= 0) {
      const Token& t = acc[static_cast<std::size_t>(i)];
      if (t.IsPunct("]")) ++depth;
      if (t.IsPunct("[") && --depth == 0) break;
      --i;
    }
    if (i < 0) return false;
    if (i == 0) return true;
    const Token& before = acc[static_cast<std::size_t>(i - 1)];
    if (before.kind == TokKind::kIdent &&
        ControlKeywords().count(before.text) == 0 &&
        before.text != "return") {
      return false;  // ident[...] is a subscript
    }
    return !(before.IsPunct(")") || before.IsPunct("]"));
  }

  /// Parameters of the lambda whose introducer terminates `acc`.
  std::vector<Param> LambdaParams(const std::vector<Token>& acc) {
    if (acc.empty() || !acc.back().IsPunct(")")) return {};
    int depth = 0;
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(acc.size()) - 1;
    while (i >= 0) {
      if (acc[static_cast<std::size_t>(i)].IsPunct(")")) ++depth;
      if (acc[static_cast<std::size_t>(i)].IsPunct("(") && --depth == 0) {
        break;
      }
      --i;
    }
    if (i < 0) return {};
    // Reuse ParseParams by building a scratch parser over the segment.
    std::vector<Token> segment(
        acc.begin() + i + 1,
        acc.begin() + static_cast<std::ptrdiff_t>(acc.size()) - 1);
    Parser sub(segment);
    return sub.ParseParams(0, segment.size());
  }

  std::optional<Stmt> CollectPlain(std::size_t* ip) {
    const int line = Tok(*ip).line;
    std::vector<Token> acc;
    CollectExpr(ip, &acc);
    if (acc.empty()) return std::nullopt;
    Stmt s;
    s.kind = StmtKind::kPlain;
    s.line = line;
    s.text = JoinVec(acc);
    s.calls = ExtractCallsFrom(acc);
    ExtractDeclOrAssign(acc, &s);
    return s;
  }

  // --- declaration / assignment shape --------------------------------------

  void ExtractDeclOrAssign(const std::vector<Token>& acc, Stmt* s) {
    // First assignment-shaped operator at nesting depth 0.
    int depth = 0;
    std::size_t op_at = acc.size();
    for (std::size_t j = 0; j < acc.size(); ++j) {
      if (acc[j].kind != TokKind::kPunct) continue;
      const std::string& p = acc[j].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      if (depth == 0 && (p == "=" || CompoundAssignOps().count(p) != 0)) {
        op_at = j;
        break;
      }
    }
    if (op_at < acc.size()) {
      const std::string op = acc[op_at].text;
      LhsInfo lhs = AnalyzeLhs(acc, op_at);
      if (lhs.kind == LhsInfo::kDecl && op == "=") {
        s->decl_type = lhs.type;
        s->decl_name = lhs.name;
        s->init_text = JoinVecMasked(acc, op_at + 1, acc.size());
      } else if (lhs.kind != LhsInfo::kNone) {
        s->assigns.push_back(
            Assign{lhs.name, op, lhs.subscript, s->line});
      }
      return;
    }
    // No "=": constructor-style or plain declaration.
    TryCtorOrPlainDecl(acc, s);
  }

  struct LhsInfo {
    enum Kind { kNone, kAssign, kDecl } kind = kNone;
    std::string name;
    std::string type;
    std::string subscript;
  };

  LhsInfo AnalyzeLhs(const std::vector<Token>& acc, std::size_t op_at) {
    LhsInfo out;
    if (op_at == 0) return out;
    std::size_t last = op_at - 1;
    if (acc[last].IsPunct("]")) {
      // name[subscript] op ... — possibly an array declaration.
      int depth = 0;
      std::size_t open = last;
      while (open > 0) {
        if (acc[open].IsPunct("]")) ++depth;
        if (acc[open].IsPunct("[") && --depth == 0) break;
        --open;
      }
      if (open == 0 || acc[open - 1].kind != TokKind::kIdent) return out;
      const std::size_t name_at = open - 1;
      if (name_at > 0 && IsTypePrefix(acc, 0, name_at)) {
        out.kind = LhsInfo::kDecl;  // e.g. `int a[3] = {...}`
        out.name = acc[name_at].text;
        out.type = JoinVecMasked(acc, 0, name_at);
        return out;
      }
      if (name_at == 0) {
        out.kind = LhsInfo::kAssign;
        out.name = acc[0].text;
        out.subscript = JoinVecMasked(acc, open + 1, last);
      }
      return out;
    }
    if (acc[last].kind != TokKind::kIdent) return out;
    const std::string& name = acc[last].text;
    if (last == 0) {
      out.kind = LhsInfo::kAssign;
      out.name = name;
      return out;
    }
    const Token& before = acc[last - 1];
    if (before.IsPunct(".") || before.IsPunct("->")) return out;  // member
    if (IsTypePrefix(acc, 0, last)) {
      out.kind = LhsInfo::kDecl;
      out.name = name;
      out.type = JoinVecMasked(acc, 0, last);
    }
    return out;
  }

  /// `acc[begin..end)` is plausible declaration-type text: nonempty,
  /// starts with an identifier, and contains only type-shaped tokens.
  static bool IsTypePrefix(const std::vector<Token>& acc, std::size_t begin,
                           std::size_t end) {
    if (begin >= end) return false;
    if (acc[begin].kind != TokKind::kIdent) return false;
    if (ControlKeywords().count(acc[begin].text) != 0) return false;
    for (std::size_t j = begin; j < end; ++j) {
      if (!IsTypeishToken(acc[j])) return false;
      if (acc[j].IsPunct("(")) return false;
    }
    return true;
  }

  void TryCtorOrPlainDecl(const std::vector<Token>& acc, Stmt* s) {
    if (acc.size() < 2) return;
    if (acc.back().IsPunct(")")) {
      // [type]+ name ( args ) — e.g. `mpi::World world(cluster, n, ppn)`.
      int depth = 0;
      std::size_t open = acc.size() - 1;
      while (open > 0) {
        if (acc[open].IsPunct(")")) ++depth;
        if (acc[open].IsPunct("(") && --depth == 0) break;
        --open;
      }
      if (open < 2 || acc[open - 1].kind != TokKind::kIdent) return;
      const std::size_t name_at = open - 1;
      const Token& before = acc[name_at - 1];
      if (before.IsPunct("::") || before.IsPunct(".") ||
          before.IsPunct("->")) {
        return;  // qualified or member call, not a declaration
      }
      if (!IsTypePrefix(acc, 0, name_at)) return;
      s->decl_type = JoinVecMasked(acc, 0, name_at);
      s->decl_name = acc[name_at].text;
      s->init_text = JoinVecMasked(acc, open + 1, acc.size() - 1);
      return;
    }
    if (acc.back().kind == TokKind::kIdent && acc.size() >= 2) {
      // [type]+ name — e.g. `double total`.
      const std::size_t name_at = acc.size() - 1;
      if (!IsTypePrefix(acc, 0, name_at)) return;
      s->decl_type = JoinVecMasked(acc, 0, name_at);
      s->decl_name = acc[name_at].text;
    }
  }

  // --- call extraction ------------------------------------------------------

  std::vector<CallExpr> ExtractCalls(std::size_t begin, std::size_t end) {
    std::vector<Token> seg(t_.begin() + static_cast<std::ptrdiff_t>(begin),
                           t_.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(end, t_.size())));
    return ExtractCallsFrom(seg);
  }

  static std::vector<CallExpr> ExtractCallsFrom(
      const std::vector<Token>& acc) {
    std::vector<CallExpr> out;
    for (std::size_t j = 0; j < acc.size(); ++j) {
      if (acc[j].kind != TokKind::kIdent) continue;
      if (ControlKeywords().count(acc[j].text) != 0) continue;
      std::size_t open = 0;
      if (j + 1 < acc.size() && acc[j + 1].IsPunct("(")) {
        open = j + 1;
      } else if (j + 1 < acc.size() && acc[j + 1].IsPunct("<")) {
        // Possible template call: ident < ... > (
        int depth = 0;
        std::size_t m = j + 1;
        bool matched = false;
        for (; m < acc.size() && m - j < 64; ++m) {
          if (acc[m].kind != TokKind::kPunct) continue;
          const std::string& p = acc[m].text;
          if (p == "<") ++depth;
          if (p == ">") --depth;
          if (p == ">>") depth -= 2;
          if (p == ";" || p == "{") break;
          if (depth <= 0) break;
        }
        if (depth <= 0 && m + 1 < acc.size() && acc[m + 1].IsPunct("(")) {
          open = m + 1;
          matched = true;
        }
        if (!matched) continue;
      } else {
        continue;
      }

      CallExpr call;
      call.method = acc[j].text;
      call.line = acc[j].line;
      // Walk the receiver path backwards: (ident sep)* method.
      std::vector<std::string> pieces;
      std::ptrdiff_t r = static_cast<std::ptrdiff_t>(j) - 1;
      while (r >= 1) {
        const Token& sep = acc[static_cast<std::size_t>(r)];
        const Token& obj = acc[static_cast<std::size_t>(r - 1)];
        const bool is_sep = sep.IsPunct(".") || sep.IsPunct("->") ||
                            sep.IsPunct("::");
        if (!is_sep || obj.kind != TokKind::kIdent) break;
        pieces.insert(pieces.begin(), obj.text + sep.text);
        r -= 2;
      }
      for (const std::string& piece : pieces) call.receiver += piece;
      if (!call.receiver.empty()) {
        // Trim the trailing separator for a clean object path.
        if (call.receiver.size() >= 2 &&
            call.receiver.compare(call.receiver.size() - 2, 2, "::") == 0) {
          call.receiver.erase(call.receiver.size() - 2);
        } else if (call.receiver.back() == '.') {
          call.receiver.pop_back();
        } else if (call.receiver.size() >= 2 &&
                   call.receiver.compare(call.receiver.size() - 2, 2,
                                         "->") == 0) {
          call.receiver.erase(call.receiver.size() - 2);
        }
      }
      for (const std::string& piece : pieces) call.callee += piece;
      call.callee += call.method;

      // Arguments: top-level comma split inside the matching parens.
      int depth = 0;
      std::size_t close = open;
      for (std::size_t m = open; m < acc.size(); ++m) {
        if (acc[m].kind != TokKind::kPunct) continue;
        if (acc[m].text == "(") ++depth;
        if (acc[m].text == ")" && --depth == 0) {
          close = m;
          break;
        }
      }
      if (close == open) continue;
      std::size_t arg_start = open + 1;
      int adepth = 0;
      for (std::size_t m = open + 1; m <= close; ++m) {
        const bool at_close = m == close;
        if (!at_close && acc[m].kind == TokKind::kPunct) {
          const std::string& p = acc[m].text;
          if (p == "(" || p == "[" || p == "{") ++adepth;
          if (p == ")" || p == "]" || p == "}") --adepth;
        }
        if (at_close || (adepth == 0 && acc[m].IsPunct(","))) {
          if (m > arg_start) {
            call.args.push_back(JoinVecMasked(acc, arg_start, m));
          }
          arg_start = m + 1;
        }
      }
      out.push_back(std::move(call));
    }
    return out;
  }

  // --- small helpers --------------------------------------------------------

  static std::string JoinVec(const std::vector<Token>& toks) {
    return JoinMasked(toks, 0, toks.size());
  }
  static std::string JoinVecMasked(const std::vector<Token>& toks,
                                   std::size_t begin, std::size_t end) {
    return JoinMasked(toks, begin, end);
  }

  const std::vector<Token>& t_;
  Unit unit_;
  std::vector<std::string> fn_stack_;
  int lambda_count_ = 0;
};

}  // namespace

Unit ParseUnit(const std::vector<Token>& tokens) {
  return Parser(tokens).Run();
}

Unit ParseSource(const std::string& source) {
  return ParseUnit(Tokenize(source));
}

void ForEachStmt(const std::vector<Stmt>& body,
                 const std::function<void(const Stmt&)>& visit) {
  for (const Stmt& s : body) {
    visit(s);
    ForEachStmt(s.children, visit);
    ForEachStmt(s.else_children, visit);
  }
}

}  // namespace pstk::analysis
