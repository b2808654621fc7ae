// Stage 2 of the pstk-lint pipeline: a lightweight structural parser.
//
// Turns the token stream into a per-function statement tree: loops,
// branches, pragmas, returns, declarations/assignments, and call
// expressions with their argument text. It is *not* a C++ parser — it
// recognizes just enough structure for intra-procedural dataflow:
//
//   * function definitions (free functions, methods, TEST bodies) found
//     by the `name ( params ) qualifiers {` shape
//   * lambda bodies, lifted out as their own Function entries (named
//     `outer::lambda#k`) so SPMD bodies passed to RunSpmd/RunApp are
//     analyzed as the functions they conceptually are
//   * if/else, for/while/do loops (braced or single-statement bodies),
//     `#pragma` directives as first-class statements
//   * per-statement: declared variable (type, name, initializer text),
//     simple assignments (`x = ...`, `x += ...`, `x[i] = ...`), and every
//     call expression with receiver, method, and argument text
//
// Unrecognized constructs degrade to opaque plain statements — the parser
// never fails, it only loses precision.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/token.h"

namespace pstk::analysis {

/// One call expression, e.g. `file->ReadLinesAtAll(comm, offset, n)`.
struct CallExpr {
  std::string callee;    // full path as written: "file->ReadLinesAtAll"
  std::string method;    // last component: "ReadLinesAtAll"
  std::string receiver;  // leading object path: "file" ("" when chained)
  std::vector<std::string> args;  // compact text of each top-level argument
  int line = 0;
};

enum class StmtKind : std::uint8_t {
  kPlain,   // expression / declaration statement
  kLoop,    // for / while / do-while; condition in `text`
  kBranch,  // if (condition in `text`, else body in `else_children`), switch
  kPragma,  // a `#pragma` directive; full directive in `text`
  kReturn,  // return statement; expression in `text`
  kBlock,   // bare { ... } scope (also try/catch bodies)
};

/// A simple write target: `name = ...`, `name += ...`, `name[i] = ...`.
struct Assign {
  std::string name;
  std::string op;         // "=", "+=", "-=", ...
  std::string subscript;  // nonempty for `name[subscript] op ...`
  int line = 0;
};

struct Stmt {
  StmtKind kind = StmtKind::kPlain;
  int line = 0;
  std::string text;  // compact statement/condition/directive text

  std::vector<CallExpr> calls;  // calls in this statement (header for
                                // loops/branches); lambda bodies excluded
  std::vector<Stmt> children;   // loop/branch/block body
  std::vector<Stmt> else_children;

  // Declaration info (empty when the statement declares nothing).
  std::string decl_type;  // "const Bytes", "auto", ...
  std::string decl_name;
  std::string init_text;  // compact initializer text after '='

  std::vector<Assign> assigns;

  // For kLoop: the induction variable from the for-init / range-for
  // binding ("" when none was recognized).
  std::string induction_var;
  // For kLoop: type of the induction variable when it was declared in the
  // loop header.
  std::string induction_type;
};

struct Param {
  std::string type;
  std::string name;
};

struct Function {
  std::string name;  // "RunMpiPageRank", "main", "RunSpmd::lambda#1"
  int line = 0;
  bool is_lambda = false;
  std::vector<Param> params;
  std::vector<Stmt> body;
};

struct Unit {
  std::vector<Function> functions;
};

/// Parse a token stream into functions. Tokens outside any function body
/// (namespace scaffolding, class declarations, global initializers) are
/// skipped.
Unit ParseUnit(const std::vector<Token>& tokens);

/// Tokenize + parse in one step.
Unit ParseSource(const std::string& source);

/// Depth-first visit of a statement tree (children before later siblings);
/// `visit` also receives the enclosing loop depth and whether any
/// enclosing branch exists.
void ForEachStmt(const std::vector<Stmt>& body,
                 const std::function<void(const Stmt&)>& visit);

}  // namespace pstk::analysis
