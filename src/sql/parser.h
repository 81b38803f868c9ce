#ifndef DATALAWYER_SQL_PARSER_H_
#define DATALAWYER_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace datalawyer {

/// Recursive-descent parser for the engine's SQL fragment:
///
///   SELECT [DISTINCT | DISTINCT ON (exprs)] items
///   FROM table [alias] | (subquery) alias , ...
///   [WHERE expr] [GROUP BY exprs] [HAVING expr]
///   [ORDER BY exprs [ASC|DESC]] [LIMIT n]
///   [UNION [ALL] select]
///
/// plus INSERT INTO ... VALUES, CREATE TABLE, DELETE FROM, DROP TABLE.
/// Operator precedence: OR < AND < NOT < comparison/IS NULL < + - < * / %
/// < unary minus.
class Parser {
 public:
  /// Parses exactly one statement (a trailing ';' is allowed).
  static Result<Statement> Parse(const std::string& sql);

  /// Parses a statement that must be a SELECT (the policy language).
  static Result<std::unique_ptr<SelectStmt>> ParseSelect(
      const std::string& sql);

  /// Parses a ';'-separated script.
  static Result<std::vector<Statement>> ParseScript(const std::string& sql);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  Token Advance();
  bool MatchKeyword(const char* kw);
  bool MatchOperator(const char* op);
  bool Match(TokenType type);
  Status Expect(TokenType type, const char* what);
  Status ExpectKeyword(const char* kw);
  Status ErrorHere(const std::string& message) const;

  Result<Statement> ParseStatement();
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt();
  Result<std::unique_ptr<SelectStmt>> ParseSelectCore();
  /// One UNION member: a core SELECT, or a parenthesized select (then
  /// *parenthesized is set).
  Result<std::unique_ptr<SelectStmt>> ParseUnionMember(bool* parenthesized);
  Result<TableRef> ParseTableRef();
  Result<std::unique_ptr<InsertStmt>> ParseInsert();
  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable();
  Result<std::unique_ptr<DeleteStmt>> ParseDelete();
  Result<std::unique_ptr<DropTableStmt>> ParseDropTable();

  Result<ExprPtr> ParseExpr();        // OR level
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_SQL_PARSER_H_
