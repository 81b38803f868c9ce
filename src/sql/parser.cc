#include "sql/parser.h"

#include "common/strings.h"
#include "common/trace.h"
#include "sql/lexer.h"

namespace datalawyer {

namespace {

/// Maps a type keyword to a ValueType; kUnsupported otherwise.
Result<ValueType> ParseTypeName(const std::string& word) {
  if (word == "int" || word == "bigint") return ValueType::kInt64;
  if (word == "double") return ValueType::kDouble;
  if (word == "text" || word == "varchar") return ValueType::kString;
  if (word == "boolean") return ValueType::kBool;
  return Status::Unsupported("unknown column type: " + word);
}

}  // namespace

Result<Statement> Parser::Parse(const std::string& sql) {
  DL_TRACE_SPAN("sql.parse", "sql");
  Lexer lexer(sql);
  DL_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  DL_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  parser.Match(TokenType::kSemicolon);
  if (parser.Peek().type != TokenType::kEnd) {
    return parser.ErrorHere("trailing input after statement");
  }
  return stmt;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect(
    const std::string& sql) {
  DL_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  return std::move(stmt.select);
}

Result<std::vector<Statement>> Parser::ParseScript(const std::string& sql) {
  Lexer lexer(sql);
  DL_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  std::vector<Statement> out;
  while (parser.Peek().type != TokenType::kEnd) {
    DL_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
    out.push_back(std::move(stmt));
    if (!parser.Match(TokenType::kSemicolon)) break;
  }
  if (parser.Peek().type != TokenType::kEnd) {
    return parser.ErrorHere("trailing input after script");
  }
  return out;
}

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[i];
}

Token Parser::Advance() {
  Token tok = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return tok;
}

bool Parser::MatchKeyword(const char* kw) {
  if (Peek().IsKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchOperator(const char* op) {
  if (Peek().IsOperator(op)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::Match(TokenType type) {
  if (Peek().type == type) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType type, const char* what) {
  if (Peek().type != type) {
    return ErrorHere(std::string("expected ") + what);
  }
  Advance();
  return Status::OK();
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!Peek().IsKeyword(kw)) {
    return ErrorHere(std::string("expected keyword '") + kw + "'");
  }
  Advance();
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& tok = Peek();
  std::string got =
      tok.type == TokenType::kEnd ? "end of input" : "'" + tok.text + "'";
  return Status::InvalidArgument(message + ", got " + got + " at byte " +
                                 std::to_string(tok.position));
}

Result<Statement> Parser::ParseStatement() {
  Statement stmt;
  const Token& tok = Peek();
  if (tok.IsKeyword("select") || tok.type == TokenType::kLParen) {
    stmt.kind = StatementKind::kSelect;
    DL_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
    return stmt;
  }
  if (tok.IsKeyword("insert")) {
    stmt.kind = StatementKind::kInsert;
    DL_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
    return stmt;
  }
  if (tok.IsKeyword("create")) {
    stmt.kind = StatementKind::kCreateTable;
    DL_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
    return stmt;
  }
  if (tok.IsKeyword("delete")) {
    stmt.kind = StatementKind::kDelete;
    DL_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
    return stmt;
  }
  if (tok.IsKeyword("drop")) {
    stmt.kind = StatementKind::kDropTable;
    DL_ASSIGN_OR_RETURN(stmt.drop_table, ParseDropTable());
    return stmt;
  }
  // EXPLAIN [ANALYZE] SELECT ... — matched as an identifier so "explain"
  // stays usable as a table or column name everywhere else.
  if (tok.type == TokenType::kIdentifier &&
      EqualsIgnoreCase(tok.text, "explain")) {
    Advance();
    stmt.kind = StatementKind::kExplain;
    stmt.explain = std::make_unique<ExplainStmt>();
    if (Peek().type == TokenType::kIdentifier &&
        EqualsIgnoreCase(Peek().text, "analyze")) {
      Advance();
      stmt.explain->analyze = true;
    }
    DL_ASSIGN_OR_RETURN(stmt.explain->select, ParseSelectStmt());
    return stmt;
  }
  return ErrorHere("expected SELECT, INSERT, CREATE, DELETE, DROP or EXPLAIN");
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectStmt() {
  // A UNION chain: member (UNION [ALL] member)*, where a member is a core
  // SELECT or a parenthesized select. A trailing ORDER BY / LIMIT parses
  // onto the last core member but orders and limits the whole chain, so it
  // moves to the head, whose clause the executor applies to the union
  // result. Anywhere else in a chain the clause would apply to one member,
  // which the executor does not do: that is Unsupported.
  auto has_clause = [](const SelectStmt& s) {
    return !s.order_by.empty() || s.limit.has_value();
  };
  auto member_clause = [](bool parenthesized) {
    return Status::Unsupported(
        parenthesized
            ? "ORDER BY / LIMIT inside a parenthesized UNION member"
            : "ORDER BY / LIMIT before UNION (it may only follow the last "
              "member, where it applies to the whole union)");
  };
  bool parenthesized = false;
  DL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> head,
                      ParseUnionMember(&parenthesized));
  SelectStmt* last = head.get();  // last member as written
  SelectStmt* tail = head.get();  // end of the flattened chain
  while (Peek().IsKeyword("union")) {
    if (has_clause(*last)) return member_clause(parenthesized);
    Advance();
    bool all = MatchKeyword("all");
    DL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> next,
                        ParseUnionMember(&parenthesized));
    last = next.get();
    tail->union_all = all;
    tail->union_next = std::move(next);
    // Follow to the end of any chain the parenthesized select carried.
    tail = tail->union_next.get();
    while (tail->union_next) tail = tail->union_next.get();
  }
  if (last != head.get() && has_clause(*last)) {
    if (parenthesized) return member_clause(true);
    head->order_by = std::move(last->order_by);
    last->order_by.clear();
    head->limit = last->limit;
    last->limit.reset();
  }
  return head;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseUnionMember(
    bool* parenthesized) {
  *parenthesized = Peek().type == TokenType::kLParen &&
                   Peek(1).IsKeyword("select");
  if (!*parenthesized) return ParseSelectCore();
  Advance();  // (
  DL_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> member, ParseSelectStmt());
  DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
  return member;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectCore() {
  DL_RETURN_NOT_OK(ExpectKeyword("select"));
  auto stmt = std::make_unique<SelectStmt>();

  if (MatchKeyword("distinct")) {
    if (MatchKeyword("on")) {
      DL_RETURN_NOT_OK(Expect(TokenType::kLParen, "'(' after DISTINCT ON"));
      do {
        DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->distinct_on.push_back(std::move(e));
      } while (Match(TokenType::kComma));
      DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      // Tolerate PostgreSQL-paper style "DISTINCT ON (x), y": an optional
      // comma between the ON list and the select list.
      Match(TokenType::kComma);
    } else {
      stmt->distinct = true;
    }
  }

  do {
    SelectItem item;
    DL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (MatchKeyword("as")) {
      if (Peek().type != TokenType::kIdentifier &&
          Peek().type != TokenType::kKeyword) {
        return ErrorHere("expected alias after AS");
      }
      item.alias = ToLower(Advance().text);
    } else if (Peek().type == TokenType::kIdentifier) {
      item.alias = ToLower(Advance().text);
    }
    stmt->items.push_back(std::move(item));
  } while (Match(TokenType::kComma));

  std::vector<ExprPtr> join_conditions;
  if (MatchKeyword("from")) {
    DL_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    stmt->from.push_back(std::move(first));
    while (true) {
      if (Match(TokenType::kComma)) {
        DL_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        continue;
      }
      if (Peek().IsKeyword("left") || Peek().IsKeyword("right") ||
          Peek().IsKeyword("outer")) {
        return Status::Unsupported(
            "outer joins are not supported (inner joins only)");
      }
      bool cross = false;
      if (Peek().IsKeyword("cross") && Peek(1).IsKeyword("join")) {
        Advance();
        cross = true;
      } else if (Peek().IsKeyword("inner") && Peek(1).IsKeyword("join")) {
        Advance();
      }
      if (!MatchKeyword("join")) break;
      // `a [INNER] JOIN b ON cond` desugars to the comma join plus a WHERE
      // conjunct, so the executor/analyses see one uniform form.
      DL_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      stmt->from.push_back(std::move(ref));
      if (cross) continue;
      DL_RETURN_NOT_OK(ExpectKeyword("on"));
      DL_ASSIGN_OR_RETURN(ExprPtr condition, ParseExpr());
      join_conditions.push_back(std::move(condition));
    }
  }

  if (MatchKeyword("where")) {
    DL_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (!join_conditions.empty()) {
    if (stmt->where != nullptr) {
      join_conditions.push_back(std::move(stmt->where));
    }
    stmt->where = AndTogether(std::move(join_conditions));
  }

  if (MatchKeyword("group")) {
    DL_RETURN_NOT_OK(ExpectKeyword("by"));
    do {
      DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (Match(TokenType::kComma));
  }

  if (MatchKeyword("having")) {
    DL_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }

  if (MatchKeyword("order")) {
    DL_RETURN_NOT_OK(ExpectKeyword("by"));
    do {
      OrderByItem item;
      DL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("desc")) {
        item.ascending = false;
      } else {
        MatchKeyword("asc");
      }
      stmt->order_by.push_back(std::move(item));
    } while (Match(TokenType::kComma));
  }

  if (MatchKeyword("limit")) {
    if (Peek().type != TokenType::kIntLiteral) {
      return ErrorHere("expected integer after LIMIT");
    }
    stmt->limit = Advance().int_value;
  }

  return stmt;
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  if (Match(TokenType::kLParen)) {
    DL_ASSIGN_OR_RETURN(ref.subquery, ParseSelectStmt());
    DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')' after subquery"));
    MatchKeyword("as");
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("subquery in FROM requires an alias");
    }
    ref.alias = ToLower(Advance().text);
    return ref;
  }
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  ref.table_name = ToLower(Advance().text);
  if (MatchKeyword("as")) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected alias after AS");
    }
    ref.alias = ToLower(Advance().text);
  } else if (Peek().type == TokenType::kIdentifier) {
    ref.alias = ToLower(Advance().text);
  }
  if (ref.alias.empty()) ref.alias = ref.table_name;
  return ref;
}

Result<std::unique_ptr<InsertStmt>> Parser::ParseInsert() {
  DL_RETURN_NOT_OK(ExpectKeyword("insert"));
  DL_RETURN_NOT_OK(ExpectKeyword("into"));
  auto stmt = std::make_unique<InsertStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  stmt->table_name = ToLower(Advance().text);
  if (Match(TokenType::kLParen)) {
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected column name");
      }
      stmt->columns.push_back(ToLower(Advance().text));
    } while (Match(TokenType::kComma));
    DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
  }
  DL_RETURN_NOT_OK(ExpectKeyword("values"));
  do {
    DL_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    std::vector<ExprPtr> row;
    do {
      DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      row.push_back(std::move(e));
    } while (Match(TokenType::kComma));
    DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    stmt->rows.push_back(std::move(row));
  } while (Match(TokenType::kComma));
  return stmt;
}

Result<std::unique_ptr<CreateTableStmt>> Parser::ParseCreateTable() {
  DL_RETURN_NOT_OK(ExpectKeyword("create"));
  DL_RETURN_NOT_OK(ExpectKeyword("table"));
  auto stmt = std::make_unique<CreateTableStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  stmt->table_name = ToLower(Advance().text);
  DL_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
  do {
    if (Peek().type != TokenType::kIdentifier &&
        Peek().type != TokenType::kKeyword) {
      return ErrorHere("expected column name");
    }
    std::string col = ToLower(Advance().text);
    if (Peek().type != TokenType::kKeyword &&
        Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column type");
    }
    std::string type_word = ToLower(Advance().text);
    DL_ASSIGN_OR_RETURN(ValueType type, ParseTypeName(type_word));
    stmt->schema.AddColumn(col, type);
  } while (Match(TokenType::kComma));
  DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
  return stmt;
}

Result<std::unique_ptr<DeleteStmt>> Parser::ParseDelete() {
  DL_RETURN_NOT_OK(ExpectKeyword("delete"));
  DL_RETURN_NOT_OK(ExpectKeyword("from"));
  auto stmt = std::make_unique<DeleteStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  stmt->table_name = ToLower(Advance().text);
  if (MatchKeyword("where")) {
    DL_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return stmt;
}

Result<std::unique_ptr<DropTableStmt>> Parser::ParseDropTable() {
  DL_RETURN_NOT_OK(ExpectKeyword("drop"));
  DL_RETURN_NOT_OK(ExpectKeyword("table"));
  auto stmt = std::make_unique<DropTableStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  stmt->table_name = ToLower(Advance().text);
  return stmt;
}

// --------------------------- expressions ----------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKeyword("or")) {
    DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = std::make_unique<BinaryExpr>("or", std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKeyword("and")) {
    DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = std::make_unique<BinaryExpr>("and", std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("not")) {
    DL_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return ExprPtr(std::make_unique<UnaryExpr>("not", std::move(operand)));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  const Token& tok = Peek();
  if (tok.type == TokenType::kOperator &&
      (tok.text == "=" || tok.text == "!=" || tok.text == "<" ||
       tok.text == "<=" || tok.text == ">" || tok.text == ">=")) {
    std::string op = Advance().text;
    DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return ExprPtr(
        std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs)));
  }
  if (tok.IsKeyword("is")) {
    Advance();
    bool negated = MatchKeyword("not");
    DL_RETURN_NOT_OK(ExpectKeyword("null"));
    return ExprPtr(std::make_unique<IsNullExpr>(std::move(lhs), negated));
  }

  // Postfix predicates: [NOT] IN / BETWEEN / LIKE.
  bool negated = false;
  if (tok.IsKeyword("not") &&
      (Peek(1).IsKeyword("in") || Peek(1).IsKeyword("between") ||
       Peek(1).IsKeyword("like"))) {
    Advance();
    negated = true;
  }
  if (MatchKeyword("in")) {
    DL_RETURN_NOT_OK(Expect(TokenType::kLParen, "'(' after IN"));
    std::vector<ExprPtr> items;
    do {
      DL_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
      items.push_back(std::move(item));
    } while (Match(TokenType::kComma));
    DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    return ExprPtr(std::make_unique<InListExpr>(std::move(lhs),
                                                std::move(items), negated));
  }
  if (MatchKeyword("between")) {
    // Desugared so join/witness analysis sees plain comparisons:
    //   x BETWEEN a AND b      →  x >= a AND x <= b
    //   x NOT BETWEEN a AND b  →  NOT (x >= a AND x <= b)
    DL_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    DL_RETURN_NOT_OK(ExpectKeyword("and"));
    DL_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr lower = std::make_unique<BinaryExpr>(">=", lhs->Clone(),
                                                 std::move(lo));
    ExprPtr upper =
        std::make_unique<BinaryExpr>("<=", std::move(lhs), std::move(hi));
    ExprPtr both = std::make_unique<BinaryExpr>("and", std::move(lower),
                                                std::move(upper));
    if (negated) {
      return ExprPtr(std::make_unique<UnaryExpr>("not", std::move(both)));
    }
    return both;
  }
  if (MatchKeyword("like")) {
    if (Peek().type != TokenType::kStringLiteral) {
      return ErrorHere("LIKE requires a string-literal pattern");
    }
    std::string pattern = Advance().text;
    return ExprPtr(std::make_unique<LikeExpr>(std::move(lhs),
                                              std::move(pattern), negated));
  }
  if (negated) {
    return ErrorHere("expected IN, BETWEEN or LIKE after NOT");
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAdditive() {
  DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (Peek().IsOperator("+") || Peek().IsOperator("-")) {
    std::string op = Advance().text;
    DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  DL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (Peek().IsOperator("*") || Peek().IsOperator("/") ||
         Peek().IsOperator("%")) {
    std::string op = Advance().text;
    DL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (MatchOperator("-")) {
    DL_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    // Fold negative literals so `-5` is a literal, not an expression.
    if (operand->kind() == ExprKind::kLiteral) {
      auto& lit = static_cast<LiteralExpr&>(*operand);
      if (lit.value.is_int64()) {
        return ExprPtr(std::make_unique<LiteralExpr>(Value(-lit.value.AsInt64())));
      }
      if (lit.value.is_double()) {
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value(-lit.value.AsDouble())));
      }
    }
    return ExprPtr(std::make_unique<UnaryExpr>("-", std::move(operand)));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();

  switch (tok.type) {
    case TokenType::kIntLiteral: {
      int64_t v = Advance().int_value;
      return ExprPtr(std::make_unique<LiteralExpr>(Value(v)));
    }
    case TokenType::kDoubleLiteral: {
      double v = Advance().double_value;
      return ExprPtr(std::make_unique<LiteralExpr>(Value(v)));
    }
    case TokenType::kStringLiteral: {
      std::string v = Advance().text;
      return ExprPtr(std::make_unique<LiteralExpr>(Value(std::move(v))));
    }
    case TokenType::kLParen: {
      Advance();
      DL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return e;
    }
    default:
      break;
  }

  if (tok.IsKeyword("null")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
  }
  if (tok.IsKeyword("true")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value(true)));
  }
  if (tok.IsKeyword("false")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value(false)));
  }

  // Aggregate functions: count/sum/avg/min/max are keywords.
  if (tok.type == TokenType::kKeyword &&
      (tok.text == "count" || tok.text == "sum" || tok.text == "avg" ||
       tok.text == "min" || tok.text == "max")) {
    std::string name = Advance().text;
    DL_RETURN_NOT_OK(Expect(TokenType::kLParen, "'(' after aggregate"));
    bool distinct = MatchKeyword("distinct");
    bool star = false;
    std::vector<ExprPtr> args;
    if (Peek().IsOperator("*")) {
      Advance();
      star = true;
    } else {
      DL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      args.push_back(std::move(arg));
    }
    DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    return ExprPtr(std::make_unique<FuncCallExpr>(name, distinct, star,
                                                  std::move(args)));
  }

  if (tok.IsOperator("*")) {
    Advance();
    return ExprPtr(std::make_unique<StarExpr>());
  }

  if (tok.type == TokenType::kIdentifier) {
    std::string first = ToLower(Advance().text);
    // Scalar function call: ident '(' expr [, expr]* ')'.
    if (Peek().type == TokenType::kLParen) {
      Advance();
      std::vector<ExprPtr> args;
      if (Peek().type != TokenType::kRParen) {
        do {
          DL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
      }
      DL_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return ExprPtr(std::make_unique<FuncCallExpr>(first, false, false,
                                                    std::move(args)));
    }
    if (Match(TokenType::kDot)) {
      if (Peek().IsOperator("*")) {
        Advance();
        return ExprPtr(std::make_unique<StarExpr>(first));
      }
      if (Peek().type != TokenType::kIdentifier &&
          Peek().type != TokenType::kKeyword) {
        return ErrorHere("expected column name after '.'");
      }
      std::string col = ToLower(Advance().text);
      return ExprPtr(std::make_unique<ColumnRefExpr>(first, std::move(col)));
    }
    return ExprPtr(std::make_unique<ColumnRefExpr>("", std::move(first)));
  }

  return ErrorHere("expected expression");
}

}  // namespace datalawyer
