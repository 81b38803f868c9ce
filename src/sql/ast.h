#ifndef DATALAWYER_SQL_AST_H_
#define DATALAWYER_SQL_AST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/schema.h"

namespace datalawyer {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,     ///< `*` or `t.*` in a select list / COUNT(*)
  kBinary,   ///< arithmetic, comparison, AND, OR
  kUnary,    ///< NOT, unary minus
  kFuncCall, ///< aggregate call
  kIsNull,   ///< expr IS [NOT] NULL
  kInList,   ///< expr [NOT] IN (v1, v2, ...)
  kLike,     ///< expr [NOT] LIKE 'pattern'
};

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Base of all expression nodes. Nodes are owned via unique_ptr; policy
/// rewrites (§4) deep-clone with Clone() and edit the copies.
class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  virtual ExprPtr Clone() const = 0;
  /// SQL text round-trip (parenthesized where needed).
  virtual std::string ToString() const = 0;

  /// Pre-order traversal over this node and all children.
  void Visit(const std::function<void(const Expr&)>& fn) const;

 private:
  ExprKind kind_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value(std::move(value)) {}
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value);
  }
  std::string ToString() const override { return value.ToString(); }

  Value value;
};

class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string column)
      : Expr(ExprKind::kColumnRef),
        qualifier(std::move(qualifier)),
        column(std::move(column)) {}
  ExprPtr Clone() const override {
    return std::make_unique<ColumnRefExpr>(qualifier, column);
  }
  std::string ToString() const override {
    return qualifier.empty() ? column : qualifier + "." + column;
  }

  std::string qualifier;  ///< table alias; empty when unqualified
  std::string column;
};

class StarExpr : public Expr {
 public:
  explicit StarExpr(std::string qualifier = "")
      : Expr(ExprKind::kStar), qualifier(std::move(qualifier)) {}
  ExprPtr Clone() const override {
    return std::make_unique<StarExpr>(qualifier);
  }
  std::string ToString() const override {
    return qualifier.empty() ? "*" : qualifier + ".*";
  }

  std::string qualifier;  ///< empty for bare `*`
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(std::string op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kBinary),
        op(std::move(op)),
        lhs(std::move(lhs)),
        rhs(std::move(rhs)) {}
  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op, lhs->Clone(), rhs->Clone());
  }
  std::string ToString() const override;

  std::string op;  ///< "and" "or" "=" "!=" "<" "<=" ">" ">=" "+" "-" "*" "/" "%"
  ExprPtr lhs;
  ExprPtr rhs;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(std::string op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op(std::move(op)), operand(std::move(operand)) {}
  ExprPtr Clone() const override {
    return std::make_unique<UnaryExpr>(op, operand->Clone());
  }
  std::string ToString() const override {
    return "(" + op + " " + operand->ToString() + ")";
  }

  std::string op;  ///< "not" or "-"
  ExprPtr operand;
};

/// Aggregate (or future scalar) function call. COUNT(*) is represented with
/// `star = true` and empty args.
class FuncCallExpr : public Expr {
 public:
  FuncCallExpr(std::string name, bool distinct, bool star,
               std::vector<ExprPtr> args)
      : Expr(ExprKind::kFuncCall),
        name(std::move(name)),
        distinct(distinct),
        star(star),
        args(std::move(args)) {}
  ExprPtr Clone() const override;
  std::string ToString() const override;

  /// True for count/sum/avg/min/max (lowercased name).
  bool IsAggregate() const;

  std::string name;  ///< lowercased
  bool distinct;
  bool star;
  std::vector<ExprPtr> args;
};

/// `expr [NOT] IN (item, item, ...)`. BETWEEN is desugared by the parser
/// into a >= / <= conjunction instead, so join analysis sees plain
/// comparisons.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr operand, std::vector<ExprPtr> items, bool negated)
      : Expr(ExprKind::kInList),
        operand(std::move(operand)),
        items(std::move(items)),
        negated(negated) {}
  ExprPtr Clone() const override;
  std::string ToString() const override;

  ExprPtr operand;
  std::vector<ExprPtr> items;
  bool negated;
};

/// `expr [NOT] LIKE 'pattern'` with SQL wildcards % (any sequence) and
/// _ (any single character). The pattern must be a string literal.
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr operand, std::string pattern, bool negated)
      : Expr(ExprKind::kLike),
        operand(std::move(operand)),
        pattern(std::move(pattern)),
        negated(negated) {}
  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(operand->Clone(), pattern, negated);
  }
  std::string ToString() const override {
    return "(" + operand->ToString() + (negated ? " NOT LIKE '" : " LIKE '") +
           pattern + "')";
  }

  ExprPtr operand;
  std::string pattern;
  bool negated;
};

class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr operand, bool negated)
      : Expr(ExprKind::kIsNull), operand(std::move(operand)), negated(negated) {}
  ExprPtr Clone() const override {
    return std::make_unique<IsNullExpr>(operand->Clone(), negated);
  }
  std::string ToString() const override {
    return "(" + operand->ToString() + (negated ? " IS NOT NULL" : " IS NULL") +
           ")";
  }

  ExprPtr operand;
  bool negated;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct SelectStmt;

/// One select-list item (`expr [AS alias]`).
struct SelectItem {
  ExprPtr expr;
  std::string alias;  ///< empty if none

  SelectItem Clone() const {
    return SelectItem{expr->Clone(), alias};
  }
};

/// One FROM item: either a base table or a parenthesized subquery, each with
/// an optional alias. The effective binding name is alias if present, else
/// the table name.
struct TableRef {
  std::string table_name;               ///< empty for subqueries
  std::unique_ptr<SelectStmt> subquery; ///< null for base tables
  std::string alias;

  bool IsSubquery() const { return subquery != nullptr; }
  /// Name this FROM item binds in scope.
  std::string BindingName() const {
    return alias.empty() ? table_name : alias;
  }
  TableRef Clone() const;
  std::string ToString() const;
};

/// ORDER BY element.
struct OrderByItem {
  ExprPtr expr;
  bool ascending = true;

  OrderByItem Clone() const { return OrderByItem{expr->Clone(), ascending}; }
};

/// A (possibly UNION-chained) SELECT statement covering the paper's policy
/// language (§3.1): select-from-where-groupby-having with DISTINCT /
/// DISTINCT ON, subqueries in FROM, and UNION.
struct SelectStmt {
  bool distinct = false;
  std::vector<ExprPtr> distinct_on;  ///< non-empty => DISTINCT ON (...)
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                 ///< null if absent
  std::vector<ExprPtr> group_by;
  ExprPtr having;                ///< null if absent
  /// On a UNION chain's head these order and limit the whole union; the
  /// parser leaves them empty on every other member.
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;

  /// Next member of a UNION chain (left-deep); null at the end.
  std::unique_ptr<SelectStmt> union_next;
  bool union_all = false;  ///< applies to the link to union_next

  std::unique_ptr<SelectStmt> Clone() const;
  std::string ToString() const;
};

/// INSERT INTO t [(cols)] VALUES (...), (...).
struct InsertStmt {
  std::string table_name;
  std::vector<std::string> columns;  ///< empty = schema order
  std::vector<std::vector<ExprPtr>> rows;
};

/// CREATE TABLE t (col TYPE, ...).
struct CreateTableStmt {
  std::string table_name;
  TableSchema schema;
};

/// DELETE FROM t [WHERE ...].
struct DeleteStmt {
  std::string table_name;
  ExprPtr where;  ///< null = delete all
};

/// DROP TABLE t.
struct DropTableStmt {
  std::string table_name;
};

/// EXPLAIN [ANALYZE] SELECT ... — renders the physical plan; with ANALYZE
/// the plan is executed once with operator profiling and annotated with the
/// observed row counts and wall times. EXPLAIN is lexed as an identifier,
/// not a reserved keyword, so tables and columns named "explain" keep
/// working.
struct ExplainStmt {
  bool analyze = false;
  std::unique_ptr<SelectStmt> select;
};

enum class StatementKind {
  kSelect,
  kInsert,
  kCreateTable,
  kDelete,
  kDropTable,
  kExplain,
};

/// Any parsed statement; exactly the member matching `kind` is set.
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<ExplainStmt> explain;
};

// ---------------------------------------------------------------------------
// Expression helpers shared by the analyzers and policy rewrites
// ---------------------------------------------------------------------------

/// Splits a conjunction `a AND b AND c` into [a, b, c] (clones the leaves).
std::vector<ExprPtr> SplitConjuncts(const Expr& expr);

/// Non-cloning variant: pointers into the original tree. Used by the
/// executor, whose slot bindings are keyed by node identity.
std::vector<const Expr*> ConjunctPtrs(const Expr& expr);

/// Rebuilds a conjunction from conjuncts; returns null for an empty list.
ExprPtr AndTogether(std::vector<ExprPtr> conjuncts);

/// Collects the distinct qualifiers of every column reference in `expr`
/// (lowercased; unqualified references contribute "").
std::vector<std::string> CollectQualifiers(const Expr& expr);

/// True if any column reference in `expr` has one of `qualifiers` (matched
/// case-insensitively).
bool ReferencesAnyQualifier(const Expr& expr,
                            const std::vector<std::string>& qualifiers);

/// True if the expression contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

}  // namespace datalawyer

#endif  // DATALAWYER_SQL_AST_H_
