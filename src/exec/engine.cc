#include "exec/engine.h"

#include <unordered_set>

#include "analysis/binder.h"
#include "analysis/eval.h"
#include "analysis/expr_program.h"
#include "sql/parser.h"

namespace datalawyer {

namespace {

/// Evaluates a constant expression (literals and arithmetic over them).
Result<Value> EvalConstant(const Expr& expr) {
  EvalContext ctx;  // no bindings: column refs will fail, as they should
  return Eval(expr, ctx);
}

/// Checks/coerces `v` for a column of type `type` (int widens to double).
Result<Value> CoerceForColumn(Value v, const ColumnDef& col) {
  if (v.is_null()) return v;
  if (v.type() == col.type) return v;
  if (col.type == ValueType::kDouble && v.is_int64()) {
    return Value(double(v.AsInt64()));
  }
  return Status::TypeError("value " + v.ToString() + " does not fit column " +
                           col.name + " of type " +
                           ValueTypeToString(col.type));
}

/// Wraps rendered plan text into a one-column result, one row per line, so
/// EXPLAIN output flows through the normal QueryResult machinery.
QueryResult PlanTextResult(const std::string& text) {
  QueryResult result;
  result.schema.AddColumn("query plan", ValueType::kString);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    result.rows.push_back(Row{Value(text.substr(start, end - start))});
    start = end + 1;
  }
  return result;
}

}  // namespace

Result<QueryResult> Engine::ExecuteSql(const std::string& sql,
                                       ExecOptions options) {
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  return ExecuteStatement(stmt, options);
}

Result<QueryResult> Engine::ExecuteScript(const std::string& sql) {
  DL_ASSIGN_OR_RETURN(std::vector<Statement> stmts, Parser::ParseScript(sql));
  QueryResult last;
  for (const Statement& stmt : stmts) {
    DL_ASSIGN_OR_RETURN(last, ExecuteStatement(stmt));
  }
  return last;
}

Result<std::string> Engine::ExplainSql(const std::string& sql) const {
  DL_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements only");
  }
  Executor executor(&db_catalog_);
  return executor.Explain(*stmt.select);
}

Result<QueryResult> Engine::ExecuteStatement(const Statement& stmt,
                                             ExecOptions options) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, nullptr, options);
    case StatementKind::kInsert:
      DL_RETURN_NOT_OK(ExecuteInsert(*stmt.insert));
      return QueryResult{};
    case StatementKind::kCreateTable:
      DL_RETURN_NOT_OK(db_->CreateTable(stmt.create_table->table_name,
                                        stmt.create_table->schema)
                           .status());
      return QueryResult{};
    case StatementKind::kDelete:
      DL_RETURN_NOT_OK(ExecuteDelete(*stmt.del));
      return QueryResult{};
    case StatementKind::kDropTable:
      DL_RETURN_NOT_OK(db_->DropTable(stmt.drop_table->table_name));
      return QueryResult{};
    case StatementKind::kExplain: {
      Executor executor(&db_catalog_, options);
      DL_ASSIGN_OR_RETURN(std::string text,
                          stmt.explain->analyze
                              ? executor.ExplainAnalyze(*stmt.explain->select)
                              : executor.Explain(*stmt.explain->select));
      return PlanTextResult(text);
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Engine::ExecuteSelect(const SelectStmt& stmt,
                                          const CatalogView* catalog,
                                          ExecOptions options) const {
  Executor executor(catalog != nullptr ? catalog : &db_catalog_, options);
  return executor.Execute(stmt);
}

Status Engine::ExecuteInsert(const InsertStmt& stmt) {
  DL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table_name));
  const TableSchema& schema = table->schema();

  // Column position mapping (schema order when unspecified).
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.NumColumns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      auto idx = schema.FindColumn(name);
      if (!idx.has_value()) {
        return Status::NotFound("no column " + name + " in " +
                                stmt.table_name);
      }
      positions.push_back(*idx);
    }
  }

  for (const std::vector<ExprPtr>& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT row arity does not match column list");
    }
    Row row(schema.NumColumns(), Value::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      DL_ASSIGN_OR_RETURN(Value v, EvalConstant(*exprs[i]));
      DL_ASSIGN_OR_RETURN(
          row[positions[i]],
          CoerceForColumn(std::move(v), schema.column(positions[i])));
    }
    DL_RETURN_NOT_OK(table->Append(std::move(row)).status());
  }
  return Status::OK();
}

Status Engine::ExecuteDelete(const DeleteStmt& stmt) {
  DL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table_name));
  if (stmt.where == nullptr) {
    table->Clear();
    return Status::OK();
  }

  // Bind the predicate via a synthetic single-table SELECT scope.
  SelectStmt probe;
  probe.items.push_back(SelectItem{std::make_unique<StarExpr>(), ""});
  TableRef ref;
  ref.table_name = stmt.table_name;
  ref.alias = stmt.table_name;
  probe.from.push_back(std::move(ref));
  probe.where = stmt.where->Clone();

  Binder binder(&db_catalog_);
  DL_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bq, binder.Bind(probe));

  ExprProgram where = ExprProgram::Compile(*probe.where, bq.get());
  std::unordered_set<int64_t> to_remove;
  for (size_t i = 0; i < table->NumRows(); ++i) {
    ProgramInput in;
    in.row = table->RowAt(i);
    bool match = false;
    DL_RETURN_NOT_OK(where.Test(in, &match));
    if (match) to_remove.insert(table->RowIdAt(i));
  }
  table->RemoveIds(to_remove);
  return Status::OK();
}

}  // namespace datalawyer
