#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "analysis/binder.h"
#include "analysis/eval.h"
#include "analysis/expr_program.h"
#include "sql/parser.h"
#include "storage/catalog_view.h"
#include "storage/database.h"

namespace datalawyer {
namespace {

/// Binds an expression by parsing "SELECT <expr> FROM t" against a
/// one-table catalog and evaluates it over the supplied row.
class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t",
                                TableSchema()
                                    .AddColumn("i", ValueType::kInt64)
                                    .AddColumn("d", ValueType::kDouble)
                                    .AddColumn("s", ValueType::kString)
                                    .AddColumn("b", ValueType::kBool)
                                    .AddColumn("n", ValueType::kInt64))
                    .ok());
    catalog_ = std::make_unique<DatabaseCatalog>(&db_);
  }

  Result<Value> EvalExpr(const std::string& expr_sql, Row row) {
    auto parsed = Parser::ParseSelect("SELECT " + expr_sql + " FROM t");
    if (!parsed.ok()) return parsed.status();
    stmts_.push_back(std::move(parsed).value());
    Binder binder(catalog_.get());
    auto bound = binder.Bind(*stmts_.back());
    if (!bound.ok()) return bound.status();
    bounds_.push_back(std::move(bound).value());
    rows_.push_back(std::move(row));
    EvalContext ctx{bounds_.back().get(), &rows_.back(), nullptr};
    return Eval(*stmts_.back()->items[0].expr, ctx);
  }

  /// Default row: i=10, d=2.5, s='abc', b=true, n=NULL.
  Row DefaultRow() {
    return Row{Value(int64_t{10}), Value(2.5), Value("abc"), Value(true),
               Value::Null()};
  }

  Database db_;
  std::unique_ptr<DatabaseCatalog> catalog_;
  std::vector<std::unique_ptr<SelectStmt>> stmts_;
  std::vector<std::unique_ptr<BoundQuery>> bounds_;
  std::vector<Row> rows_;
};

TEST_F(EvalTest, ColumnAccessAndArithmetic) {
  EXPECT_EQ(*EvalExpr("i + 5", DefaultRow()), Value(int64_t{15}));
  EXPECT_EQ(*EvalExpr("i * d", DefaultRow()), Value(25.0));
  EXPECT_EQ(*EvalExpr("i % 3", DefaultRow()), Value(int64_t{1}));
  EXPECT_EQ(*EvalExpr("-i", DefaultRow()), Value(int64_t{-10}));
  EXPECT_EQ(*EvalExpr("i - d", DefaultRow()), Value(7.5));
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_EQ(*EvalExpr("i > 5", DefaultRow()), Value(true));
  EXPECT_EQ(*EvalExpr("s = 'abc'", DefaultRow()), Value(true));
  EXPECT_EQ(*EvalExpr("s != 'abc'", DefaultRow()), Value(false));
  EXPECT_EQ(*EvalExpr("d <= 2.5", DefaultRow()), Value(true));
}

struct ThreeValuedCase {
  const char* expr;
  int expected;  // 1 true, 0 false, -1 null
};

class ThreeValuedLogicTest
    : public EvalTest,
      public ::testing::WithParamInterface<ThreeValuedCase> {};

TEST_P(ThreeValuedLogicTest, Matrix) {
  auto result = EvalExpr(GetParam().expr, DefaultRow());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  switch (GetParam().expected) {
    case 1:
      EXPECT_EQ(*result, Value(true)) << GetParam().expr;
      break;
    case 0:
      EXPECT_EQ(*result, Value(false)) << GetParam().expr;
      break;
    default:
      EXPECT_TRUE(result->is_null()) << GetParam().expr;
  }
}

// n is NULL in the default row, so `n = n` is NULL etc. (Kleene logic).
INSTANTIATE_TEST_SUITE_P(
    Kleene, ThreeValuedLogicTest,
    ::testing::Values(
        ThreeValuedCase{"TRUE AND TRUE", 1},
        ThreeValuedCase{"TRUE AND FALSE", 0},
        ThreeValuedCase{"TRUE AND n = 1", -1},
        ThreeValuedCase{"FALSE AND n = 1", 0},   // false dominates null
        ThreeValuedCase{"n = 1 AND FALSE", 0},
        ThreeValuedCase{"TRUE OR n = 1", 1},     // true dominates null
        ThreeValuedCase{"n = 1 OR TRUE", 1},
        ThreeValuedCase{"FALSE OR n = 1", -1},
        ThreeValuedCase{"NOT (n = 1)", -1},
        ThreeValuedCase{"NOT FALSE", 1},
        ThreeValuedCase{"n IS NULL", 1},
        ThreeValuedCase{"n IS NOT NULL", 0},
        ThreeValuedCase{"i IS NULL", 0},
        ThreeValuedCase{"n + 1 IS NULL", 1},     // null propagates through +
        ThreeValuedCase{"n = n", -1}));

TEST_F(EvalTest, TypeErrorsSurface) {
  EXPECT_FALSE(EvalExpr("s + 1", DefaultRow()).ok());
  EXPECT_FALSE(EvalExpr("i AND TRUE", DefaultRow()).ok());
  EXPECT_FALSE(EvalExpr("NOT i", DefaultRow()).ok());
  EXPECT_FALSE(EvalExpr("-s", DefaultRow()).ok());
  EXPECT_FALSE(EvalExpr("i = 'ten'", DefaultRow()).ok());
  EXPECT_FALSE(EvalExpr("i / 0", DefaultRow()).ok());
}

TEST_F(EvalTest, ShortCircuitSkipsErrors) {
  // FALSE AND <error> short-circuits before the bad comparison evaluates.
  auto result = EvalExpr("FALSE AND i = 'ten'", DefaultRow());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, Value(false));
  auto or_result = EvalExpr("TRUE OR i = 'ten'", DefaultRow());
  ASSERT_TRUE(or_result.ok());
  EXPECT_EQ(*or_result, Value(true));
}

TEST_F(EvalTest, PredicateSemantics) {
  auto parsed = Parser::ParseSelect("SELECT 1 FROM t WHERE n = 1");
  ASSERT_TRUE(parsed.ok());
  stmts_.push_back(std::move(parsed).value());
  Binder binder(catalog_.get());
  auto bound = binder.Bind(*stmts_.back());
  ASSERT_TRUE(bound.ok());
  bounds_.push_back(std::move(bound).value());
  rows_.push_back(DefaultRow());
  EvalContext ctx{bounds_.back().get(), &rows_.back(), nullptr};
  // NULL predicate is "not true".
  auto keep = EvalPredicate(*stmts_.back()->where, ctx);
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(*keep);
}

// ---------------------------------------------------------------------------
// Differential test: a compiled ExprProgram against Eval, the reference.
// ---------------------------------------------------------------------------

/// Random SQL expression text over the columns of `t` and `u` (both
/// (i INT, d DOUBLE, s TEXT, b BOOL, n INT)), with aggregate call sites
/// when `aggregates` is set.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  std::string Expr(int depth, bool aggregates) {
    int pick = Pick(depth <= 0 ? 2 : 16);
    switch (pick) {
      case 0:
        return Column();
      case 1:
        return Literal();
      case 2:
      case 3:
        return "(" + Expr(depth - 1, aggregates) + " " +
               OneOf({"=", "!=", "<", "<=", ">", ">="}) + " " +
               Expr(depth - 1, aggregates) + ")";
      case 4:
      case 5:
        return "(" + Expr(depth - 1, aggregates) + " " +
               OneOf({"+", "-", "*", "/", "%"}) + " " +
               Expr(depth - 1, aggregates) + ")";
      case 6:
      case 7:
        return "(" + Expr(depth - 1, aggregates) + " " +
               OneOf({"AND", "OR"}) + " " + Expr(depth - 1, aggregates) + ")";
      case 8:
        return "(NOT " + Expr(depth - 1, aggregates) + ")";
      case 9:
        return "(- " + Expr(depth - 1, aggregates) + ")";
      case 10:
        return "(" + Expr(depth - 1, aggregates) +
               (Pick(2) == 0 ? " IS NULL)" : " IS NOT NULL)");
      case 11: {
        std::string out = "(" + Expr(depth - 1, aggregates) +
                          (Pick(2) == 0 ? " IN (" : " NOT IN (");
        int n = 1 + Pick(3);
        for (int k = 0; k < n; ++k) {
          if (k > 0) out += ", ";
          out += Pick(4) == 0 ? "NULL" : Expr(depth - 2, aggregates);
        }
        return out + "))";
      }
      case 12:
        return "(" + Expr(depth - 1, aggregates) +
               (Pick(2) == 0 ? " LIKE '" : " NOT LIKE '") +
               OneOf({"a%", "%b_", "", "_", "%"}) + "')";
      case 13:
        return OneOf({"lower", "upper", "length", "abs"}) + "(" +
               Expr(depth - 1, aggregates) + ")";
      default:
        if (!aggregates) return Column();
        if (Pick(5) == 0) return "COUNT(*)";
        // Aggregate arguments see the input row: no nested aggregates.
        return OneOf({"COUNT", "SUM", "MIN", "MAX"}) + "(" +
               Expr(depth - 1, false) + ")";
    }
  }

  /// A random value: mostly the column's own type, sometimes NULL or a
  /// value of another type (the evaluator does not trust declared types).
  Value RandomValue(int column) {
    int kind = Pick(10) == 0 ? Pick(5) : column;
    if (Pick(6) == 0 || kind == 4) {
      if (kind == 4 && Pick(2) == 0) return Value(int64_t(Pick(7) - 3));
      return Value::Null();
    }
    switch (kind) {
      case 0:
        return Value(int64_t(Pick(9) - 4));
      case 1:
        return Value(double(Pick(9) - 4) / 2.0);
      case 2:
        return Value(OneOf({"", "a", "ab", "Abc", "xb"}));
      default:
        return Value(Pick(2) == 0);
    }
  }

  int Pick(int n) { return int(rng_() % uint64_t(n)); }

 private:
  std::string Column() {
    return OneOf({"t.", "u."}) + OneOf({"i", "d", "s", "b", "n"});
  }
  std::string Literal() {
    switch (Pick(6)) {
      case 0:
        return std::to_string(Pick(7) - 3);  // includes 0 for `/ 0`, `% 0`
      case 1:
        return OneOf({"0.0", "1.5", "2.0", "0.5"});
      case 2:
        return OneOf({"'a'", "'ab'", "''", "'Abc'"});
      case 3:
        return OneOf({"TRUE", "FALSE"});
      case 4:
        return "NULL";
      default:
        return std::to_string(Pick(3));
    }
  }
  std::string OneOf(std::initializer_list<const char*> options) {
    return *(options.begin() + Pick(int(options.size())));
  }

  std::mt19937_64 rng_;
};

/// Same value (structurally), or the same Status code and message.
::testing::AssertionResult SameOutcome(const Result<Value>& want,
                                       const Status& got_status,
                                       const Value& got) {
  if (!want.ok() || !got_status.ok()) {
    if (want.status().code() == got_status.code() &&
        want.status().message() == got_status.message()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "Eval: " << want.status().ToString()
           << " program: " << got_status.ToString();
  }
  if (*want == got) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "Eval: " << want->ToString()
                                       << " program: " << got.ToString();
}

TEST_F(EvalTest, CompiledProgramsMatchEvalOnRandomExpressions) {
  ASSERT_TRUE(db_.CreateTable("u",
                              TableSchema()
                                  .AddColumn("i", ValueType::kInt64)
                                  .AddColumn("d", ValueType::kDouble)
                                  .AddColumn("s", ValueType::kString)
                                  .AddColumn("b", ValueType::kBool)
                                  .AddColumn("n", ValueType::kInt64))
                  .ok());
  constexpr size_t kWidth = 5;  // columns per table; u's slots follow t's
  Binder binder(catalog_.get());
  size_t compared = 0;
  size_t errors = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    ExprGen gen(seed);
    for (int e = 0; e < 700; ++e) {
      bool grouped = gen.Pick(3) == 0;
      std::string sql = gen.Expr(3, grouped);
      auto parsed = Parser::ParseSelect("SELECT " + sql + " FROM t, u");
      ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
      auto bound = binder.Bind(**parsed);
      if (!bound.ok()) continue;
      const BoundQuery& bq = **bound;
      const ::datalawyer::Expr& expr = *(*parsed)->items[0].expr;

      // Layouts the executor uses: plain full rows; u's slots read from a
      // second row (join residuals); u's row alone with every other slot
      // NULL (scan filters). Grouped expressions read aggregate values. The
      // plain program also runs over a too-narrow row.
      ProgramLayout plain;
      plain.grouped = grouped;
      ProgramLayout residual = plain;
      residual.window_lo = kWidth;
      residual.window_hi = 2 * kWidth;
      ProgramLayout scan = residual;
      scan.outside_window_null = true;
      ExprProgram programs[] = {ExprProgram::Compile(expr, &bq, plain),
                                ExprProgram::Compile(expr, &bq, residual),
                                ExprProgram::Compile(expr, &bq, scan)};
      std::vector<ExprProgram> arg_programs;
      for (const FuncCallExpr* agg : bq.aggregates) {
        arg_programs.push_back(
            agg->star ? ExprProgram()
                      : ExprProgram::Compile(*agg->args[0], &bq));
      }

      for (int r = 0; r < 6; ++r) {
        Row row(2 * kWidth);
        for (size_t c = 0; c < row.size(); ++c) {
          row[c] = gen.RandomValue(int(c % kWidth));
        }
        std::unordered_map<const ::datalawyer::Expr*, Value> agg_map;
        std::vector<Value> aggs;
        for (const FuncCallExpr* agg : bq.aggregates) {
          Value v = gen.RandomValue(gen.Pick(4));
          agg_map[agg] = v;
          aggs.push_back(v);
        }
        Row scan_row(2 * kWidth);  // the scan's full row: t's slots NULL
        for (size_t c = kWidth; c < row.size(); ++c) scan_row[c] = row[c];
        Row left_row = row;  // the join's left row: u's slots NULL
        for (size_t c = kWidth; c < row.size(); ++c) left_row[c] = Value();
        RowView u_row(row.data() + kWidth, kWidth);

        // A row narrower than the slot layout raises at the column read.
        Row narrow_row(row.begin(), row.begin() + kWidth + 2);

        ProgramInput inputs[] = {{row, {}, aggs.data()},
                                 {left_row, u_row, aggs.data()},
                                 {{}, u_row, aggs.data()},
                                 {narrow_row, {}, aggs.data()}};
        const Row* eval_rows[] = {&row, &row, &scan_row, &narrow_row};
        for (int layout = 0; layout < 4; ++layout) {
          EvalContext ctx{&bq, eval_rows[layout], grouped ? &agg_map : nullptr};
          Result<Value> want = Eval(expr, ctx);
          Value got;
          const ExprProgram& program = programs[layout % 3];
          Status st = program.Evaluate(inputs[layout], &got);
          ASSERT_TRUE(SameOutcome(want, st, got))
              << sql << " layout " << layout << " row " << RowToString(row);
          Result<bool> want_keep = EvalPredicate(expr, ctx);
          bool keep = false;
          Status test_st = program.Test(inputs[layout], &keep);
          ASSERT_EQ(want_keep.ok(), test_st.ok()) << sql;
          if (want_keep.ok()) {
            ASSERT_EQ(*want_keep, keep) << sql;
          } else {
            ASSERT_EQ(want_keep.status().ToString(), test_st.ToString())
                << sql;
          }
          ++compared;
          if (!want.ok()) ++errors;
        }
        // Aggregate call sites: each argument over the input row.
        for (size_t a = 0; a < bq.aggregates.size(); ++a) {
          if (bq.aggregates[a]->star) continue;
          EvalContext ctx{&bq, &row, nullptr};
          Value got;
          Status st = arg_programs[a].Evaluate({row, {}, nullptr}, &got);
          ASSERT_TRUE(SameOutcome(Eval(*bq.aggregates[a]->args[0], ctx), st,
                                  got))
              << sql << " aggregate argument " << a;
        }
      }
    }
  }
  // The generator reaches both outcomes often enough to mean something.
  EXPECT_GT(compared, 30000u);
  EXPECT_GT(errors, compared / 20);
  EXPECT_LT(errors, compared * 3 / 4);
}

}  // namespace
}  // namespace datalawyer
