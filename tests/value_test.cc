#include <gtest/gtest.h>

#include "common/value.h"
#include "common/value_hash.h"

namespace datalawyer {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);

  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{1}).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("1").is_numeric());
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).ToDouble(), 7.0);
  EXPECT_EQ(Value("xy").AsString(), "xy");
}

TEST(ValueTest, StructuralEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(3.0));  // different types
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value(true), Value(int64_t{1}));
}

TEST(ValueTest, HashConsistentWithJoinSemantics) {
  // 1 and 1.0 must meet in a hash join probe.
  EXPECT_EQ(Value(int64_t{1}).Hash(), Value(1.0).Hash());
  EXPECT_EQ(Value("k").Hash(), Value("k").Hash());
  EXPECT_NE(Value("k").Hash(), Value("K").Hash());
}

struct CompareCase {
  Value lhs;
  const char* op;
  Value rhs;
  Value expected;  // Null means SQL NULL
};

class ValueCompareTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(ValueCompareTest, Compare) {
  const CompareCase& c = GetParam();
  CompareOp op;
  ASSERT_TRUE(ParseCompareOp(c.op, &op)) << c.op;
  auto result = Value::Compare(c.lhs, op, c.rhs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, c.expected)
      << c.lhs.ToString() << " " << c.op << " " << c.rhs.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Ints, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value(int64_t{1}), "=", Value(int64_t{1}), Value(true)},
        CompareCase{Value(int64_t{1}), "=", Value(int64_t{2}), Value(false)},
        CompareCase{Value(int64_t{1}), "!=", Value(int64_t{2}), Value(true)},
        CompareCase{Value(int64_t{1}), "<", Value(int64_t{2}), Value(true)},
        CompareCase{Value(int64_t{2}), "<=", Value(int64_t{2}), Value(true)},
        CompareCase{Value(int64_t{3}), ">", Value(int64_t{2}), Value(true)},
        CompareCase{Value(int64_t{1}), ">=", Value(int64_t{2}),
                    Value(false)}));

INSTANTIATE_TEST_SUITE_P(
    MixedNumeric, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value(int64_t{1}), "=", Value(1.0), Value(true)},
        CompareCase{Value(int64_t{1}), "<", Value(1.5), Value(true)},
        CompareCase{Value(2.5), ">", Value(int64_t{2}), Value(true)}));

INSTANTIATE_TEST_SUITE_P(
    StringsAndBools, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value("abc"), "<", Value("abd"), Value(true)},
        CompareCase{Value("abc"), "=", Value("abc"), Value(true)},
        CompareCase{Value(""), "<", Value("a"), Value(true)},
        CompareCase{Value(false), "<", Value(true), Value(true)},
        CompareCase{Value(true), "=", Value(true), Value(true)}));

INSTANTIATE_TEST_SUITE_P(
    NullPropagation, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value::Null(), "=", Value(int64_t{1}), Value::Null()},
        CompareCase{Value(int64_t{1}), "<", Value::Null(), Value::Null()},
        CompareCase{Value::Null(), "=", Value::Null(), Value::Null()}));

TEST(ValueTest, CompareTypeErrors) {
  EXPECT_FALSE(
      Value::Compare(Value(int64_t{1}), CompareOp::kEq, Value("1")).ok());
  EXPECT_FALSE(
      Value::Compare(Value(true), CompareOp::kLt, Value(int64_t{1})).ok());
  EXPECT_FALSE(Value::Compare(Value("a"), CompareOp::kGt, Value(1.0)).ok());
}

struct ArithCase {
  Value lhs;
  const char* op;
  Value rhs;
  Value expected;
};

class ValueArithTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(ValueArithTest, Arithmetic) {
  const ArithCase& c = GetParam();
  ArithOp op;
  ASSERT_TRUE(ParseArithOp(c.op, &op)) << c.op;
  auto result = Value::Arithmetic(c.lhs, op, c.rhs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (c.expected.is_double()) {
    ASSERT_TRUE(result->is_double());
    EXPECT_DOUBLE_EQ(result->AsDouble(), c.expected.AsDouble());
  } else {
    EXPECT_EQ(*result, c.expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    IntegerOps, ValueArithTest,
    ::testing::Values(
        ArithCase{Value(int64_t{3}), "+", Value(int64_t{4}), Value(int64_t{7})},
        ArithCase{Value(int64_t{3}), "-", Value(int64_t{4}),
                  Value(int64_t{-1})},
        ArithCase{Value(int64_t{3}), "*", Value(int64_t{4}),
                  Value(int64_t{12})},
        ArithCase{Value(int64_t{9}), "/", Value(int64_t{2}), Value(int64_t{4})},
        ArithCase{Value(int64_t{9}), "%", Value(int64_t{4}),
                  Value(int64_t{1})}));

INSTANTIATE_TEST_SUITE_P(
    DoubleOps, ValueArithTest,
    ::testing::Values(
        ArithCase{Value(1.5), "+", Value(int64_t{1}), Value(2.5)},
        ArithCase{Value(int64_t{5}), "/", Value(2.0), Value(2.5)},
        ArithCase{Value(2.0), "*", Value(3.0), Value(6.0)}));

INSTANTIATE_TEST_SUITE_P(
    NullArith, ValueArithTest,
    ::testing::Values(
        ArithCase{Value::Null(), "+", Value(int64_t{1}), Value::Null()},
        ArithCase{Value(int64_t{1}), "*", Value::Null(), Value::Null()}));

TEST(ValueTest, ArithmeticErrors) {
  EXPECT_FALSE(Value::Arithmetic(Value(int64_t{1}), ArithOp::kDiv,
                                 Value(int64_t{0})).ok());
  EXPECT_FALSE(Value::Arithmetic(Value(int64_t{1}), ArithOp::kMod,
                                 Value(int64_t{0})).ok());
  EXPECT_FALSE(Value::Arithmetic(Value("a"), ArithOp::kAdd, Value("b")).ok());
  EXPECT_FALSE(
      Value::Arithmetic(Value(true), ArithOp::kAdd, Value(int64_t{1})).ok());
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // NULL < BOOL < numeric < STRING; stable for sorting heterogeneous rows.
  EXPECT_TRUE(Value::Null() < Value(false));
  EXPECT_TRUE(Value(true) < Value(int64_t{0}));
  EXPECT_TRUE(Value(int64_t{5}) < Value("a"));
  EXPECT_TRUE(Value(int64_t{1}) < Value(1.5));
  EXPECT_FALSE(Value(int64_t{1}) < Value(int64_t{1}));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(Value(true).ToString(), "TRUE");
  EXPECT_EQ(Value(false).ToString(), "FALSE");
}

TEST(ValueTest, RowHashAndToString) {
  Row a{Value(int64_t{1}), Value("x")};
  Row b{Value(int64_t{1}), Value("x")};
  Row c{Value(int64_t{2}), Value("x")};
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  EXPECT_NE(RowHash()(a), RowHash()(c));
  EXPECT_EQ(RowToString(a), "(1, 'x')");
}

}  // namespace
}  // namespace datalawyer
