#include "message/value.h"

#include <gtest/gtest.h>

namespace bdps {
namespace {

TEST(Value, NumericComparison) {
  EXPECT_EQ(Value(1.0).compare(Value(2.0)), -1);
  EXPECT_EQ(Value(2.0).compare(Value(1.0)), 1);
  EXPECT_EQ(Value(2.0).compare(Value(2.0)), 0);
}

TEST(Value, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(Value(2).compare(Value(2.0)), 0);
  EXPECT_EQ(Value(1).compare(Value(1.5)), -1);
  EXPECT_EQ(Value(3).compare(Value(2.5)), 1);
}

TEST(Value, StringComparison) {
  EXPECT_EQ(Value("abc").compare(Value("abd")), -1);
  EXPECT_EQ(Value("b").compare(Value("a")), 1);
  EXPECT_EQ(Value("x").compare(Value("x")), 0);
}

TEST(Value, MixedTypesAreIncomparable) {
  EXPECT_EQ(Value("1").compare(Value(1.0)), Value::kIncomparable);
  EXPECT_EQ(Value(1.0).compare(Value("1")), Value::kIncomparable);
}

TEST(Value, TypePredicates) {
  const Value real(1.5);
  const Value integer(3);
  const Value text("s");
  EXPECT_TRUE(real.is_number());
  EXPECT_TRUE(integer.is_number());
  EXPECT_TRUE(text.is_string());
  EXPECT_FALSE(text.is_number());
}

TEST(Value, AsDoubleConversions) {
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);
  EXPECT_DOUBLE_EQ(Value("text").as_double(), 0.0);  // Defined fallback.
}

TEST(Value, AsStringOnlyForStrings) {
  EXPECT_EQ(Value("hello").as_string(), "hello");
  EXPECT_EQ(Value(1.0).as_string(), "");
}

TEST(Value, EqualityOperator) {
  EXPECT_TRUE(Value(3.0) == Value(3));
  EXPECT_FALSE(Value(3.0) == Value(4.0));
  EXPECT_FALSE(Value("3") == Value(3.0));
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value(5).to_string(), "5");
  EXPECT_EQ(Value("hi").to_string(), "\"hi\"");
  EXPECT_EQ(Value(2.5).to_string(), "2.5");
}

TEST(Value, DefaultIsNumericZero) {
  const Value v;
  EXPECT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.as_double(), 0.0);
}

}  // namespace
}  // namespace bdps
