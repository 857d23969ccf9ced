#include <gtest/gtest.h>

#include "common/schema.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/tuple.h"
#include "common/value.h"

namespace sqp {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad window");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, EveryCodeHasName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnMacro(int x) {
  SQP_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(UsesReturnMacro(1).ok());
  EXPECT_EQ(UsesReturnMacro(-1).code(), StatusCode::kOutOfRange);
}

// --- Value ---

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).ToDouble(), 3.0);
  EXPECT_EQ(Value(3.9).ToInt(), 3);
  EXPECT_EQ(Value("xyz").ToInt(), 0);
  EXPECT_DOUBLE_EQ(Value::Null().ToDouble(), 0.0);
}

TEST(ValueTest, MixedNumericComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.1), Value(int64_t{3}));
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, CrossTypeOrderingIsDeterministic) {
  Value i(int64_t{5});
  Value s("5");
  EXPECT_TRUE((i < s) != (s < i));
}

TEST(ValueTest, NumericEqualValuesHashEqual) {
  EXPECT_EQ(Value(int64_t{2}).Hash(), Value(2.0).Hash());
  EXPECT_EQ(Value("k").Hash(), Value("k").Hash());
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(Value::Add(Value(int64_t{2}), Value(int64_t{3}))->AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Add(Value(int64_t{2}), Value(0.5))->AsDouble(), 2.5);
  EXPECT_EQ(Value::Mul(Value(int64_t{4}), Value(int64_t{6}))->AsInt(), 24);
  EXPECT_EQ(Value::Div(Value(int64_t{7}), Value(int64_t{2}))->AsInt(), 3);
  EXPECT_EQ(Value::Mod(Value(int64_t{7}), Value(int64_t{3}))->AsInt(), 1);
}

TEST(ValueTest, ArithmeticErrors) {
  EXPECT_FALSE(Value::Add(Value("a"), Value(int64_t{1})).ok());
  EXPECT_FALSE(Value::Div(Value(int64_t{1}), Value(int64_t{0})).ok());
  EXPECT_FALSE(Value::Mod(Value(1.5), Value(int64_t{2})).ok());
  EXPECT_EQ(Value::Div(Value(int64_t{1}), Value(int64_t{0})).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

// --- Schema ---

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_EQ(s.FieldIndex("z"), -1);
  EXPECT_TRUE(s.RequireField("a").ok());
  EXPECT_EQ(s.RequireField("z").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, OrderingAttribute) {
  auto s = Schema::WithOrdering(
      {{"ts", ValueType::kInt}, {"v", ValueType::kDouble}}, "ts");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->has_ordering());
  EXPECT_EQ(s->ordering_index(), 0);
}

TEST(SchemaTest, OrderingMustBeIntField) {
  auto missing = Schema::WithOrdering({{"v", ValueType::kDouble}}, "ts");
  EXPECT_FALSE(missing.ok());
  auto wrong_type =
      Schema::WithOrdering({{"ts", ValueType::kDouble}}, "ts");
  EXPECT_FALSE(wrong_type.ok());
}

TEST(SchemaTest, EqualityAndToString) {
  Schema a({{"x", ValueType::kInt}});
  Schema b({{"x", ValueType::kInt}});
  Schema c({{"x", ValueType::kDouble}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "x:int");
}

// --- Tuple / Key ---

TEST(TupleTest, Basics) {
  TupleRef t = MakeTuple(5, {Value(int64_t{1}), Value("x")});
  EXPECT_EQ(t->ts(), 5);
  EXPECT_EQ(t->arity(), 2u);
  EXPECT_EQ(t->at(1).AsString(), "x");
  EXPECT_EQ(t->ToString(), "(ts=5, [1, x])");
}

TEST(TupleTest, KeyExtractionAndHash) {
  TupleRef t = MakeTuple(0, {Value(int64_t{1}), Value(int64_t{2}),
                             Value(int64_t{3})});
  Key k1 = ExtractKey(*t, {0, 2});
  Key k2 = ExtractKey(*t, {0, 2});
  Key k3 = ExtractKey(*t, {0, 1});
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(KeyHash()(k1), KeyHash()(k2));
  EXPECT_FALSE(k1 == k3);
}

TEST(TupleTest, MemoryBytesGrowsWithStrings) {
  TupleRef small = MakeTuple(0, {Value(int64_t{1})});
  TupleRef big = MakeTuple(0, {Value(std::string(1000, 'x'))});
  EXPECT_GT(big->MemoryBytes(), small->MemoryBytes() + 900);
}

// --- Strings ---

TEST(StringsTest, SplitJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "-"), "a-b--c");
}

TEST(StringsTest, CaseAndSearch) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(Contains("hello GNUTELLA world", "GNUTELLA"));
  EXPECT_FALSE(Contains("hello", "world"));
  EXPECT_TRUE(StartsWith("X-Kazaa-IP", "X-Kazaa-"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
}

TEST(StringsTest, StripAndFormat) {
  EXPECT_EQ(StripWhitespace("  x \n"), "x");
  EXPECT_EQ(StrFormat("%d-%s", 5, "a"), "5-a");
  EXPECT_EQ(FormatIpv4(0x0A000001), "10.0.0.1");
}

}  // namespace
}  // namespace sqp
