#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/key_table.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/tuple.h"
#include "common/value.h"
#include "server/session.h"

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
  EXPECT_EQ(k1.Hash(), k2.Hash());
  EXPECT_FALSE(k1 == k3);
}

// A KeyTable probe whose hash a test chooses: with `buckets` > 0 every
// key hashes to one of that many values, so distinct keys collide.
struct TestKey {
  Key key;
  size_t buckets = 0;
  size_t size() const { return key.size(); }
  const Value& part(size_t i) const { return key.part(i); }
  size_t Hash() const {
    return buckets == 0 ? key.Hash() : key.Hash() % buckets;
  }
};

// 2,000 random find, insert, erase and clear steps over 1-, 2- and
// 3-part keys (int, double, string parts), checked after every step
// against a model of the contents and of the table order: an insert
// appends, an erase moves the last entry into the hole, a clear empties
// it. Up to
// 650 keys grow the table well past its first capacity, and a run with
// three hash values makes most probes pass entries of another key.
TEST(KeyTableTest, MatchesModelOverRandomSteps) {
  const double kDoubles[] = {0.5, 1.5, 2.5};
  const char* const kStrings[] = {"a", "bb", "ccc"};
  for (size_t buckets : {size_t{0}, size_t{3}}) {
    SCOPED_TRACE(buckets);
    Rng rng(7 + buckets);
    KeyTable<int> table;
    // Contents by key text (each part position has one type), and the
    // keys in table order.
    std::map<std::string, int> contents;
    std::vector<Key> order;
    size_t peak = 0;
    auto random_key = [&] {
      TestKey k{Key{}, buckets};
      const uint64_t parts = 1 + rng.Uniform(3);
      k.key.parts.push_back(Value(static_cast<int64_t>(rng.Uniform(50))));
      if (parts > 1) k.key.parts.push_back(Value(kDoubles[rng.Uniform(3)]));
      if (parts > 2) k.key.parts.push_back(Value(kStrings[rng.Uniform(3)]));
      return k;
    };
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE(step);
      const uint64_t op = rng.Uniform(100);
      if (step == 1000 || step == 1500) {
        table.Clear();
        contents.clear();
        order.clear();
      } else if (op < 50) {
        TestKey k = random_key();
        const bool absent = contents.count(k.key.ToString()) == 0;
        auto [entry, added] = table.Insert(k);
        ASSERT_EQ(added, absent);
        if (added) {
          entry->value = step;
          contents[k.key.ToString()] = step;
          order.push_back(k.key);
        }
      } else if (op < 70) {
        TestKey k = random_key();
        const auto* entry = table.Find(k);
        auto it = contents.find(k.key.ToString());
        ASSERT_EQ(entry == nullptr, it == contents.end());
        if (entry != nullptr) {
          EXPECT_EQ(entry->value, it->second);
        }
      } else if (!order.empty()) {
        const size_t i = rng.Uniform(order.size());
        auto* entry = table.Find(TestKey{order[i], buckets});
        ASSERT_NE(entry, nullptr);
        table.Erase(entry);
        contents.erase(order[i].ToString());
        order[i] = order.back();
        order.pop_back();
      }
      peak = std::max(peak, order.size());
      ASSERT_EQ(table.size(), contents.size());
      // Storage only grows, and only past the most keys held at once.
      ASSERT_EQ(table.retained().size(), peak);
      size_t i = 0;
      for (const auto& entry : table) {
        ASSERT_EQ(entry.key, order[i]) << i;
        ASSERT_EQ(entry.value, contents[order[i].ToString()]) << i;
        const auto* found = table.Find(TestKey{entry.key, buckets});
        ASSERT_EQ(found, &entry);
        ++i;
      }
    }
    EXPECT_GT(peak, 64u);  // The index grew to 256 slots or more.
  }
}

TEST(KeyTableTest, ClearKeepsStorageForRefill) {
  KeyTable<int> table;
  std::vector<Key> keys;
  for (int64_t k = 0; k < 40; ++k) {
    keys.push_back(Key{{Value(k), Value("s" + std::to_string(k))}});
    table.Insert(keys.back()).first->value = static_cast<int>(k);
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(keys[3]), nullptr);
  EXPECT_EQ(table.retained().size(), 40u);
  // Refilled in reverse: new keys take the dead entries, in order.
  for (int64_t k = 39; k >= 20; --k) {
    auto [entry, added] = table.Insert(keys[static_cast<size_t>(k)]);
    ASSERT_TRUE(added);
    entry->value = static_cast<int>(100 + k);
  }
  EXPECT_EQ(table.size(), 20u);
  EXPECT_EQ(table.retained().size(), 40u);
  int64_t k = 39;
  for (const auto& entry : table) {
    EXPECT_EQ(entry.key, keys[static_cast<size_t>(k)]);
    EXPECT_EQ(entry.value, 100 + k);
    --k;
  }
  EXPECT_EQ(table.Find(keys[5]), nullptr);
  ASSERT_NE(table.Find(keys[25]), nullptr);
  EXPECT_EQ(table.Find(keys[25])->value, 125);
}

TEST(TupleTest, MemoryBytesGrowsWithStrings) {
  TupleRef small = MakeTuple(0, {Value(int64_t{1})});
  TupleRef big = MakeTuple(0, {Value(std::string(1000, 'x'))});
  EXPECT_GT(big->MemoryBytes(), small->MemoryBytes() + 900);
}

// Row i of every layout test: null, int, double and string cells in
// turn; the strings alternate between short and heap-allocated.
std::vector<Value> LayoutCells(size_t arity) {
  std::vector<Value> cells;
  for (size_t i = 0; i < arity; ++i) {
    const int64_t n = static_cast<int64_t>(i);
    switch (i % 4) {
      case 0:
        cells.push_back(Value::Null());
        break;
      case 1:
        cells.push_back(Value(n * 7 - 20));
        break;
      case 2:
        cells.push_back(Value(static_cast<double>(n) / 4));
        break;
      case 3:
        cells.push_back(Value(std::string(i % 8 == 3 ? 3 : 40,
                                          static_cast<char>('a' + i % 26))));
        break;
    }
  }
  return cells;
}

// Every arity from 0 to past the widest inline class crosses each size
// class boundary (16|17, 24|25, 32|33) and the heap fallback. Whichever
// way a row is built, it shows the same cells, text, JSON and
// accounting as the by-value row the cells came from.
TEST(TupleTest, EveryLayoutShowsTheSameRow) {
  for (size_t arity = 0; arity <= Tuple::kMaxInlineArity + 8; ++arity) {
    SCOPED_TRACE(arity);
    const std::vector<Value> cells = LayoutCells(arity);
    const Tuple by_value(9, cells);
    const TupleRef from_vector = MakeTuple(9, std::vector<Value>(cells));
    const TupleRef from_span = MakeTuple(9, std::span<const Value>(cells));
    const TupleRef in_place =
        MakeTuple(9, arity, [&](std::span<Value> out) {
          ASSERT_EQ(out.size(), arity);
          for (size_t i = 0; i < arity; ++i) {
            EXPECT_TRUE(out[i].is_null());
            out[i] = cells[i];
          }
        });
    std::string text = "(ts=9, [";
    std::string json = "\"ts\":9,\"row\":[";
    size_t bytes = 32;
    for (size_t i = 0; i < arity; ++i) {
      text += (i > 0 ? ", " : "") + cells[i].ToString();
      json += (i > 0 ? "," : "") + server::ValueJson(cells[i]);
      bytes += cells[i].MemoryBytes();
    }
    text += "])";
    json += "]";
    for (const Tuple* t :
         {&by_value, from_vector.get(), from_span.get(), in_place.get()}) {
      EXPECT_EQ(t->ts(), 9);
      ASSERT_EQ(t->arity(), arity);
      EXPECT_TRUE(std::ranges::equal(t->values(), cells));
      EXPECT_EQ(*t, by_value);
      EXPECT_EQ(t->ToString(), text);
      EXPECT_EQ(server::RowJson(*t), json);
      EXPECT_EQ(t->MemoryBytes(), bytes);
    }
    if (arity == 0) continue;
    std::vector<Value> other = cells;
    other.back() = Value("different");
    EXPECT_FALSE(*MakeTuple(9, other) == by_value);
    EXPECT_FALSE(*MakeTuple(8, cells) == by_value);
  }
}

// The group-by's output scratch row: a by-value Tuple written through
// at() and set_ts(), read by HAVING and copied into the emitted row.
TEST(TupleTest, ByValueRowMutatesThroughAt) {
  Tuple scratch(0, std::vector<Value>(3));
  for (int64_t round = 0; round < 3; ++round) {
    scratch.set_ts(round);
    scratch.at(0) = Value(round);
    scratch.at(1) = Value(std::string(20 + round, 'k'));
    scratch.at(2) = Value(0.5 * static_cast<double>(round));
    const TupleRef row = MakeTuple(scratch.ts(), scratch.values());
    EXPECT_EQ(*row, scratch);
    EXPECT_EQ(row->at(1).AsString().size(), static_cast<size_t>(20 + round));
  }
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
