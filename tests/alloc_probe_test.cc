// Allocation-counting tests for the zero-allocation key-probe paths:
// this TU replaces global operator new to count heap allocations, then
// asserts that steady-state probes (existing keys/groups) perform none.
// Inserts of genuinely new keys may allocate only while no dead KeyTable
// entry (a closed group, an expired index entry) is left to reuse.
// Window operators allocate only the rows they emit, one block each.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <variant>
#include <vector>

#include "common/key_table.h"
#include "common/tuple.h"
#include "cql/planner.h"
#include "exec/aggregate_op.h"
#include "exec/merge_join.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/window_agg.h"
#include "exec/window_join.h"
#include "stream/element_batch.h"
#include "stream/generators.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sqp {
namespace {

template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocProbeTest, KeyViewHashAndEqualityMatchOwningKey) {
  TupleRef t = MakeTuple(7, {Value(int64_t{42}), Value(3.5), Value("abc")});
  std::vector<int> cols = {0, 2};
  Key owned = ExtractKey(*t, cols);
  KeyView view(*t, cols);
  EXPECT_EQ(owned.Hash(), view.Hash());
  // Either shape finds an entry the other inserted.
  KeyTable<int> by_owned;
  by_owned.Insert(owned);
  EXPECT_NE(by_owned.Find(view), nullptr);
  KeyTable<int> by_view;
  by_view.Insert(view);
  EXPECT_NE(by_view.Find(owned), nullptr);
  EXPECT_EQ(view.Materialize(), owned);
}

TEST(AllocProbeTest, KeyTableProbeIsAllocationFree) {
  KeyTable<int> map;
  std::vector<int> cols = {0};
  std::vector<TupleRef> keep;
  for (int64_t k = 0; k < 64; ++k) {
    keep.push_back(MakeTuple(k, {Value(k)}));
    map.Insert(ExtractKey(*keep.back(), cols)).first->value =
        static_cast<int>(k);
  }
  TupleRef hit = MakeTuple(0, {Value(int64_t{17})});
  TupleRef miss = MakeTuple(0, {Value(int64_t{9999})});
  int found = -1;
  bool miss_found = true;
  uint64_t allocs = CountAllocs([&] {
    if (const auto* e = map.Find(KeyView(*hit, cols))) found = e->value;
    // A missing key must not allocate either — only a real insert may.
    miss_found = map.Find(KeyView(*miss, cols)) != nullptr;
  });
  EXPECT_EQ(found, 17);
  EXPECT_FALSE(miss_found);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocProbeTest, KeyTableDuplicateProbeIsAllocationFree) {
  KeyTable<std::monostate> seen;
  std::vector<int> cols = {0};
  TupleRef t = MakeTuple(0, {Value(int64_t{5})});
  seen.Insert(KeyView(*t, cols));
  bool hit = false;
  uint64_t allocs =
      CountAllocs([&] { hit = seen.Find(KeyView(*t, cols)) != nullptr; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocProbeTest, SymHashJoinExistingKeyPushIsAllocationFree) {
  // Warm up one key on the left side far enough that the bucket vector
  // has spare capacity; then a further same-key push probes the (empty-
  // for-this-key) right table and appends — zero allocations.
  BinaryWindowJoinOp join(
      BinaryWindowJoinOp::Options::Unwindowed({0}, {0}));
  CountingSink sink;
  join.SetOutput(&sink);
  std::vector<Element> warm;
  for (int64_t i = 0; i < 9; ++i) {
    warm.push_back(Element(MakeTuple(i, {Value(int64_t{1}), Value(i)})));
  }
  for (const Element& e : warm) join.Push(e, 0);
  // Give the right table a different key so the probe hits a bucket but
  // finds no match vector for key 1.
  Element right(MakeTuple(0, {Value(int64_t{2}), Value(int64_t{0})}));
  join.Push(right, 1);

  Element next(MakeTuple(10, {Value(int64_t{1}), Value(int64_t{10})}));
  uint64_t allocs = CountAllocs([&] { join.Push(next, 0); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(join.stats().tuples_in, 11u);
}

TEST(AllocProbeTest, GroupByFoldIntoExistingGroupIsAllocationFree) {
  GroupByOptions opt;
  opt.key_cols = {0};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 1, 0.5}};
  opt.window = WindowSpec::Landmark();  // Unwindowed: emission only at Flush.
  GroupByAggregateOp agg(opt);
  CountingSink sink;
  agg.SetOutput(&sink);
  for (int64_t i = 0; i < 8; ++i) {
    agg.Push(Element(MakeTuple(i, {Value(i % 4), Value(i)})));
  }
  Element next(MakeTuple(8, {Value(int64_t{2}), Value(int64_t{8})}));
  uint64_t allocs = CountAllocs([&] { agg.Push(next); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(agg.open_groups(), 4u);
}

// Tumbling group-by on column 0 with count(*) and sum(col 1); `having`
// optional. Rows are [ts, key, value].
GroupByOptions TumblingOptions(ExprRef having = nullptr) {
  GroupByOptions opt;
  opt.key_cols = {0};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 1, 0.5}};
  opt.window = WindowSpec::TimeTumbling(10);
  opt.having = std::move(having);
  return opt;
}

Element KeyedRow(int64_t ts, int64_t key) {
  return Element(MakeTuple(ts, {Value(key), Value(ts)}));
}

TEST(AllocProbeTest, GroupByOpensGroupFromClosedBucketAllocationFree) {
  GroupByAggregateOp agg(TumblingOptions());
  CountingSink sink;
  agg.SetOutput(&sink);
  for (int64_t k = 0; k < 8; ++k) agg.Push(KeyedRow(k, k));
  // Bucket 1's first tuple closes bucket 0: its 8 groups are emitted
  // and parked for reuse.
  agg.Push(KeyedRow(10, 0));
  ASSERT_EQ(sink.tuples(), 8u);
  std::vector<Element> next;
  for (int64_t k = 1; k < 8; ++k) next.push_back(KeyedRow(10 + k, k));
  uint64_t allocs = CountAllocs([&] {
    for (const Element& e : next) agg.Push(e);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(agg.open_groups(), 8u);
}

TEST(AllocProbeTest, GroupByBucketFailingHavingClosesAllocationFree) {
  // count(*) is output column 2; no group reaches 100 rows.
  GroupByAggregateOp agg(
      TumblingOptions(Bin(BinOp::kGt, Col(2), Lit(int64_t{100}))));
  CountingSink sink;
  agg.SetOutput(&sink);
  for (int64_t k = 0; k < 8; ++k) agg.Push(KeyedRow(k, k));
  for (int64_t k = 0; k < 8; ++k) agg.Push(KeyedRow(10 + k, k));
  ASSERT_EQ(agg.open_groups(), 8u);
  Element close(Punctuation::Watermark(19));
  uint64_t allocs = CountAllocs([&] { agg.Push(close); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(agg.open_groups(), 0u);
  EXPECT_EQ(sink.tuples(), 0u);
}

TEST(AllocProbeTest, SlidingAggregateAllocatesOnlyItsOutputRow) {
  // select avg(v), max(v) ... [range 5]: full row [ts, avg, max], output
  // columns {1, 2}.
  WindowAggregateOp agg(WindowSpec::TimeSliding(5),
                        {{AggKind::kAvg, 1, 0.5}, {AggKind::kMax, 1, 0.5}},
                        "window-agg", -1, {1, 2});
  CollectorSink sink;
  agg.SetOutput(&sink);
  // Warm-up past the window's first deque block (32 tuples) and first
  // expiries; the measured push lands mid-block.
  for (int64_t i = 0; i < 40; ++i) agg.Push(KeyedRow(i, 0));
  sink.Clear();
  Element next = KeyedRow(40, 0);
  uint64_t allocs = CountAllocs([&] { agg.Push(next); });
  // One output tuple: one block for its header, cells and shared count.
  EXPECT_EQ(allocs, 1u);
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.tuples()[0]->arity(), 2u);
  EXPECT_EQ(sink.tuples()[0]->at(1), Value(int64_t{40}));
}

TEST(AllocProbeTest, WindowJoinNewKeyAfterExpiryIsAllocationFree) {
  BinaryWindowJoinOp::Options o;
  o.left_cols = {0};
  o.right_cols = {0};
  o.left_window = WindowSpec::TimeSliding(100);
  o.right_window = WindowSpec::TimeSliding(100);
  BinaryWindowJoinOp join(o);
  CountingSink sink;
  join.SetOutput(&sink);
  // One new key every 10 ticks: each arrival expires the key from 100
  // ticks earlier while about ten stay live. The warm-up lets the window
  // buffer and the index reach their steady capacity.
  for (int64_t i = 0; i < 64; ++i) join.Push(KeyedRow(10 * i, i), 0);
  // Key 64 expires key 54, whose emptied index entry it reuses; the
  // right side is empty, so nothing matches.
  Element next = KeyedRow(640, 64);
  uint64_t allocs = CountAllocs([&] { join.Push(next, 0); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink.tuples(), 0u);
}

// A join whose keys rarely repeat: each generated packet meets the
// packets going the other way (the rtt join's key), so nearly
// every push brings a key new to its window. Each takes an entry an
// expired key left, so the warmed join allocates its output rows only
// (one allocation each).
TEST(AllocProbeTest, RarelyRepeatingJoinKeysAllocateOnlyOutputRows) {
  using C = gen::PacketCols;
  BinaryWindowJoinOp::Options o;
  o.left_cols = {C::kSrcIp, C::kDstIp, C::kSrcPort, C::kDstPort};
  o.right_cols = {C::kDstIp, C::kSrcIp, C::kDstPort, C::kSrcPort};
  o.left_window = WindowSpec::TimeSliding(300);
  o.right_window = WindowSpec::TimeSliding(300);
  BinaryWindowJoinOp join(o);
  CountingSink sink;
  join.SetOutput(&sink);
  gen::PacketOptions popt;
  popt.seed = 1;
  gen::PacketGenerator gen(popt);
  std::vector<Element> input;
  for (int i = 0; i < 40000; ++i) input.push_back(Element(gen.Next()));
  const size_t half = input.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    join.Push(input[i], 0);
    join.Push(input[i], 1);
  }
  const uint64_t out_before = sink.tuples();
  uint64_t allocs = CountAllocs([&] {
    for (size_t i = half; i < input.size(); ++i) {
      join.Push(input[i], 0);
      join.Push(input[i], 1);
    }
  });
  const uint64_t outputs = sink.tuples() - out_before;
  const double inputs = 2.0 * static_cast<double>(input.size() - half);
  EXPECT_GT(outputs, 0u);
  EXPECT_LE((static_cast<double>(allocs) - static_cast<double>(outputs)) /
                inputs,
            0.1)
      << allocs << " allocations, " << outputs << " rows";
}

// The ordered band join compares its equi-columns on the tuples, not
// through owning Keys: a push allocates only the rows it emits. Tuple i
// has ts i and key i / 2 and arrives on port i % 2, so each push
// compares against three in-band tuples and each right tuple matches
// one left tuple.
TEST(AllocProbeTest, MergeJoinKeyComparisonAllocatesNothing) {
  OrderedMergeJoinOp::Options o;
  o.band = 5;
  o.left_cols = {1};
  o.right_cols = {1};
  OrderedMergeJoinOp join(o);
  CountingSink sink;
  join.SetOutput(&sink);
  std::vector<Element> input;
  for (int64_t i = 0; i < 20000; ++i) {
    input.push_back(Element(MakeTuple(i, {Value(i), Value(i / 2)})));
  }
  uint64_t allocs = CountAllocs([&] {
    for (size_t i = 0; i < input.size(); ++i) {
      join.Push(input[i], static_cast<int>(i % 2));
    }
  });
  const uint64_t outputs = sink.tuples();
  EXPECT_EQ(outputs, 10000u);
  EXPECT_LE((static_cast<double>(allocs) - static_cast<double>(outputs)) /
                static_cast<double>(input.size()),
            0.1)
      << allocs << " allocations, " << outputs << " rows";
}

// Whole compiled queries over generated packets, measured after a
// warm-up half: the E10 group-by (slides 13, 34-37) stays nearly
// allocation-free per input element, the sliding aggregate pays one
// output row per input element, and the SYN/SYN-ACK rtt join pays its
// joined row and the project-out row per match, beyond a few
// allocations of its key index growing past sizes the warm-up half did
// not reach (8 with this input). Input i of a case goes to port
// ports[i].
TEST(AllocProbeTest, CompiledWindowQueriesAllocateLittlePerElement) {
  cql::Catalog cat;
  std::vector<FieldDomain> domains(gen::PacketSchema()->num_fields());
  domains[gen::PacketCols::kProtocol] = {"protocol", true, 256};
  for (const char* stream : {"packets", "syn", "synack"}) {
    ASSERT_TRUE(cat.Register(stream, gen::PacketSchema(), domains).ok());
  }
  gen::PacketOptions popt;
  popt.seed = 1;
  gen::PacketGenerator gen(popt);
  // Every packet on port 0; the SYN and SYN-ACK packets of 200,000 on
  // the join's ports 0 and 1, with watermarks on both.
  std::vector<Element> packets, handshakes;
  std::vector<int> handshake_ports;
  for (int i = 1; i <= 200000; ++i) {
    TupleRef p = gen.Next();
    const int64_t ts = p->ts();
    if (p->at(gen::PacketCols::kIsSyn).AsInt() == 1) {
      handshake_ports.push_back(
          static_cast<int>(p->at(gen::PacketCols::kIsAck).AsInt()));
      handshakes.push_back(Element(p));
    }
    if (i <= 40000) packets.push_back(Element(std::move(p)));
    if (i % 1024 != 0) continue;
    if (i <= 40000) packets.push_back(Element(Punctuation::Watermark(ts)));
    for (int port : {0, 1}) {
      handshakes.push_back(Element(Punctuation::Watermark(ts)));
      handshake_ports.push_back(port);
    }
  }
  const std::vector<int> packet_ports(packets.size(), 0);
  struct Case {
    const char* text;
    const std::vector<Element>* input;
    const std::vector<int>* ports;
    double max_allocs;
    bool per_output;  // Bound per output row instead of per input.
    uint64_t table_growth = 0;  // Allocations allowed beyond the bound.
  };
  const Case cases[] = {
      {"select tb, src_ip, sum(len) from packets where protocol = 6 "
       "group by ts/60 as tb, src_ip having count(*) > 5",
       &packets, &packet_ports, 0.1, false},
      {"select avg(len), max(len) from packets [range 60]", &packets,
       &packet_ports, 1.0, true},
      {"select s.ts, a.ts - s.ts as rtt "
       "from syn s [range 300], synack a [range 300] "
       "where s.src_ip = a.dst_ip and s.dst_ip = a.src_ip "
       "and s.src_port = a.dst_port and s.dst_port = a.src_port "
       "and s.is_syn = 1 and s.is_ack = 0 and a.is_syn = 1 "
       "and a.is_ack = 1",
       &handshakes, &handshake_ports, 2.0, true, 16},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    auto cq = cql::Compile(c.text, cat);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    CountingSink sink;
    (*cq)->AttachSink(&sink);
    const std::vector<Element>& input = *c.input;
    const size_t half = input.size() / 2;
    for (size_t i = 0; i < half; ++i) (*cq)->Push(input[i], (*c.ports)[i]);
    const uint64_t out_before = sink.tuples();
    uint64_t allocs = CountAllocs([&] {
      for (size_t i = half; i < input.size(); ++i) {
        (*cq)->Push(input[i], (*c.ports)[i]);
      }
    });
    const uint64_t outputs = sink.tuples() - out_before;
    const double per =
        static_cast<double>(allocs - std::min(allocs, c.table_growth)) /
        static_cast<double>(c.per_output ? outputs : input.size() - half);
    EXPECT_GT(outputs, 0u);
    EXPECT_LE(per, c.max_allocs) << allocs << " allocations";
  }
}

// The compiled select→project chain (slide 29) evaluates its predicate
// in place and builds each output row in one block: exactly one
// allocation per row it emits, none for a tuple it drops.
TEST(AllocProbeTest, CompiledSelectProjectAllocatesOneBlockPerRow) {
  cql::Catalog cat;
  ASSERT_TRUE(cat.Register("packets", gen::PacketSchema()).ok());
  auto cq = cql::Compile(
      "select src_ip, dst_ip, len from packets where protocol = 6", cat);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  CountingSink sink;
  (*cq)->AttachSink(&sink);
  gen::PacketOptions popt;
  popt.seed = 1;
  gen::PacketGenerator gen(popt);
  std::vector<Element> kept, dropped;
  for (int i = 0; i < 20000; ++i) {
    TupleRef p = gen.Next();
    const bool tcp = p->at(gen::PacketCols::kProtocol).AsInt() == 6;
    (tcp ? kept : dropped).push_back(Element(std::move(p)));
  }
  ASSERT_FALSE(kept.empty());
  ASSERT_FALSE(dropped.empty());
  // Warm-up: the first push of a chain may set up its per-thread state.
  (*cq)->Push(kept[0]);
  (*cq)->Push(dropped[0]);
  uint64_t allocs = CountAllocs([&] {
    for (const Element& e : dropped) (*cq)->Push(e);
  });
  EXPECT_EQ(allocs, 0u);
  const uint64_t out_before = sink.tuples();
  allocs = CountAllocs([&] {
    for (const Element& e : kept) (*cq)->Push(e);
  });
  EXPECT_EQ(sink.tuples() - out_before, kept.size());
  EXPECT_EQ(allocs, kept.size());
}

// A row up to Tuple::kMaxInlineArity cells is one block; a wider one
// (a 4-way MJoin over 10-column packets has 40) is the block plus its
// cell vector, or the block alone when MakeTuple takes over a vector.
TEST(AllocProbeTest, WideRowsCostAtMostTwoBlocks) {
  auto fill = [](std::span<Value> cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      cells[i] = Value(static_cast<int64_t>(i));
    }
  };
  TupleRef row;
  EXPECT_EQ(CountAllocs([&] {
              row = MakeTuple(0, Tuple::kMaxInlineArity, fill);
            }),
            1u);
  EXPECT_EQ(CountAllocs([&] {
              row = MakeTuple(0, Tuple::kMaxInlineArity + 1, fill);
            }),
            2u);
  TupleRef half = MakeTuple(0, 20, fill);
  EXPECT_EQ(CountAllocs([&] { row = JoinedRow(*half, *half); }), 2u);
  EXPECT_EQ(row->arity(), 40u);
  EXPECT_EQ(row->at(39), Value(int64_t{19}));
  std::vector<Value> cells(40, Value(int64_t{7}));
  EXPECT_EQ(CountAllocs([&] { row = MakeTuple(1, std::move(cells)); }), 1u);
  EXPECT_EQ(row->arity(), 40u);
  EXPECT_EQ(row->at(39), Value(int64_t{7}));
}

TEST(AllocProbeTest, DistinctDuplicateIsAllocationFree) {
  DistinctOp distinct({0});
  CountingSink sink;
  distinct.SetOutput(&sink);
  distinct.Push(Element(MakeTuple(0, {Value(int64_t{3})})));
  Element dup(MakeTuple(1, {Value(int64_t{3})}));
  uint64_t allocs = CountAllocs([&] { distinct.Push(dup); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink.tuples(), 1u);
}

TEST(AllocProbeTest, PunctGroupByExistingGroupIsAllocationFree) {
  // Value-keyed grouping was already heterogeneous (probes by const
  // Value&); pin the zero-allocation property here so it stays true.
  GroupByAggregateOp agg({.key_cols = {0},
                          .aggs = {{AggKind::kCount, -1, 0.5}},
                          .window = WindowSpec::Punctuated()});
  CountingSink sink;
  agg.SetOutput(&sink);
  for (int64_t i = 0; i < 4; ++i) {
    agg.Push(Element(MakeTuple(i, {Value(int64_t{7}), Value(i)})));
  }
  Element next(MakeTuple(4, {Value(int64_t{7}), Value(int64_t{4})}));
  uint64_t allocs = CountAllocs([&] { agg.Push(next); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(agg.open_groups(), 1u);
}

TEST(AllocProbeTest, ElementBatchSmallBufferIsInline) {
  size_t size = 0;
  uint64_t allocs = CountAllocs([&] {
    ElementBatch batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(Element(Punctuation::Watermark(i)));
    }
    size = batch.size();
  });
  EXPECT_EQ(size, 8u);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocProbeTest, ElementBatchSpillsAndMoves) {
  ElementBatch batch;
  for (int64_t i = 0; i < 40; ++i) {
    batch.push_back(i % 5 == 0
                        ? Element(Punctuation::Watermark(i))
                        : Element(MakeTuple(i, {Value(i)})));
  }
  ASSERT_EQ(batch.size(), 40u);
  ElementBatch moved(std::move(batch));
  EXPECT_EQ(moved.size(), 40u);
  EXPECT_TRUE(batch.empty());  // NOLINT(bugprone-use-after-move)
  int64_t i = 0;
  for (const Element& e : moved) {
    if (i % 5 == 0) {
      ASSERT_TRUE(e.is_punctuation());
      EXPECT_EQ(e.punctuation().ts, i);
    } else {
      ASSERT_TRUE(e.is_tuple());
      EXPECT_EQ(e.tuple()->ts(), i);
    }
    ++i;
  }
  // Cleared batches keep their capacity: refilling is allocation-free.
  moved.clear();
  uint64_t allocs = CountAllocs([&] {
    for (int64_t j = 0; j < 40; ++j) {
      moved.push_back(Element(Punctuation::Watermark(j)));
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace sqp
