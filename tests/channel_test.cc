// Channel: the bounded hand-off under ParallelExecutor stages and
// ShardedOp's shard and merge queues. Weighted bound, punctuation
// bypass, drop accounting, Close/Stop, claim sizing, and a
// multi-producer stress case for the TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "stream/channel.h"

namespace sqp {
namespace {

/// A channel item shaped like a columnar batch: `rows` data rows plus
/// `puncts` bypass parts (handed back in order when shed). A row item
/// has rows = 1; a punctuation has punct = true.
struct Item {
  int64_t v = 0;
  size_t rows = 1;
  bool punct = false;
  std::vector<int64_t> puncts;
  int producer = 0;

  size_t Weight() const {
    size_t w = rows + puncts.size();
    return w == 0 ? 1 : w;
  }
  bool Bypass() const { return punct; }
  template <typename Keep>
  size_t Shed(Keep&& keep) {
    for (int64_t p : puncts) keep(Punct(p));
    return rows;
  }

  static Item Row(int64_t v) {
    Item it;
    it.v = v;
    return it;
  }
  static Item Punct(int64_t v) {
    Item it = Row(v);
    it.rows = 0;
    it.punct = true;
    return it;
  }
};

std::vector<int64_t> DrainValues(Channel<Item>& ch) {
  std::vector<int64_t> out;
  std::deque<Item> batch;
  while (ch.stats().depth > 0) {
    EXPECT_EQ(ch.Claim(batch, SIZE_MAX), ClaimResult::kClaimed);
    for (const Item& it : batch) out.push_back(it.v);
  }
  return out;
}

TEST(ChannelTest, WeightedBound) {
  Channel<Item> ch(10, Backpressure::kDropNewest, 64);
  Item heavy = Item::Row(1);
  heavy.rows = 4;
  EXPECT_EQ(ch.Push(heavy), PushResult::kAccepted);  // depth 4
  heavy.v = 2;
  EXPECT_EQ(ch.Push(heavy), PushResult::kAccepted);  // depth 8
  // Below the bound, a heavy item lands whole and may overshoot it.
  heavy.v = 3;
  EXPECT_EQ(ch.Push(heavy), PushResult::kAccepted);  // depth 12
  EXPECT_EQ(ch.Push(Item::Row(4)), PushResult::kDropped);
  ChannelStats s = ch.stats();
  EXPECT_EQ(s.depth, 12u);
  EXPECT_EQ(s.max_depth, 12u);
  EXPECT_EQ(s.enqueued, 12u);
  EXPECT_EQ(s.dropped, 1u);

  // Under kBlock the same full channel makes TryPush report kFull and
  // leave the item with the caller.
  Channel<Item> block(2, Backpressure::kBlock, 64);
  EXPECT_EQ(block.Push(Item::Row(1)), PushResult::kAccepted);
  EXPECT_EQ(block.Push(Item::Row(2)), PushResult::kAccepted);
  Item third = Item::Row(3);
  EXPECT_EQ(block.TryPush(third), PushResult::kFull);
  EXPECT_EQ(third.v, 3);
  EXPECT_EQ(block.stats().depth, 2u);
}

TEST(ChannelTest, PunctuationBypassKeepsOrder) {
  for (Backpressure bp : {Backpressure::kDropNewest, Backpressure::kBlock}) {
    Channel<Item> ch(2, bp, 64);
    ch.Push(Item::Row(1));
    ch.Push(Item::Row(2));
    Item p5 = Item::Punct(5);
    EXPECT_EQ(ch.TryPush(p5), PushResult::kAccepted);  // Never kFull.
    Item t3 = Item::Row(3);
    EXPECT_NE(ch.TryPush(t3), PushResult::kAccepted);
    Item p6 = Item::Punct(6);
    EXPECT_EQ(ch.TryPush(p6), PushResult::kAccepted);
    std::vector<int64_t> expect = {1, 2, 5, 6};
    if (bp == Backpressure::kDropNewest) {
      // A chunk into the full channel: its row is shed, its punctuation
      // lands behind the others. (Under kBlock the row would block.)
      std::vector<Item> chunk = {Item::Row(4), Item::Punct(7)};
      ch.PushAll(chunk);
      expect.push_back(7);
    }
    EXPECT_EQ(DrainValues(ch), expect);
  }
}

TEST(ChannelTest, DropNewestCountsDrops) {
  Channel<Item> ch(2, Backpressure::kDropNewest, 64);
  std::vector<Item> chunk;
  for (int64_t i = 1; i <= 5; ++i) chunk.push_back(Item::Row(i));
  // A shed batch-like item loses only its rows; its punctuation parts
  // are queued in order, behind what was already admitted.
  Item batch = Item::Row(100);
  batch.rows = 3;
  batch.puncts = {10, 20};
  chunk.push_back(batch);
  chunk.push_back(Item::Row(6));
  ch.PushAll(chunk);
  ChannelStats s = ch.stats();
  EXPECT_EQ(s.dropped, 3u + 3u + 1u);  // Rows 3..5, the batch's 3, row 6.
  EXPECT_EQ(s.enqueued, 4u);           // Rows 1..2 and both punctuations.
  EXPECT_EQ(DrainValues(ch), (std::vector<int64_t>{1, 2, 10, 20}));
}

TEST(ChannelTest, CloseDrainsThenEnds) {
  Channel<Item> ch(0, Backpressure::kBlock, 64);
  for (int64_t i = 1; i <= 3; ++i) ch.Push(Item::Row(i));
  ch.Close();
  EXPECT_EQ(ch.Push(Item::Row(4)), PushResult::kClosed);
  EXPECT_EQ(ch.stats().dropped, 0u);  // A refusal is not a drop.
  std::deque<Item> out;
  ASSERT_EQ(ch.Claim(out, 2), ClaimResult::kClaimed);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].v, 1);
  EXPECT_EQ(out[1].v, 2);
  ASSERT_EQ(ch.Claim(out, 2), ClaimResult::kClaimed);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].v, 3);
  EXPECT_EQ(ch.Claim(out, 2), ClaimResult::kEnded);
  EXPECT_TRUE(out.empty());
}

TEST(ChannelTest, StopFreesBlockedProducer) {
  Channel<Item> ch(1, Backpressure::kBlock, 64);
  ASSERT_EQ(ch.Push(Item::Row(1)), PushResult::kAccepted);
  std::atomic<bool> returned{false};
  PushResult result = PushResult::kAccepted;
  std::thread producer([&] {
    result = ch.Push(Item::Row(2));  // Full: blocks until Stop.
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  ch.Stop();
  producer.join();
  EXPECT_EQ(result, PushResult::kClosed);
  std::deque<Item> out;
  EXPECT_EQ(ch.Claim(out, 8), ClaimResult::kStopped);
  EXPECT_EQ(ch.stats().depth, 1u);  // The backlog is abandoned.
}

TEST(ChannelTest, ClaimRespectsMaxWeight) {
  Channel<Item> ch(0, Backpressure::kBlock, 64);
  for (int64_t i = 0; i < 10; ++i) ch.Push(Item::Row(i));
  std::deque<Item> out;
  ASSERT_EQ(ch.Claim(out, 4), ClaimResult::kClaimed);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(ch.stats().depth, 6u);
  // Weighted items: the claim stops at the first item that reaches the
  // cap, and always takes at least one item.
  Channel<Item> weighted(0, Backpressure::kBlock, 64);
  for (int64_t i = 0; i < 3; ++i) {
    Item it = Item::Row(i);
    it.rows = 3;
    weighted.Push(it);
  }
  ASSERT_EQ(weighted.Claim(out, 4), ClaimResult::kClaimed);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(weighted.stats().depth, 3u);
  ASSERT_EQ(weighted.Claim(out, 1), ClaimResult::kClaimed);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(weighted.stats().depth, 0u);
}

TEST(ChannelTest, IdleClaimTimesOut) {
  Channel<Item> ch(4, Backpressure::kBlock, 64);
  std::deque<Item> out;
  EXPECT_EQ(ch.Claim(out, 8), ClaimResult::kIdle);
}

// Shaped for TSan: several producers (single pushes and chunks, with
// punctuations) on a small blocking channel and one consumer. Nothing
// may be lost and each producer's items must arrive in order.
TEST(ChannelTest, MultiProducerStress) {
  constexpr int kProducers = 4;
  constexpr int64_t kPerProducer = 20000;
  Channel<Item> ch(64, Backpressure::kBlock, 16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      std::vector<Item> chunk;
      for (int64_t i = 0; i < kPerProducer; ++i) {
        Item it = i % 500 == 499 ? Item::Punct(i) : Item::Row(i);
        it.producer = p;
        if (p % 2 == 0) {
          ASSERT_EQ(ch.Push(it), PushResult::kAccepted);
          continue;
        }
        chunk.push_back(it);
        if (chunk.size() == 37) {
          ch.PushAll(chunk);
          chunk.clear();
        }
      }
      ch.PushAll(chunk);
    });
  }
  std::vector<int64_t> next(kProducers, 0);
  uint64_t received = 0;
  std::thread consumer([&] {
    std::deque<Item> out;
    for (;;) {
      ClaimResult r = ch.Claim(out, 32);
      if (r == ClaimResult::kEnded) break;
      for (const Item& it : out) {
        EXPECT_EQ(it.v, next[static_cast<size_t>(it.producer)]++);
        ++received;
      }
    }
  });
  for (std::thread& t : producers) t.join();
  ch.Close();
  consumer.join();
  EXPECT_EQ(received, static_cast<uint64_t>(kProducers * kPerProducer));
  ChannelStats s = ch.stats();
  EXPECT_EQ(s.enqueued, received);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.depth, 0u);
  // Only bypass items pass the bound: at most one per producer beyond
  // it (a chunk bulk-lands only if it fits).
  EXPECT_LE(s.max_depth, 64u + kProducers);
}

}  // namespace
}  // namespace sqp
