// sqp::dur end to end: codec framing, archive torn-tail tolerance,
// checkpoint round-trips, and the crash-recovery invariant — a run that
// dies (including by SIGKILL) and recovers from checkpoint + archive
// suffix produces the same result multiset as an uninterrupted run.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/engine.h"
#include "dur/archive.h"
#include "dur/checkpoint.h"
#include "dur/codec.h"
#include "dur/manager.h"
#include "exec/reorder.h"
#include "stream/generators.h"

namespace sqp {
namespace {

std::string TempDir(const char* tag) {
  std::string tmpl = std::string(::testing::TempDir()) + "sqp-dur-" + tag +
                     "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return made == nullptr ? std::string() : std::string(made);
}

TupleRef Pkt(int64_t ts, int64_t src, int64_t proto, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{9}),
                        Value(int64_t{1}), Value(int64_t{2}), Value(proto),
                        Value(len), Value(int64_t{0}), Value(int64_t{0}),
                        Value("")});
}

std::vector<std::string> Rows(const QueryHandle* q) {
  std::vector<std::string> rows;
  rows.reserve(q->results().size());
  for (const TupleRef& t : q->results()) rows.push_back(t->ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------
// Codec

TEST(DurCodecTest, Crc32KnownVector) {
  const char* s = "123456789";  // The classic CRC-32/IEEE check string.
  EXPECT_EQ(dur::Crc32(s, 9), 0xCBF43926u);
}

TEST(DurCodecTest, ScalarAndValueRoundTrip) {
  dur::BufWriter w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(1ull << 53);
  w.I64(-42);
  w.F64(2.5);
  w.Str("hello");
  w.Val(Value());
  w.Val(Value(int64_t{-9}));
  w.Val(Value(3.25));
  w.Val(Value("streams"));

  dur::BufReader r(w.data().data(), w.data().size());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f = 0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&f).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 1ull << 53);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f, 2.5);
  EXPECT_EQ(s, "hello");
  Value v;
  ASSERT_TRUE(r.Val(&v).ok());
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(r.Val(&v).ok());
  EXPECT_EQ(v.AsInt(), -9);
  ASSERT_TRUE(r.Val(&v).ok());
  EXPECT_EQ(v.AsDouble(), 3.25);
  ASSERT_TRUE(r.Val(&v).ok());
  EXPECT_EQ(v.AsString(), "streams");
  EXPECT_TRUE(r.done());
}

TEST(DurCodecTest, ElementRoundTripAndTruncation) {
  dur::BufWriter w;
  w.Elem(Element(Pkt(5, 10, 6, 99)));
  w.Elem(Element(Punctuation::CloseKey(7, Value("k"))));

  dur::BufReader r(w.data().data(), w.data().size());
  Element e;
  ASSERT_TRUE(r.Elem(&e).ok());
  ASSERT_TRUE(e.is_tuple());
  EXPECT_EQ(e.tuple()->ts(), 5);
  EXPECT_EQ(e.tuple()->at(6).AsInt(), 99);
  ASSERT_TRUE(r.Elem(&e).ok());
  ASSERT_TRUE(e.is_punctuation());
  EXPECT_TRUE(e.punctuation().has_key);
  EXPECT_EQ(e.punctuation().key.AsString(), "k");

  // Every strict prefix must fail cleanly, never read past the end.
  for (size_t cut = 0; cut < w.size(); ++cut) {
    dur::BufReader short_r(w.data().data(), cut);
    Element dummy;
    Status st = short_r.Elem(&dummy);
    if (cut == 0 || st.ok()) {
      // A prefix that happens to hold the full first element is fine.
      continue;
    }
    EXPECT_FALSE(st.ok());
  }
}

// ---------------------------------------------------------------------
// Archive

TEST(DurArchiveTest, MergesStreamsInGlobalSeqOrder) {
  std::string root = TempDir("merge");
  dur::DurabilityManager mgr(root, {}, nullptr);
  ASSERT_TRUE(mgr.Open().ok());
  // Interleave two streams; seq assignment records the interleaving.
  for (int i = 0; i < 50; ++i) {
    mgr.Append("a", Element(Pkt(i, 1, 6, i)));
    mgr.Append("b", Element(Punctuation::Watermark(i)));
  }
  ASSERT_TRUE(mgr.Flush().ok());

  dur::ArchiveReader reader(root);
  ASSERT_TRUE(reader.Open().ok());
  dur::ArchivedRecord rec;
  uint64_t expect_seq = 1;
  while (true) {
    auto has = reader.Next(&rec);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    EXPECT_EQ(rec.seq, expect_seq);
    EXPECT_EQ(rec.stream, (expect_seq % 2 == 1) ? "a" : "b");
    ++expect_seq;
  }
  EXPECT_EQ(expect_seq, 101u);
  EXPECT_EQ(reader.torn_streams(), 0u);
}

TEST(DurArchiveTest, TornTailTruncatesAtLastIntactRecord) {
  std::string root = TempDir("torn");
  dur::DurabilityManager mgr(root, {}, nullptr);
  ASSERT_TRUE(mgr.Open().ok());
  for (int i = 0; i < 10; ++i) mgr.Append("s", Element(Pkt(i, 1, 6, i)));
  ASSERT_TRUE(mgr.Flush().ok());

  // Simulate a crash mid-write: garbage half-frame at the segment tail.
  std::string dir = root + "/streams/s";
  std::vector<std::string> segs;
  ASSERT_TRUE(dur::ListDir(dir, &segs).ok());
  ASSERT_EQ(segs.size(), 1u);
  FILE* f = std::fopen((dir + "/" + segs[0]).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[] = {0x13, 0x37, 0x00, 0x05};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);

  std::string seg_path = dir + "/" + segs[0];
  struct stat st {};
  ASSERT_EQ(::stat(seg_path.c_str(), &st), 0);
  const off_t torn_size = st.st_size;

  {
    dur::ArchiveReader reader(root);
    ASSERT_TRUE(reader.Open().ok());
    dur::ArchivedRecord rec;
    int n = 0;
    while (true) {
      auto has = reader.Next(&rec);
      ASSERT_TRUE(has.ok());
      if (!*has) break;
      ++n;
    }
    EXPECT_EQ(n, 10);  // All intact records, none invented.
    EXPECT_EQ(reader.torn_streams(), 1u);
  }

  // The reader physically repaired the tail: the garbage is gone and a
  // second pass sees a clean chain.
  ASSERT_EQ(::stat(seg_path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, torn_size - static_cast<off_t>(sizeof(garbage)));
  dur::ArchiveReader again(root);
  ASSERT_TRUE(again.Open().ok());
  dur::ArchivedRecord rec;
  int n = 0;
  while (true) {
    auto has = again.Next(&rec);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ++n;
  }
  EXPECT_EQ(n, 10);
  EXPECT_EQ(again.torn_streams(), 0u);
}

TEST(DurArchiveTest, TornSegmentDoesNotMaskLaterSegments) {
  std::string root = TempDir("torn-chain");
  // Segment 1 (seqs 1..3) from a writer that "crashed" mid-frame, then a
  // successor segment (seqs 3..5) from the restarted writer — the seq-3
  // overlap mimics a flush retried after a short write.
  {
    dur::ArchiveWriter w(root, "s", /*segment_bytes=*/64u << 20);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      w.AppendFramed(seq, dur::FrameRecord(seq, Element(Pkt(1, 1, 6, 1))));
    }
    ASSERT_TRUE(w.Flush(false).ok());
  }
  std::vector<std::string> segs;
  ASSERT_TRUE(dur::ListDir(root + "/streams/s", &segs).ok());
  ASSERT_EQ(segs.size(), 1u);
  FILE* f = std::fopen((root + "/streams/s/" + segs[0]).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[] = {0x7F, 0x01, 0x02};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  {
    dur::ArchiveWriter w(root, "s", 64u << 20);
    for (uint64_t seq = 3; seq <= 5; ++seq) {
      w.AppendFramed(seq, dur::FrameRecord(seq, Element(Pkt(1, 1, 6, 1))));
    }
    ASSERT_TRUE(w.Flush(false).ok());
  }

  // The torn frame ends its segment, not the chain: the successor's
  // records still replay, exactly once each.
  dur::ArchiveReader reader(root);
  ASSERT_TRUE(reader.Open().ok());
  dur::ArchivedRecord rec;
  std::vector<uint64_t> seqs;
  while (true) {
    auto has = reader.Next(&rec);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    seqs.push_back(rec.seq);
  }
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(reader.torn_streams(), 1u);
}

TEST(DurManagerTest, AppendSurfacesStickyFlushError) {
  std::string root = TempDir("ioerr") + "/arch";
  // Block the stream's directory slot with a regular file so the
  // segment open fails — a stand-in for any persistent IO error.
  ASSERT_TRUE(dur::MakeDirs(root + "/streams").ok());
  FILE* blocker = std::fopen((root + "/streams/s").c_str(), "wb");
  ASSERT_NE(blocker, nullptr);
  std::fclose(blocker);

  dur::DurabilityOptions opt;
  opt.flush_interval_ms = 0;  // Inline flush: the failure is immediate.
  dur::DurabilityManager mgr(root, opt, nullptr);
  ASSERT_TRUE(mgr.Open().ok());
  auto first = mgr.Append("s", Element(Pkt(1, 1, 6, 1)));
  EXPECT_FALSE(first.ok());  // The inline flush it triggered failed.
  auto second = mgr.Append("s", Element(Pkt(2, 1, 6, 2)));
  EXPECT_FALSE(second.ok());  // Sticky: refused outright, not buffered.
  EXPECT_EQ(mgr.appended(), 0u);
  EXPECT_FALSE(mgr.Flush().ok());
}

// ---------------------------------------------------------------------
// Checkpoint files

TEST(DurCheckpointTest, RoundTripAndPrune) {
  std::string root = TempDir("ckpt");
  for (uint64_t id = 1; id <= 4; ++id) {
    dur::Checkpoint c;
    c.id = id;
    c.position = id * 100;
    c.next_seq = id * 100 + 1;
    dur::QueryCheckpoint qc;
    qc.text = "select ts from s";
    qc.included = true;
    qc.op_states = {"state-" + std::to_string(id), ""};
    c.queries.push_back(qc);
    ASSERT_TRUE(dur::WriteCheckpoint(root, c, /*keep=*/2).ok());
  }
  auto latest = dur::ReadLatestCheckpoint(root);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->id, 4u);
  EXPECT_EQ(latest->position, 400u);
  ASSERT_EQ(latest->queries.size(), 1u);
  EXPECT_TRUE(latest->queries[0].included);
  ASSERT_EQ(latest->queries[0].op_states.size(), 2u);
  EXPECT_EQ(latest->queries[0].op_states[0], "state-4");
  // keep=2 pruned the first two files.
  std::vector<std::string> files;
  ASSERT_TRUE(dur::ListDir(root + "/ckpt", &files).ok());
  EXPECT_EQ(files.size(), 2u);
}

TEST(DurCheckpointTest, CorruptLatestFallsBackToPrevious) {
  std::string root = TempDir("ckpt-corrupt");
  for (uint64_t id = 1; id <= 2; ++id) {
    dur::Checkpoint c;
    c.id = id;
    c.position = id;
    c.next_seq = id + 1;
    ASSERT_TRUE(dur::WriteCheckpoint(root, c, 4).ok());
  }
  std::vector<std::string> files;
  ASSERT_TRUE(dur::ListDir(root + "/ckpt", &files).ok());
  ASSERT_EQ(files.size(), 2u);
  // Flip a byte in the newest file's body.
  std::string newest = root + "/ckpt/" + files.back();
  FILE* f = std::fopen(newest.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  std::fputc(0x5A, f);
  std::fclose(f);

  auto latest = dur::ReadLatestCheckpoint(root);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->id, 1u);
}

// ---------------------------------------------------------------------
// Front-end operator state

std::string SaveOf(const CheckpointableOperator& op) {
  dur::BufWriter w;
  op.SaveState(w);
  return w.Take();
}

Status RestoreFrom(CheckpointableOperator& op, const std::string& state) {
  dur::BufReader r(state);
  return op.RestoreState(r);
}

// What `op` emits for `suffix` and a final flush, in order.
std::vector<std::string> Drive(Operator& op,
                               const std::vector<TupleRef>& suffix) {
  CollectorSink sink;
  op.SetOutput(&sink);
  for (const TupleRef& t : suffix) op.Push(Element(t));
  op.Flush();
  std::vector<std::string> out;
  for (const TupleRef& t : sink.tuples()) out.push_back(t->ToString());
  for (const Punctuation& p : sink.punctuations()) {
    out.push_back("wm " + std::to_string(p.ts));
  }
  return out;
}

TEST(FrontEndCheckpointTest, ReorderRestoresBufferAndTies) {
  // Tuples of equal ts (told apart by their len) must release in the
  // same order from a restored buffer as from the live one.
  SlackReorderOp live(4);
  CollectorSink prefix_out;
  live.SetOutput(&prefix_out);
  for (int i = 0; i < 40; ++i) {
    live.Push(Element(Pkt(i / 4 + (i % 3), 1, 6, i)));
  }
  live.Push(Element(Pkt(1, 1, 6, 999)));  // Beyond the slack: dropped.
  ASSERT_GT(live.buffered(), 4u);
  ASSERT_EQ(live.late_dropped(), 1u);
  const std::string state = SaveOf(live);

  SlackReorderOp restored(4);
  ASSERT_TRUE(RestoreFrom(restored, state).ok());
  EXPECT_EQ(restored.buffered(), live.buffered());
  EXPECT_EQ(restored.late_dropped(), 1u);
  EXPECT_EQ(SaveOf(restored), state);
  std::vector<TupleRef> suffix;
  for (int i = 0; i < 20; ++i) suffix.push_back(Pkt(12 + i / 3, 2, 6, i));
  suffix.push_back(Pkt(2, 2, 6, 7));  // Late after the restore too.
  EXPECT_EQ(Drive(restored, suffix), Drive(live, suffix));
  EXPECT_EQ(restored.late_dropped(), 2u);
}

TEST(FrontEndCheckpointTest, HeartbeatRestoresItsBeat) {
  HeartbeatOp live(10, 2);
  for (int64_t ts : {3, 9, 14, 17}) live.Push(Element(Pkt(ts, 1, 6, 1)));
  HeartbeatOp restored(10, 2);
  ASSERT_TRUE(RestoreFrom(restored, SaveOf(live)).ok());
  const std::vector<TupleRef> suffix = {Pkt(22, 1, 6, 1), Pkt(41, 1, 6, 1)};
  EXPECT_EQ(Drive(restored, suffix), Drive(live, suffix));
  // A fresh operator round-trips too.
  HeartbeatOp fresh(10);
  EXPECT_TRUE(RestoreFrom(fresh, SaveOf(HeartbeatOp(10))).ok());
}

TEST(FrontEndCheckpointTest, HostileStateIsRefused) {
  SlackReorderOp reorder(10);
  for (int64_t ts : {20, 25, 22, 30}) reorder.Push(Element(Pkt(ts, 1, 6, 1)));
  ASSERT_EQ(reorder.buffered(), 3u);  // 22, 25, 30 wait; 20 left.
  const std::string good = SaveOf(reorder);
  for (size_t n = 0; n < good.size(); ++n) {
    SlackReorderOp fresh(10);
    EXPECT_FALSE(RestoreFrom(fresh, good.substr(0, n)).ok()) << n;
    EXPECT_EQ(fresh.buffered(), 0u) << n;
  }
  auto reorder_state = [](int64_t max_ts, int64_t emitted_ts,
                          std::vector<int64_t> held) {
    dur::BufWriter w;
    w.I64(max_ts);
    w.I64(emitted_ts);
    w.U64(0);
    w.U32(static_cast<uint32_t>(held.size()));
    for (int64_t ts : held) w.Tup(*Pkt(ts, 1, 6, 1));
    return w.Take();
  };
  SlackReorderOp fresh(10);
  EXPECT_TRUE(RestoreFrom(fresh, reorder_state(30, 20, {22, 25, 30})).ok());
  const std::vector<std::string> refused = {
      reorder_state(30, 20, {25, 22, 30}),  // Not a min-heap.
      reorder_state(30, 20, {19, 25}),      // Below what was emitted.
      reorder_state(30, 20, {20, 31}),      // Above the high water.
      reorder_state(30, 10, {20}),          // Due for release: 20 <= 30-10.
      reorder_state(20, 30, {}),            // Emitted past the high water.
  };
  for (const std::string& state : refused) {
    EXPECT_FALSE(RestoreFrom(fresh, state).ok());
  }

  auto beat_state = [](int64_t max_ts, int64_t last_beat) {
    dur::BufWriter w;
    w.I64(max_ts);
    w.I64(last_beat);
    return w.Take();
  };
  HeartbeatOp beat(10);
  EXPECT_TRUE(RestoreFrom(beat, beat_state(29, 20)).ok());
  EXPECT_FALSE(RestoreFrom(beat, beat_state(29, 20).substr(0, 12)).ok());
  // A beat a whole period or more behind would flood watermarks.
  EXPECT_FALSE(RestoreFrom(beat, beat_state(INT64_MAX, INT64_MIN + 1)).ok());
  EXPECT_FALSE(RestoreFrom(beat, beat_state(30, 20)).ok());
  EXPECT_FALSE(RestoreFrom(beat, beat_state(20, 30)).ok());
  EXPECT_FALSE(RestoreFrom(beat, beat_state(20, INT64_MIN)).ok());
}

// ---------------------------------------------------------------------
// Engine recovery

constexpr char kAggQuery[] =
    "select tb, protocol, count(*), sum(len) from packets "
    "group by ts/10 as tb, protocol";
// rtt-shaped self-joins: a windowed one, and the same join unwindowed
// (landmark windows that never expire).
constexpr char kWindowedJoin[] =
    "select a.ts, a.ts - b.ts as gap "
    "from packets a [range 20], packets b [range 20] "
    "where a.src_ip = b.src_ip";
constexpr char kUnwindowedJoin[] =
    "select a.ts, a.ts - b.ts as gap from packets a, packets b "
    "where a.src_ip = b.src_ip";
// Sliding aggregates: one time window over the stream, and a count
// window per key.
constexpr char kSlidingAgg[] =
    "select avg(len), max(len) from packets [range 60]";
constexpr char kPartitionedAgg[] =
    "select src_ip, sum(len), min(len) from packets "
    "[partition by src_ip rows 3]";
// A group-by over the GK and HyperLogLog sketches, which checkpoint
// their summaries.
constexpr char kSketchAgg[] =
    "select protocol, approx_median(len), approx_count_distinct(src_ip) "
    "from packets group by protocol";
// Plan shapes whose every operator checkpoints: recovery must restore
// them, not replay them.
const char* const kRestoredQueries[] = {kAggQuery,       kWindowedJoin,
                                        kUnwindowedJoin, kSlidingAgg,
                                        kPartitionedAgg, kSketchAgg};

TupleRef NthPkt(int i) { return Pkt(i, i % 7, i % 2 == 0 ? 6 : 17, i % 512); }

void IngestRange(StreamEngine& engine, int from, int to) {
  for (int i = from; i < to; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", NthPkt(i)).ok());
  }
}

std::vector<std::string> ReferenceRows(int tuples,
                                       const char* query = kAggQuery) {
  StreamEngine ref;
  EXPECT_TRUE(ref.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = ref.Submit(query);
  EXPECT_TRUE(q.ok());
  IngestRange(ref, 0, tuples);
  ref.FinishAll();
  return Rows(*q);
}

std::vector<std::string> RecoverRows(const std::string& dir,
                                     bool use_checkpoint,
                                     RecoveryReport* report = nullptr,
                                     const char* query = kAggQuery) {
  StreamEngine engine;
  EXPECT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(query);
  EXPECT_TRUE(q.ok());
  dur::DurabilityOptions opt;
  opt.use_checkpoint = use_checkpoint;
  Status st = engine.EnableDurability(dir, opt);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (report != nullptr) *report = engine.recovery_report();
  engine.FinishAll();
  return Rows(*q);
}

TEST(EngineDurabilityTest, FinishedRunReplaysIdentically) {
  const int kTuples = 500;
  for (const char* query : kRestoredQueries) {
    SCOPED_TRACE(query);
    std::string dir = TempDir("finished");
    std::vector<std::string> live;
    {
      StreamEngine engine;
      ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
      auto q = engine.Submit(query);
      ASSERT_TRUE(q.ok());
      dur::DurabilityOptions opt;
      opt.checkpoint_every = 100;
      ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
      EXPECT_FALSE(engine.recovery_report().recovered);
      IngestRange(engine, 0, kTuples);
      engine.FinishAll();
      live = Rows(*q);
    }
    EXPECT_FALSE(live.empty());
    EXPECT_EQ(live, ReferenceRows(kTuples, query));

    // Checkpoint-restore path: the final checkpoint holds everything, so
    // nothing replays.
    RecoveryReport rep;
    EXPECT_EQ(RecoverRows(dir, /*use_checkpoint=*/true, &rep, query), live);
    EXPECT_TRUE(rep.recovered);
    EXPECT_TRUE(rep.checkpoint_loaded);
    EXPECT_EQ(rep.restored_queries, 1u);
    EXPECT_EQ(rep.replay_from_zero_queries, 0u);
    EXPECT_EQ(rep.replayed_tuples + rep.replayed_puncts, 0u);

    // Full-replay audit path reproduces the same multiset from seq 0.
    EXPECT_EQ(RecoverRows(dir, /*use_checkpoint=*/false, &rep, query), live);
    EXPECT_EQ(rep.replayed_tuples, static_cast<uint64_t>(kTuples));
    EXPECT_EQ(rep.restored_queries, 0u);
  }
}

TEST(EngineDurabilityTest, SigkillMidRunRecoversEquivalently) {
  const int kTuples = 700;
  for (const char* query : kRestoredQueries) {
    SCOPED_TRACE(query);
    std::string dir = TempDir("sigkill");

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: durable run that dies hard mid-stream — no FinishAll, no
      // destructors, a torn archive tail is fair game.
      StreamEngine engine;
      if (!engine.RegisterStream("packets", gen::PacketSchema()).ok()) {
        _exit(3);
      }
      if (!engine.Submit(query).ok()) _exit(3);
      dur::DurabilityOptions opt;
      opt.checkpoint_every = 150;
      opt.flush_interval_ms = 0;  // Inline flush: every append hits the OS.
      if (!engine.EnableDurability(dir, opt).ok()) _exit(3);
      for (int i = 0; i < kTuples; ++i) {
        (void)engine.Ingest("packets", NthPkt(i));
      }
      raise(SIGKILL);
      _exit(4);  // Unreachable.
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    // Inline flush means the archive holds all 700 records, so recovery
    // must reproduce the uninterrupted run exactly (as a multiset).
    RecoveryReport rep;
    std::vector<std::string> recovered =
        RecoverRows(dir, /*use_checkpoint=*/true, &rep, query);
    EXPECT_TRUE(rep.checkpoint_loaded);  // checkpoint_every fired.
    EXPECT_GT(rep.checkpoint_position, 0u);
    EXPECT_EQ(rep.restored_queries, 1u);
    EXPECT_EQ(rep.replay_from_zero_queries, 0u);
    EXPECT_GT(rep.replayed_tuples, 0u);  // The suffix past the checkpoint.
    EXPECT_LT(rep.replayed_tuples, static_cast<uint64_t>(kTuples));
    EXPECT_EQ(recovered, ReferenceRows(kTuples, query));

    // And checkpoint restore + suffix == full replay of the same archive.
    EXPECT_EQ(RecoverRows(dir, /*use_checkpoint=*/false, nullptr, query),
              recovered);
  }
}

// A stream behind reorder (slack 8) and heartbeat (period 10) front-ends,
// fed out of order: up to 5 units of disorder, and one tuple in 50
// beyond the slack (dropped by the reorder).
StreamOptions DisorderedStream() {
  StreamOptions opt;
  opt.reorder_slack = 8;
  opt.heartbeat_period = 10;
  return opt;
}

TupleRef NthDisorderedPkt(int i) {
  const int lag = i % 50 == 49 ? 30 : (i * 7) % 6;
  return Pkt(i - lag, i % 7, i % 2 == 0 ? 6 : 17, i % 512);
}

// Submits `query` on a disordered `packets`, turns on durability in `dir`
// and ingests the first `tuples` disordered packets.
Result<QueryHandle*> DisorderedRun(StreamEngine& engine, const char* query,
                                   const std::string& dir,
                                   dur::DurabilityOptions opt, int tuples) {
  SQP_RETURN_NOT_OK(engine.RegisterStream("packets", gen::PacketSchema(), {},
                                          DisorderedStream()));
  auto q = engine.Submit(query);
  if (!q.ok()) return q.status();
  if (!dir.empty()) SQP_RETURN_NOT_OK(engine.EnableDurability(dir, opt));
  for (int i = 0; i < tuples; ++i) {
    SQP_RETURN_NOT_OK(engine.Ingest("packets", NthDisorderedPkt(i)));
  }
  return q;
}

TEST(EngineDurabilityTest, SigkillBehindFrontEndsRestoresNotReplays) {
  const int kTuples = 700;
  for (const char* query : {kAggQuery, kSlidingAgg}) {
    SCOPED_TRACE(query);
    std::string dir = TempDir("frontend");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      StreamEngine engine;
      dur::DurabilityOptions opt;
      opt.checkpoint_every = 150;
      opt.flush_interval_ms = 0;
      if (!DisorderedRun(engine, query, dir, opt, kTuples).ok()) _exit(3);
      raise(SIGKILL);
      _exit(4);  // Unreachable.
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    StreamEngine ref;
    auto rq = DisorderedRun(ref, query, "", {}, kTuples);
    ASSERT_TRUE(rq.ok()) << rq.status().ToString();
    ref.FinishAll();

    // Every checkpoint caught tuples waiting in the reorder buffer; the
    // restored buffer releases them as the live one would have.
    StreamEngine engine;
    auto q = DisorderedRun(engine, query, "", {}, 0);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
    const RecoveryReport& rep = engine.recovery_report();
    EXPECT_TRUE(rep.checkpoint_loaded);
    EXPECT_EQ(rep.restored_queries, 1u);
    EXPECT_EQ(rep.replay_from_zero_queries, 0u);
    EXPECT_GT(rep.replayed_tuples, 0u);
    EXPECT_LT(rep.replayed_tuples, static_cast<uint64_t>(kTuples));
    engine.FinishAll();
    EXPECT_FALSE(Rows(*rq).empty());
    EXPECT_EQ(Rows(*q), Rows(*rq));
  }
}

// A durable run of `queries` over the first `tuples` packets, finished,
// so its last checkpoint covers everything.
void FinishedDurableRun(const std::string& dir,
                        const std::vector<const char*>& queries, int tuples) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  for (const char* query : queries) ASSERT_TRUE(engine.Submit(query).ok());
  ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
  IngestRange(engine, 0, tuples);
  engine.FinishAll();
}

// Writes `c` as the newest checkpoint in `dir`.
void WriteNewestCheckpoint(const std::string& dir, dur::Checkpoint c) {
  auto latest = dur::ReadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  c.id = latest->id + 1;
  ASSERT_TRUE(dur::WriteCheckpoint(dir, c, /*keep=*/4).ok());
}

TEST(EngineDurabilityTest, UnparsableStateReplaysThatQueryOnly) {
  const char* kSelect = "select ts, len from packets where len > 300";
  // The aggregate query's last saved state (its collector's) becomes two
  // junk bytes, so its group-by has already restored when the collector
  // fails and must be put back as built; or that state is missing, so the
  // checkpoint no longer fits the plan. The select's checkpoint stays
  // intact either way.
  for (bool drop : {false, true}) {
    SCOPED_TRACE(drop ? "collector state dropped" : "collector state junk");
    std::string dir = TempDir(drop ? "missing-state" : "bad-state");
    FinishedDurableRun(dir, {kAggQuery, kSelect}, 300);
    auto ckpt = dur::ReadLatestCheckpoint(dir);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_EQ(ckpt->queries.size(), 2u);
    ASSERT_EQ(ckpt->queries[0].text, kAggQuery);
    ASSERT_EQ(ckpt->queries[0].op_states.size(), 2u);
    if (drop) {
      ckpt->queries[0].op_states.pop_back();
    } else {
      ckpt->queries[0].op_states[1] = std::string("\x01\x02");
    }
    WriteNewestCheckpoint(dir, *ckpt);

    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
    auto agg = engine.Submit(kAggQuery);
    auto sel = engine.Submit(kSelect);
    ASSERT_TRUE(agg.ok() && sel.ok());
    Status st = engine.EnableDurability(dir, {});
    ASSERT_TRUE(st.ok()) << st.ToString();
    const RecoveryReport& rep = engine.recovery_report();
    EXPECT_TRUE(rep.checkpoint_loaded);
    EXPECT_EQ(rep.restored_queries, 1u);
    EXPECT_EQ(rep.replay_from_zero_queries, 1u);
    EXPECT_EQ(rep.replayed_tuples, 300u);
    engine.FinishAll();
    EXPECT_EQ(Rows(*agg), ReferenceRows(300));
    EXPECT_EQ(Rows(*sel), ReferenceRows(300, kSelect));
  }
}

TEST(EngineDurabilityTest, RetiredJoinLayoutReplaysFromZero) {
  std::string dir = TempDir("old-join");
  const int kTuples = 300;
  const int kPosition = 120;
  FinishedDurableRun(dir, {kUnwindowedJoin}, kTuples);

  // The unwindowed join's state as the retired symmetric hash join saved
  // it after `kPosition` packets: I64 flushes, then per side a U32 key
  // count and each key with its tuples (src_ip = i % 7).
  dur::BufWriter join;
  join.I64(0);
  for (int side = 0; side < 2; ++side) {
    join.U32(7);
    for (int64_t src = 0; src < 7; ++src) {
      join.U32(1);
      join.Val(Value(src));
      join.U32(static_cast<uint32_t>((kPosition - src + 6) / 7));
      for (int i = static_cast<int>(src); i < kPosition; i += 7) {
        join.Tup(*NthPkt(i));
      }
    }
  }
  // The collector's rows at that point: the reference run's prefix.
  StreamEngine prefix;
  ASSERT_TRUE(prefix.RegisterStream("packets", gen::PacketSchema()).ok());
  auto pq = prefix.Submit(kUnwindowedJoin);
  ASSERT_TRUE(pq.ok());
  IngestRange(prefix, 0, kPosition);
  dur::BufWriter sink;
  sink.U32(static_cast<uint32_t>((*pq)->results().size()));
  for (const TupleRef& t : (*pq)->results()) sink.Tup(*t);
  sink.U32(0);

  dur::Checkpoint c;
  c.position = kPosition;
  c.next_seq = kTuples + 1;
  dur::QueryCheckpoint qc;
  qc.text = kUnwindowedJoin;
  qc.included = true;
  qc.op_states = {join.Take(), sink.Take()};
  c.queries.push_back(qc);
  WriteNewestCheckpoint(dir, c);

  RecoveryReport rep;
  std::vector<std::string> rows =
      RecoverRows(dir, /*use_checkpoint=*/true, &rep, kUnwindowedJoin);
  EXPECT_TRUE(rep.checkpoint_loaded);
  EXPECT_EQ(rep.checkpoint_position, static_cast<uint64_t>(kPosition));
  EXPECT_EQ(rep.restored_queries, 0u);
  EXPECT_EQ(rep.replay_from_zero_queries, 1u);
  EXPECT_EQ(rep.replayed_tuples, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(rows, ReferenceRows(kTuples, kUnwindowedJoin));
}

TEST(EngineDurabilityTest, NonCheckpointableQueryFallsBackToFullReplay) {
  std::string dir = TempDir("fallback");
  // Shard operators run apart from the ingest thread's checkpoint.
  SubmitOptions sharded;
  sharded.exec.sharding.emplace();
  sharded.exec.sharding->shards = 2;
  std::vector<std::string> live;
  {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
    auto q = engine.Submit(kAggQuery, sharded);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    dur::DurabilityOptions opt;
    opt.checkpoint_every = 50;
    ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
    IngestRange(engine, 0, 300);
    engine.FinishAll();
    live = Rows(*q);
  }
  // The checkpoint excludes the sharded query; recovery replays its
  // input from seq 0 and still converges.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(kAggQuery, sharded);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
  const RecoveryReport& rep = engine.recovery_report();
  EXPECT_TRUE(rep.checkpoint_loaded);
  EXPECT_EQ(rep.restored_queries, 0u);
  EXPECT_EQ(rep.replay_from_zero_queries, 1u);
  EXPECT_EQ(rep.replayed_tuples, 300u);
  engine.FinishAll();
  EXPECT_EQ(Rows(*q), live);
}

TEST(EngineDurabilityTest, PunctuationIsArchivedAndReplayed) {
  std::string dir = TempDir("punct");
  {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
    ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
    ASSERT_TRUE(engine.IngestElement("packets", Element(Pkt(1, 1, 6, 9))).ok());
    ASSERT_TRUE(
        engine
            .IngestElement("packets", Element(Punctuation::Watermark(10)))
            .ok());
    engine.FinishAll();
  }
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  dur::DurabilityOptions opt;
  opt.use_checkpoint = false;
  ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
  EXPECT_EQ(engine.recovery_report().replayed_tuples, 1u);
  EXPECT_EQ(engine.recovery_report().replayed_puncts, 1u);
}

TEST(EngineDurabilityTest, ReplayIntoNewQueryOverArchivedPast) {
  std::string dir = TempDir("replayinto");
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
  IngestRange(engine, 0, 100);

  // A late subscriber sees the archived past, then live data.
  auto q = engine.Submit("select ts from packets where len > 10");
  ASSERT_TRUE(q.ok());
  auto replayed = engine.ReplayInto(*q);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 100u);
  size_t after_replay = (*q)->result_count();
  EXPECT_GT(after_replay, 0u);

  IngestRange(engine, 100, 150);
  engine.FinishAll();
  EXPECT_GT((*q)->result_count(), after_replay);

  // The late query's total equals a from-the-start subscription.
  StreamEngine ref;
  ASSERT_TRUE(ref.RegisterStream("packets", gen::PacketSchema()).ok());
  auto rq = ref.Submit("select ts from packets where len > 10");
  ASSERT_TRUE(rq.ok());
  IngestRange(ref, 0, 150);
  ref.FinishAll();
  EXPECT_EQ(Rows(*q), Rows(*rq));
}

TEST(EngineDurabilityTest, TornTailDoesNotMaskRecordsAfterRestart) {
  std::string dir = TempDir("torn-restart");
  // Run 1: durable ingest, then a crash tears the segment tail.
  {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
    ASSERT_TRUE(engine.Submit(kAggQuery).ok());
    dur::DurabilityOptions opt;
    opt.flush_interval_ms = 0;
    ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
    IngestRange(engine, 0, 100);
  }
  std::vector<std::string> segs;
  ASSERT_TRUE(dur::ListDir(dir + "/streams/packets", &segs).ok());
  ASSERT_FALSE(segs.empty());
  FILE* f =
      std::fopen((dir + "/streams/packets/" + segs.back()).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[] = {0x2A, 0x00, 0x00, 0x01, 0x55};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);

  // Run 2: recover past the torn frame and keep ingesting — the new
  // records land in a segment that sorts after the torn one.
  {
    StreamEngine engine;
    ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
    ASSERT_TRUE(engine.Submit(kAggQuery).ok());
    dur::DurabilityOptions opt;
    opt.flush_interval_ms = 0;
    ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
    IngestRange(engine, 100, 200);
    engine.FinishAll();
  }

  // Run 3: a full replay must see run 2's records — the stale torn
  // frame (already truncated away by run 2's recovery) must not end the
  // chain early and silently drop data that was acknowledged durable.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(kAggQuery);
  ASSERT_TRUE(q.ok());
  dur::DurabilityOptions opt;
  opt.use_checkpoint = false;
  ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
  EXPECT_EQ(engine.recovery_report().replayed_tuples, 200u);
  engine.FinishAll();
  EXPECT_EQ(Rows(*q), ReferenceRows(200));
}

TEST(EngineDurabilityTest, ReplayIntoStopsAtSubmitBoundary) {
  std::string dir = TempDir("replay-bound");
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
  IngestRange(engine, 0, 50);

  auto q = engine.Submit("select ts from packets where len > 10");
  ASSERT_TRUE(q.ok());
  // Elements arriving between Submit and ReplayInto are delivered live;
  // the replay must stop at the Submit-time archive position so they
  // are not delivered a second time.
  IngestRange(engine, 50, 80);
  auto replayed = engine.ReplayInto(*q);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 50u);

  IngestRange(engine, 80, 100);
  engine.FinishAll();

  StreamEngine ref;
  ASSERT_TRUE(ref.RegisterStream("packets", gen::PacketSchema()).ok());
  auto rq = ref.Submit("select ts from packets where len > 10");
  ASSERT_TRUE(rq.ok());
  IngestRange(ref, 0, 100);
  ref.FinishAll();
  EXPECT_EQ(Rows(*q), Rows(*rq));
}

TEST(EngineDurabilityTest, RecoveryRoutesEachRecordToItsStreamOnly) {
  std::string dir = TempDir("routing");
  const char* kPackets = "select ts, len from packets";
  const char* kOther = "select ts, len from other";
  const char* kQuiet = "select ts, len from quiet";
  // Interleaved input, told apart by len: packets carry i, other 1000+i.
  auto feed = [](StreamEngine& engine) {
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, i)).ok());
      if (i < 60) {
        ASSERT_TRUE(engine.Ingest("other", Pkt(i, 2, 6, 1000 + i)).ok());
      }
    }
  };
  auto register_all = [](StreamEngine& engine) {
    for (const char* s : {"packets", "other", "quiet"}) {
      ASSERT_TRUE(engine.RegisterStream(s, gen::PacketSchema()).ok());
    }
  };

  // Run 1 checkpoints only the packets query, mid-run, and stops
  // without a final checkpoint.
  {
    StreamEngine engine;
    register_all(engine);
    ASSERT_TRUE(engine.Submit(kPackets).ok());
    dur::DurabilityOptions opt;
    opt.checkpoint_every = 50;
    opt.flush_interval_ms = 0;
    ASSERT_TRUE(engine.EnableDurability(dir, opt).ok());
    feed(engine);
  }

  // Run 2: the packets query resumes from the checkpoint; the other two
  // replay from seq 0, and "quiet" was never ingested into.
  StreamEngine engine;
  register_all(engine);
  auto qp = engine.Submit(kPackets);
  auto qo = engine.Submit(kOther);
  auto qq = engine.Submit(kQuiet);
  ASSERT_TRUE(qp.ok() && qo.ok() && qq.ok());
  ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
  const RecoveryReport& rep = engine.recovery_report();
  EXPECT_TRUE(rep.checkpoint_loaded);
  EXPECT_GT(rep.checkpoint_position, 0u);
  EXPECT_EQ(rep.restored_queries, 1u);
  EXPECT_EQ(rep.replay_from_zero_queries, 2u);
  EXPECT_EQ(rep.replayed_tuples, 160u);
  EXPECT_EQ(rep.replayed_puncts, 0u);
  engine.FinishAll();

  StreamEngine ref;
  register_all(ref);
  auto rp = ref.Submit(kPackets);
  auto ro = ref.Submit(kOther);
  ASSERT_TRUE(rp.ok() && ro.ok());
  feed(ref);
  ref.FinishAll();
  EXPECT_EQ((*qp)->result_count(), 100u);
  EXPECT_EQ((*qo)->result_count(), 60u);
  EXPECT_EQ((*qq)->result_count(), 0u);
  EXPECT_EQ(Rows(*qp), Rows(*rp));
  EXPECT_EQ(Rows(*qo), Rows(*ro));
}

TEST(EngineDurabilityTest, EnableTwiceRejected) {
  std::string dir = TempDir("twice");
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.EnableDurability(dir, {}).ok());
  EXPECT_EQ(engine.EnableDurability(dir, {}).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace sqp
