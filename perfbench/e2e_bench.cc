// e2e_bench: streamqp's end-to-end, layer-attributed benchmark.
//
//   e2e_bench --workload fanout|window_agg|sharded_groupby|served_durable
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Drives the system only through its public API (cql::Compile,
// StreamEngine, dur::DurabilityManager, server::ResultQueue/RowJson and
// the HTTP query server) with inputs generated from --seed. Every round
// checks each query's output against the serial CompiledQuery::Push
// reference on the same input. --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones; the last stdout line is one JSON object.
// README.md explains why each workload exists and which layer it isolates.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/engine.h"
#include "bench_math.h"
#include "common/rng.h"
#include "cql/planner.h"
#include "dur/manager.h"
#include "exec/sharded_op.h"
#include "obs/trace.h"
#include "server/http.h"
#include "server/query_server.h"
#include "server/session.h"
#include "stream/generators.h"

namespace perfbench {
namespace {

using sqp::Element;
using sqp::Status;
using sqp::StreamEngine;
using sqp::Tuple;
using sqp::TupleRef;
using sqp::Value;
using sqp::ValueType;

// One watermark per this many tuples closes the windowed workloads.
constexpr uint64_t kWatermarkEvery = 1024;
// One extra query is submitted, and removed half a period later.
constexpr uint64_t kChurnEvery = 4096;
constexpr int kIdleQueries = 100;
// 1/N of the ingest calls carry a latency stamp or a trace span;
// watermarks always carry a stamp, and in a sharded run so does every
// item that emitted a result in the reference run.
constexpr uint64_t kLatencySampleEvery = 16;
constexpr uint64_t kSpanSampleEvery = 64;
// served_durable: the open-loop phase's fixed input rate, and how late
// its generator may run before the rate counts as not sustained.
constexpr double kOpenLoopRate = 100000.0;
constexpr double kMaxLateMs = 1.0;

uint64_t Now() { return sqp::obs::NowNs(); }

double Secs(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Outcome tally: every attempted operation and every output check.
// ---------------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool outputs_ok = true;

  bool Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) {
        std::fprintf(stderr, "e2e_bench: FAILED %s\n", what.c_str());
      }
    }
    return ok;
  }
  bool Op(const Status& s, const std::string& what) {
    return Op(s.ok(), what + (s.ok() ? "" : ": " + s.ToString()));
  }
  bool Check(bool ok, const std::string& what) {
    if (!ok) outputs_ok = false;
    return Op(ok, "output check " + what);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    outputs_ok = outputs_ok && o.outputs_ok;
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's calls into each layer.
// One Tracer per thread; spans stay in memory until the run ends.
// ---------------------------------------------------------------------------

enum SpanName : uint32_t {
  kRound,
  kSetup,
  kCompile,
  kSubmit,
  kRemove,
  kIngest,
  kFinish,
  kPost,
  kPoll,
  kDecode,
  kNumSpanNames
};
const char* const kSpanNames[kNumSpanNames] = {
    "round",       "setup",        "cql.compile", "arch.submit",
    "arch.remove", "arch.ingest",  "arch.finish", "server.post",
    "client.poll", "client.decode"};

class Tracer {
 public:
  int64_t Begin(SpanName name, int64_t parent, uint64_t request) {
    spans_.push_back(Span{name, Now(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t i) {
    if (i >= 0) spans_[static_cast<size_t>(i)].end_ns = Now();
  }
  /// Appends `other`'s spans, re-basing their parent indices.
  void Absorb(const Tracer& other) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Begin/End on a possibly absent tracer.
int64_t SpanBegin(Tracer* t, SpanName n, int64_t parent, uint64_t req) {
  return t != nullptr ? t->Begin(n, parent, req) : -1;
}
void SpanEnd(Tracer* t, int64_t i) {
  if (t != nullptr) t->End(i);
}

// ---------------------------------------------------------------------------
// Memory: the resident set, sampled.
// ---------------------------------------------------------------------------

// Elements between two resident-set samples (about 10 us each).
constexpr uint64_t kRssSampleEvery = 16384;

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1 << 20);
}

// ---------------------------------------------------------------------------
// Rows: hashing for the multiset checksum, and the sink that folds them.
// ---------------------------------------------------------------------------

/// Hash of one row's values. With `types`, each value is read as its
/// column's declared type, which is all a client decoding JSON knows (a
/// double 175.0 renders as 175); without, as the type it has.
uint64_t RowHash(const Tuple& t,
                 const std::vector<ValueType>* types = nullptr) {
  RowHasher h;
  for (size_t i = 0; i < t.arity(); ++i) {
    const Value& v = t.at(i);
    const ValueType type =
        types != nullptr && i < types->size() ? (*types)[i] : v.type();
    if (v.is_null()) {
      h.AddNull();
    } else if (type == ValueType::kInt) {
      h.AddInt(v.type() == ValueType::kInt
                   ? v.AsInt()
                   : static_cast<int64_t>(v.ToDouble()));
    } else if (type == ValueType::kDouble) {
      h.AddDouble(v.ToDouble());
    } else if (type == ValueType::kString) {
      h.AddString(v.type() == ValueType::kString ? v.AsString()
                                                 : v.ToString());
    } else {
      h.AddNull();
    }
  }
  return h.Finish();
}

/// Terminal operator of a directly driven CompiledQuery.
class FoldSink : public sqp::Operator {
 public:
  explicit FoldSink(std::function<void(const TupleRef&)> fn)
      : Operator("bench-sink"), fn_(std::move(fn)) {}
  void Push(const Element& e, int /*port*/) override {
    if (e.is_tuple()) fn_(e.tuple());
  }

 private:
  std::function<void(const TupleRef&)> fn_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct QuerySpec {
  std::string name;
  std::string text;
  std::vector<int> inputs;  // Workload stream index feeding each input.
};

struct Item {
  int stream;
  Element e;
};

struct Workload {
  std::string name;
  std::vector<std::string> streams;
  std::vector<sqp::SchemaRef> schemas;
  std::vector<QuerySpec> live;
  std::string churn_text;
  int idle_queries = 0;  // On the unrelated stream "other".
  int shards = 0;        // > 0: live queries run under EnableSharding.
  bool served = false;   // Live query served over HTTP, durability on.
  std::vector<Item> items;
};

// The unrelated stream that idle queries read; nothing is ingested there.
constexpr const char* kIdleText =
    "select src_ip, len from other where len > 100";

std::vector<sqp::FieldDomain> PacketDomains() {
  std::vector<sqp::FieldDomain> d(sqp::gen::PacketSchema()->num_fields());
  d[sqp::gen::PacketCols::kProtocol] = {"protocol", true, 256};
  d[sqp::gen::PacketCols::kIsSyn] = {"is_syn", true, 2};
  d[sqp::gen::PacketCols::kIsAck] = {"is_ack", true, 2};
  return d;
}

sqp::SchemaRef EventSchema() {
  static const sqp::SchemaRef kSchema = std::make_shared<sqp::Schema>(
      std::vector<sqp::Field>{{"ts", ValueType::kInt},
                              {"id", ValueType::kInt},
                              {"v", ValueType::kInt},
                              {"tag", ValueType::kString}});
  return kSchema;
}

std::vector<sqp::FieldDomain> DomainsFor(const sqp::SchemaRef& s) {
  return s == sqp::gen::PacketSchema() ? PacketDomains()
                                       : std::vector<sqp::FieldDomain>{};
}

const char* const kGroupBy =
    "select tb, src_ip, sum(len) from packets where protocol = 6 "
    "group by ts/60 as tb, src_ip having count(*) > 5";
const char* const kChurnPackets =
    "select src_ip, dst_port from packets where dst_port = 80";

// Tuples per round; each round replays the same generated input.
uint64_t RoundTuples(const std::string& workload) {
  if (workload == "window_agg") return 200000;
  if (workload == "served_durable") return 100000;  // Closed-loop phase.
  return 250000;
}

void AddPackets(Workload* w, uint64_t seed, bool split_syn, bool watermarks) {
  sqp::gen::PacketOptions opt;
  opt.seed = seed;
  sqp::gen::PacketGenerator gen(opt);
  const uint64_t n = RoundTuples(w->name);
  w->items.reserve(n + n / 8);
  for (uint64_t i = 1; i <= n; ++i) {
    TupleRef p = gen.Next();
    const bool syn = p->at(sqp::gen::PacketCols::kIsSyn).AsInt() == 1;
    const bool ack = p->at(sqp::gen::PacketCols::kIsAck).AsInt() == 1;
    w->items.push_back({0, Element(p)});
    if (split_syn && syn) w->items.push_back({ack ? 2 : 1, Element(p)});
    if (watermarks && i % kWatermarkEvery == 0) {
      const int64_t ts = p->ts();
      const int streams = split_syn ? 3 : 1;
      for (int s = 0; s < streams; ++s) {
        w->items.push_back({s, Element(sqp::Punctuation::Watermark(ts))});
      }
    }
  }
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  const sqp::SchemaRef packet = sqp::gen::PacketSchema();
  if (name == "fanout") {
    w->streams = {"packets", "other"};
    w->schemas = {packet, packet};
    w->live = {
        {"tcp", "select src_ip, dst_ip, len from packets where protocol = 6",
         {0}},
        {"big", "select ts, src_ip, len from packets where len > 512", {0}},
        {"syn", "select src_port, dst_port from packets where is_syn = 1",
         {0}},
        {"udp_bits",
         "select dst_ip, len * 8 as bits from packets where protocol = 17",
         {0}}};
    w->churn_text = kChurnPackets;
    w->idle_queries = kIdleQueries;
    AddPackets(w, seed, false, false);
  } else if (name == "window_agg" || name == "sharded_groupby") {
    const bool agg = name == "window_agg";
    w->streams = {"packets", "syn", "synack", "other"};
    w->schemas = {packet, packet, packet, packet};
    w->live = {{"gby", kGroupBy, {0}}};
    if (agg) {
      w->live.push_back(
          {"slide", "select avg(len), max(len) from packets [range 60]", {0}});
      w->live.push_back(
          {"rtt",
           "select s.ts, a.ts - s.ts as rtt "
           "from syn s [range 300], synack a [range 300] "
           "where s.src_ip = a.dst_ip and s.dst_ip = a.src_ip "
           "and s.src_port = a.dst_port and s.dst_port = a.src_port "
           "and s.is_syn = 1 and s.is_ack = 0 and a.is_syn = 1 "
           "and a.is_ack = 1",
           {1, 2}});
    } else {
      w->shards = 2;
    }
    w->churn_text = kChurnPackets;
    AddPackets(w, seed, agg, true);
  } else if (name == "served_durable") {
    w->streams = {"events", "other"};
    w->schemas = {EventSchema(), packet};
    w->live = {{"served", "select id, v, tag from events where v >= 100", {0}}};
    w->churn_text = "select id from events where v < 10";
    w->served = true;
    // The tuple ts is a placeholder (the id): rounds rebuild each event
    // stamped with its ingest or due time, which no query reads.
    static const char* const kTags[] = {"alpha", "bravo", "charlie", "delta",
                                        "echo",  "fox",   "golf",    "hotel"};
    sqp::Rng rng(seed);
    const uint64_t n = RoundTuples(name) +
                       static_cast<uint64_t>(kOpenLoopRate * 0.3);
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t id = static_cast<int64_t>(i);
      const int64_t v = static_cast<int64_t>(rng.Uniform(1000));
      w->items.push_back(
          {0, Element(sqp::MakeTuple(id, {Value(id), Value(id), Value(v),
                                          Value(kTags[rng.Uniform(8)])}))});
    }
  } else {
    return false;
  }
  return true;
}

sqp::cql::Catalog MakeCatalog(const Workload& w) {
  sqp::cql::Catalog cat;
  for (size_t s = 0; s < w.streams.size(); ++s) {
    (void)cat.Register(w.streams[s], w.schemas[s], DomainsFor(w.schemas[s]));
  }
  return cat;
}

// ---------------------------------------------------------------------------
// Reference: each live query compiled and pushed directly, serially.
// ---------------------------------------------------------------------------

struct Reference {
  std::vector<Multiset> out;                   // Per live query.
  std::vector<std::vector<TupleRef>> rows;     // Per live query (capped).
  std::vector<std::vector<ValueType>> types;   // Output column types.
  // Row hash -> index of the item whose push emitted it, for the first
  // live query: a threaded run's latency is measured from that item.
  std::unordered_map<uint64_t, uint32_t> cause;
  std::vector<bool> is_cause;  // Per item: some row of query 0 dates from it.
  // served_durable: rows of the first live query caused by the
  // closed-loop phase's events.
  uint64_t closed_rows = 0;
};

constexpr size_t kKeptRows = 50000;

/// The live queries compiled for direct CompiledQuery::Push, each query
/// k's output rows handed to on_row(k, row).
struct DirectQueries {
  std::vector<std::unique_ptr<sqp::cql::CompiledQuery>> cqs;
  std::vector<std::unique_ptr<FoldSink>> sinks;
};

bool CompileLive(const Workload& w,
                 const std::function<void(size_t, const TupleRef&)>& on_row,
                 DirectQueries* out, Tally* tally) {
  const sqp::cql::Catalog cat = MakeCatalog(w);
  for (size_t q = 0; q < w.live.size(); ++q) {
    auto cq = sqp::cql::Compile(w.live[q].text, cat);
    if (!tally->Op(cq.status(), "compile " + w.live[q].name)) return false;
    out->sinks.push_back(std::make_unique<FoldSink>(
        [on_row, q](const TupleRef& t) { on_row(q, t); }));
    (*cq)->AttachSink(out->sinks.back().get());
    out->cqs.push_back(std::move(*cq));
  }
  return true;
}

/// Feeds the whole input to the queries in one pass, as the engine
/// would: each item goes into every query input that reads its stream.
/// `current` tracks the index of the item being pushed.
void PushItems(const Workload& w, DirectQueries& dq, uint32_t* current) {
  for (size_t i = 0; i < w.items.size(); ++i) {
    const Item& it = w.items[i];
    *current = static_cast<uint32_t>(i);
    for (size_t q = 0; q < dq.cqs.size(); ++q) {
      const std::vector<int>& inputs = w.live[q].inputs;
      for (size_t in = 0; in < inputs.size(); ++in) {
        if (inputs[in] == it.stream) {
          dq.cqs[q]->Push(it.e, static_cast<int>(in));
        }
      }
    }
  }
  for (auto& cq : dq.cqs) cq->Finish();
}

bool BuildReference(const Workload& w, Reference* ref, Tally* tally) {
  ref->out.assign(w.live.size(), {});
  ref->rows.assign(w.live.size(), {});
  ref->is_cause.assign(w.items.size(), false);
  uint32_t current = 0;
  const auto on_row = [&](size_t q, const TupleRef& t) {
    const uint64_t h = RowHash(*t);
    ref->out[q].Add(h);
    if (ref->rows[q].size() < kKeptRows) ref->rows[q].push_back(t);
    if (q != 0) return;
    if (w.shards > 0) {
      ref->cause.emplace(h, current);
      ref->is_cause[current] = true;
    }
    if (current < RoundTuples(w.name)) ++ref->closed_rows;
  };
  DirectQueries dq;
  if (!CompileLive(w, on_row, &dq, tally)) return false;
  for (const auto& cq : dq.cqs) {
    std::vector<ValueType> types;
    for (const auto& f : cq->output_schema().fields()) types.push_back(f.type);
    ref->types.push_back(types);
  }
  PushItems(w, dq, &current);
  for (size_t q = 0; q < w.live.size(); ++q) {
    if (!tally->Check(ref->out[q].count > 0,
                      "reference of " + w.live[q].name + " is empty")) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// HTTP client: POST, and a long-poll reader that decodes NDJSON chunks as
// they arrive (receipt time is the recv that delivered the row's bytes).
// ---------------------------------------------------------------------------

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request on its own connection; returns the whole raw response.
std::string Request(int port, const std::string& req) {
  int fd = Connect(port);
  if (fd < 0) return "";
  std::string resp;
  if (sqp::server::SendAll(fd, req.data(), req.size())) {
    char buf[8192];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      resp.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return resp;
}

/// POSTs a query; returns the session id, or "" on any HTTP error.
std::string PostQuery(int port, const std::string& cql) {
  const std::string raw = Request(
      port, "POST /query?queue=1024&block_ms=10000 HTTP/1.1\r\nHost: b\r\n"
            "Content-Length: " + std::to_string(cql.size()) +
                "\r\nConnection: close\r\n\r\n" + cql);
  if (raw.rfind("HTTP/1.1 200", 0) != 0 && raw.rfind("HTTP/1.0 200", 0) != 0) {
    return "";
  }
  std::string head, body;
  if (!sqp::server::SplitHttpResponse(raw, &head, &body)) return "";
  body = sqp::server::DechunkBody(head, body);
  const std::string pat = "\"session\":\"";
  size_t p = body.find(pat);
  if (p == std::string::npos) return "";
  p += pat.size();
  return body.substr(p, body.find('"', p) - p);
}

/// Parses one value of type `t` at `p` (advancing it) into `h`.
bool ParseValue(const char*& p, const char* end, ValueType t, RowHasher* h) {
  if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
    p += 4;
    h->AddNull();
    return true;
  }
  char* stop = nullptr;
  if (t == ValueType::kString) {
    if (p >= end || *p != '"') return false;
    std::string s;
    for (++p; p < end && *p != '"'; ++p) {
      if (*p == '\\' && p + 1 < end) ++p;
      s.push_back(*p);
    }
    if (p >= end) return false;
    ++p;
    h->AddString(s);
    return true;
  }
  if (t == ValueType::kDouble) {
    const double d = std::strtod(p, &stop);
    h->AddDouble(d);
  } else {
    const long long v = std::strtoll(p, &stop, 10);
    h->AddInt(static_cast<int64_t>(v));
  }
  if (stop == p) return false;
  p = stop;
  return true;
}

/// One decoded result row.
struct RowLine {
  uint64_t seq = 0;
  int64_t ts = 0;
  int64_t first = 0;  // First column when it is an int (the event id).
  uint64_t hash = 0;
};

/// Parses {"seq":S,"ts":T,"row":[v,...]} with the query's column types.
bool ParseRowLine(std::string_view line, const std::vector<ValueType>& types,
                  RowLine* out) {
  static constexpr std::string_view kSeq = "{\"seq\":";
  if (line.substr(0, kSeq.size()) != kSeq) return false;
  const char* p = line.data() + kSeq.size();
  const char* end = line.data() + line.size();
  char* stop = nullptr;
  out->seq = std::strtoull(p, &stop, 10);
  p = stop;
  auto starts = [&](std::string_view prefix) {
    return std::string_view(p, static_cast<size_t>(end - p))
               .substr(0, prefix.size()) == prefix;
  };
  static constexpr std::string_view kTs = ",\"ts\":";
  if (!starts(kTs)) return false;
  out->ts = std::strtoll(p + kTs.size(), &stop, 10);
  p = stop;
  static constexpr std::string_view kRow = ",\"row\":[";
  if (!starts(kRow)) return false;
  p += kRow.size();
  RowHasher h;
  for (size_t c = 0; c < types.size(); ++c) {
    if (c > 0) {
      if (p >= end || *p != ',') return false;
      ++p;
    }
    if (c == 0 && types[0] == ValueType::kInt) out->first = std::atoll(p);
    if (!ParseValue(p, end, types[c], &h)) return false;
  }
  if (p >= end || *p != ']') return false;
  out->hash = h.Finish();
  return true;
}

/// Incremental decoder of one chunked HTTP response carrying NDJSON.
class ChunkedLines {
 public:
  /// Consumes `n` bytes, calling on_line(line) per completed line.
  /// Returns false on a malformed response.
  template <class F>
  bool Feed(const char* data, size_t n, F&& on_line) {
    buf_.append(data, n);
    for (;;) {
      if (state_ == kHead) {
        const size_t e = buf_.find("\r\n\r\n", pos_);
        if (e == std::string::npos) break;
        const std::string head = buf_.substr(pos_, e - pos_);
        if (head.rfind("HTTP/1.1 200", 0) != 0 ||
            head.find("chunked") == std::string::npos) {
          return false;
        }
        pos_ = e + 4;
        state_ = kSize;
      } else if (state_ == kSize) {
        const size_t e = buf_.find("\r\n", pos_);
        if (e == std::string::npos) break;
        left_ = std::strtoull(buf_.c_str() + pos_, nullptr, 16);
        pos_ = e + 2;
        state_ = left_ == 0 ? kDone : kData;
      } else if (state_ == kData) {
        const size_t take = std::min<size_t>(left_, buf_.size() - pos_);
        if (take == 0) break;
        for (size_t i = pos_; i < pos_ + take; ++i) {
          if (buf_[i] == '\n') {
            on_line(std::string_view(line_));
            line_.clear();
          } else {
            line_.push_back(buf_[i]);
          }
        }
        pos_ += take;
        left_ -= take;
        if (left_ == 0) state_ = kDataEnd;
      } else if (state_ == kDataEnd) {
        if (buf_.size() - pos_ < 2) break;
        pos_ += 2;
        state_ = kSize;
      } else {
        break;
      }
    }
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return true;
  }
  bool done() const { return state_ == kDone; }

 private:
  enum State { kHead, kSize, kData, kDataEnd, kDone };
  State state_ = kHead;
  std::string buf_;
  size_t pos_ = 0;
  uint64_t left_ = 0;
  std::string line_;
};

/// What the served client saw.
struct ClientResult {
  Multiset ms;
  std::vector<uint8_t> seen;      // Per seq: times received.
  uint64_t rows = 0;
  uint64_t closed_rows = 0;       // Rows of the closed-loop phase.
  uint64_t closed_done_ns = 0;    // Receipt of the last closed-loop row.
  std::vector<uint64_t> open_lat_ns;
  uint64_t responses = 0;
  uint64_t decode_ns = 0;
  bool finished = false;
  Tally tally;
};

/// Streams one session until it finishes (or `deadline_ns`): long-polls
/// from the cursor, decodes each chunk on arrival, and checks every seq.
void RunClient(int port, const std::string& sid,
               const std::vector<ValueType>& types, int64_t open_from_id,
               uint64_t closed_rows_target, uint64_t deadline_ns,
               Tracer* tracer, ClientResult* out) {
  uint64_t cursor = 0;
  uint64_t req = 0;
  while (!out->finished && Now() < deadline_ns) {
    const int64_t poll = SpanBegin(tracer, kPoll, -1, ++req);
    const std::string get =
        "GET /session/" + sid + "/results?wait_ms=200&cursor=" +
        std::to_string(cursor) +
        " HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n";
    int fd = Connect(port);
    bool ok = fd >= 0 && sqp::server::SendAll(fd, get.data(), get.size());
    ChunkedLines dec;
    uint64_t rows_here = 0;
    bool trailer = false;
    char buf[65536];
    while (ok && !dec.done()) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      const uint64_t t = Now();
      const int64_t span = SpanBegin(tracer, kDecode, poll, req);
      ok = dec.Feed(buf, static_cast<size_t>(n), [&](std::string_view line) {
        RowLine row;
        if (ParseRowLine(line, types, &row)) {
          ++rows_here;
          if (row.seq >= out->seen.size()) out->seen.resize(row.seq + 1, 0);
          if (out->seen[row.seq]++ == 0) out->ms.Add(row.hash);
          cursor = std::max(cursor, row.seq + 1);
          if (row.first < open_from_id) {
            if (++out->closed_rows == closed_rows_target) {
              out->closed_done_ns = t;
            }
          } else {
            out->open_lat_ns.push_back(t > static_cast<uint64_t>(row.ts)
                                           ? t - static_cast<uint64_t>(row.ts)
                                           : 0);
          }
          return;
        }
        const size_t p = line.find("\"next_cursor\":");
        if (p == std::string_view::npos) return;
        trailer = true;
        cursor = std::strtoull(line.data() + p + 14, nullptr, 10);
        out->finished =
            line.find("\"finished\":true") != std::string_view::npos;
      });
      SpanEnd(tracer, span);
      out->decode_ns += Now() - t;
    }
    if (fd >= 0) ::close(fd);
    SpanEnd(tracer, poll);
    out->rows += rows_here;
    out->responses += 1;
    if (!out->tally.Op(ok && trailer, "GET results of " + sid)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

// ---------------------------------------------------------------------------
// One round: a fresh engine, set up, fed the whole input, finished, and
// its outputs checked against the reference.
// ---------------------------------------------------------------------------

struct RoundConfig {
  bool metrics = true;
  int idle = 0;
  int shards = 0;
  bool churn = true;
  bool latency = true;
  bool sample_state = false;
  Tracer* tracer = nullptr;
};

struct RoundStats {
  double setup_s = 0;
  double run_s = 0;     // First ingest until every result was received.
  double ingest_s = 0;  // The ingest loop alone (ends before FinishAll).
  double finish_ms = 0;
  uint64_t elements = 0;
  uint64_t rows_out = 0;
  std::vector<uint64_t> lat_ns;
  std::vector<uint64_t> submit_ns, remove_ns, churn_ns;
  double rss_growth_mb = 0;
  double state_mb = 0;
  uint64_t busy_ns = 0;  // Profiler busy time summed over live queries.
  // Sharded plans.
  double shard_busy_frac = 0, shard_skew = 0;
  uint64_t shard_max_depth = 0;
  // served_durable.
  double closed_s = 0;
  uint64_t closed_rows = 0;
  double gen_late_max_ms = 0;
  uint64_t responses = 0, served_rows = 0;
  uint64_t client_decode_ns = 0;
  Tally tally;
};

std::string DurDir(const std::string& workdir, uint64_t round) {
  return workdir + "/dur-" + std::to_string(::getpid()) + "-" +
         std::to_string(round);
}

// Times one Submit (at phase 0) or Remove (at half period) of the churn
// query, so registration runs against live ingest.
void Churn(StreamEngine& engine, const Workload& w, uint64_t i,
           sqp::QueryHandle** churn, RoundStats* r, Tracer* tr,
           int64_t parent) {
  const uint64_t phase = i % kChurnEvery;
  if (phase == 0 && *churn == nullptr) {
    const int64_t span = SpanBegin(tr, kSubmit, parent, i);
    const uint64_t t = Now();
    sqp::SubmitOptions so;
    so.collect = false;
    auto h = engine.Submit(w.churn_text, so);
    r->submit_ns.push_back(Now() - t);
    SpanEnd(tr, span);
    if (r->tally.Op(h.status(), "submit churn query")) *churn = *h;
  } else if ((phase == kChurnEvery / 2 || i == w.items.size()) &&
             *churn != nullptr) {
    const int64_t span = SpanBegin(tr, kRemove, parent, i);
    const uint64_t t = Now();
    Status s = engine.Remove(*churn);
    r->remove_ns.push_back(Now() - t);
    SpanEnd(tr, span);
    r->tally.Op(s, "remove churn query");
    r->churn_ns.push_back(r->submit_ns.back() + r->remove_ns.back());
    *churn = nullptr;
  }
}

Status RegisterStreams(StreamEngine& engine, const Workload& w) {
  for (size_t s = 0; s < w.streams.size(); ++s) {
    Status st = engine.RegisterStream(w.streams[s], w.schemas[s],
                                      DomainsFor(w.schemas[s]));
    if (!st.ok()) return st;
  }
  return Status::OK();
}

RoundStats RunEngineRound(const Workload& w, const Reference& ref,
                          const RoundConfig& cfg, uint64_t round) {
  RoundStats r;
  Tracer* tr = cfg.tracer;
  const double rss0 = RssMb();
  double rss_peak = rss0;
  const int64_t round_span = SpanBegin(tr, kRound, -1, round);
  const int64_t setup_span = SpanBegin(tr, kSetup, round_span, round);
  const uint64_t t0 = Now();

  // Serial queries deliver on this thread inside Ingest, so the stamp of
  // the element being ingested dates every result. Sharded results
  // arrive on the merge thread; they are dated by the stamp of the item
  // that emitted them in the reference run. Declared before the engine,
  // which its callbacks must not outlive.
  uint64_t current_stamp = 0;
  std::vector<std::atomic<uint64_t>> stamps(cfg.shards > 0 ? w.items.size()
                                                           : 0);
  std::vector<Multiset> got(w.live.size());
  std::vector<sqp::QueryHandle*> handles;
  auto engine = std::make_unique<StreamEngine>();
  engine->SetMetricsEnabled(cfg.metrics);
  r.tally.Op(RegisterStreams(*engine, w), "register streams");
  for (size_t q = 0; q < w.live.size(); ++q) {
    sqp::SubmitOptions so;
    so.collect = false;
    const bool dated = cfg.latency;
    so.on_result = [&, q, dated](const TupleRef& t) {
      const uint64_t h = RowHash(*t);
      got[q].Add(h);
      if (!dated) return;
      uint64_t stamp = current_stamp;
      if (!stamps.empty()) {
        auto it = ref.cause.find(h);
        stamp = (q == 0 && it != ref.cause.end())
                    ? stamps[it->second].load(std::memory_order_relaxed)
                    : 0;
      }
      if (stamp != 0) r.lat_ns.push_back(Now() - stamp);
    };
    auto h = engine->Submit(w.live[q].text, so);
    if (!r.tally.Op(h.status(), "submit " + w.live[q].name)) return r;
    handles.push_back(*h);
    if (cfg.shards > 0) {
      sqp::ShardPlanOptions sp;
      sp.shards = cfg.shards;
      r.tally.Op(engine->EnableSharding(*h, sp), "enable sharding");
    }
  }
  for (int i = 0; i < cfg.idle; ++i) {
    sqp::SubmitOptions so;
    so.collect = false;
    r.tally.Op(engine->Submit(kIdleText, so).status(), "submit idle query");
  }
  const uint64_t t1 = Now();
  SpanEnd(tr, setup_span);
  r.setup_s = Secs(t1 - t0);

  sqp::QueryHandle* churn = nullptr;
  size_t peak_state = 0;
  uint64_t ingest_failures = 0;
  for (size_t i = 0; i < w.items.size(); ++i) {
    const Item& it = w.items[i];
    if (cfg.churn && i % (kChurnEvery / 2) == 0) {
      Churn(*engine, w, i, &churn, &r, tr, round_span);
    }
    if (cfg.latency) {
      const bool dated =
          stamps.empty()
              ? it.e.is_punctuation() || i % kLatencySampleEvery == 0
              : ref.is_cause[i];
      const uint64_t stamp = dated ? Now() : 0;
      if (stamps.empty()) {
        current_stamp = stamp;
      } else {
        stamps[i].store(stamp, std::memory_order_relaxed);
      }
    }
    const int64_t span = (tr != nullptr && i % kSpanSampleEvery == 0)
                             ? tr->Begin(kIngest, round_span, round)
                             : -1;
    if (!engine->IngestElement(w.streams[static_cast<size_t>(it.stream)], it.e)
             .ok()) {
      ++ingest_failures;
    }
    SpanEnd(tr, span);
    if (cfg.sample_state && i % kChurnEvery == 0) {
      peak_state = std::max(peak_state, engine->TotalStateBytes());
    }
    if (i % kRssSampleEvery == 0) rss_peak = std::max(rss_peak, RssMb());
  }
  if (churn != nullptr) {
    Churn(*engine, w, w.items.size(), &churn, &r, tr, round_span);
  }
  current_stamp = 0;
  const uint64_t t2 = Now();
  const int64_t finish_span = SpanBegin(tr, kFinish, round_span, round);
  engine->FinishAll();
  const uint64_t t3 = Now();
  SpanEnd(tr, finish_span);
  r.ingest_s = Secs(t2 - t1);
  r.finish_ms = static_cast<double>(t3 - t2) / 1e6;
  r.run_s = Secs(t3 - t1);
  r.elements = w.items.size();
  r.tally.attempted += w.items.size();
  r.tally.failed += ingest_failures;
  if (ingest_failures > 0) r.tally.Op(false, "ingest returned non-OK");

  for (size_t q = 0; q < w.live.size(); ++q) {
    r.rows_out += got[q].count;
    r.tally.Check(got[q] == ref.out[q],
                  w.live[q].name + ": " + std::to_string(got[q].count) +
                      " rows vs reference " + std::to_string(ref.out[q].count));
    sqp::obs::QueryProfile prof;
    if (cfg.metrics && engine->ProfileSnapshot(handles[q], &prof)) {
      for (const auto& op : prof.ops) r.busy_ns += op.busy_ns;
    }
    for (sqp::ShardedOp* op : handles[q]->sharded_ops()) {
      r.shard_skew = std::max(r.shard_skew, op->SkewRatio());
      for (int s = 0; s < cfg.shards; ++s) {
        const sqp::ShardStats st = op->shard_stats(s);
        r.shard_busy_frac += st.busy_time / r.run_s / cfg.shards;
        r.shard_max_depth = std::max(r.shard_max_depth, st.max_queue_depth);
      }
    }
  }
  r.state_mb = static_cast<double>(peak_state) / (1 << 20);
  SpanEnd(tr, round_span);
  r.rss_growth_mb = std::max(rss_peak, RssMb()) - rss0;
  engine.reset();
  return r;
}

/// served_durable: the live query is POSTed to the engine's HTTP server,
/// every ingested event is archived first, and one client thread streams
/// the rows back. A closed-loop phase (ingest as fast as backpressure
/// allows) is followed by an open-loop phase at kOpenLoopRate.
RoundStats RunServedRound(const Workload& w, const Reference& ref,
                          const RoundConfig& cfg, uint64_t round,
                          const std::string& workdir, Tracer* client_tracer) {
  RoundStats r;
  Tracer* tr = cfg.tracer;
  const std::string dir = DurDir(workdir, round);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const double rss0 = RssMb();
  double rss_peak = rss0;
  const int64_t round_span = SpanBegin(tr, kRound, -1, round);
  const int64_t setup_span = SpanBegin(tr, kSetup, round_span, round);
  const uint64_t t0 = Now();

  auto engine = std::make_unique<StreamEngine>();
  engine->SetMetricsEnabled(cfg.metrics);
  r.tally.Op(RegisterStreams(*engine, w), "register streams");
  r.tally.Op(engine->EnableDurability(dir), "enable durability");
  auto port = engine->Serve(0);
  if (!r.tally.Op(port.status(), "serve")) return r;
  const int64_t post_span = SpanBegin(tr, kPost, setup_span, round);
  const std::string sid = PostQuery(*port, w.live[0].text);
  SpanEnd(tr, post_span);
  if (!r.tally.Op(!sid.empty(), "POST /query")) return r;
  for (int i = 0; i < cfg.idle; ++i) {
    sqp::SubmitOptions so;
    so.collect = false;
    r.tally.Op(engine->Submit(kIdleText, so).status(), "submit idle query");
  }
  const uint64_t t1 = Now();
  SpanEnd(tr, setup_span);
  r.setup_s = Secs(t1 - t0);

  const uint64_t closed_n = RoundTuples(w.name);
  const uint64_t closed_rows_target = ref.closed_rows;
  ClientResult client;
  std::thread reader([&] {
    RunClient(*port, sid, ref.types[0], static_cast<int64_t>(closed_n),
              closed_rows_target, t1 + 120'000'000'000ULL, client_tracer,
              &client);
  });

  sqp::QueryHandle* churn = nullptr;
  uint64_t ingest_failures = 0;
  auto ingest = [&](size_t i, int64_t stamp) {
    if (i % kRssSampleEvery == 0) rss_peak = std::max(rss_peak, RssMb());
    const Tuple& src = *w.items[i].e.tuple();
    TupleRef t = sqp::MakeTuple(
        stamp, {Value(stamp), src.at(1), src.at(2), src.at(3)});
    const int64_t span = (tr != nullptr && i % kSpanSampleEvery == 0)
                             ? tr->Begin(kIngest, round_span, round)
                             : -1;
    if (!engine->Ingest("events", t).ok()) ++ingest_failures;
    SpanEnd(tr, span);
  };
  for (size_t i = 0; i < closed_n; ++i) {
    if (cfg.churn && i % (kChurnEvery / 2) == 0) {
      Churn(*engine, w, i, &churn, &r, tr, round_span);
    }
    ingest(i, static_cast<int64_t>(Now()));
  }
  if (churn != nullptr) {
    Churn(*engine, w, w.items.size(), &churn, &r, tr, round_span);
  }
  // Open loop: element k is due at open0 + k/rate whatever the system
  // does; a late generator ingests at once and records how late it ran.
  const uint64_t open0 = Now();
  const double period_ns = 1e9 / kOpenLoopRate;
  uint64_t late_max = 0;
  for (size_t i = closed_n; i < w.items.size(); ++i) {
    const uint64_t due = open0 + static_cast<uint64_t>(
                                     static_cast<double>(i - closed_n) *
                                     period_ns);
    uint64_t now = Now();
    while (now < due) now = Now();
    late_max = std::max(late_max, now - due);
    ingest(i, static_cast<int64_t>(due));
  }
  const int64_t finish_span = SpanBegin(tr, kFinish, round_span, round);
  const uint64_t t2 = Now();
  engine->FinishAll();
  const uint64_t t3 = Now();
  SpanEnd(tr, finish_span);
  engine->query_server()->FinishSessions();
  reader.join();
  const uint64_t t4 = Now();

  r.ingest_s = Secs(t2 - t1);
  r.finish_ms = static_cast<double>(t3 - t2) / 1e6;
  r.run_s = Secs(t4 - t1);
  r.elements = w.items.size();
  r.closed_rows = client.closed_rows;
  r.closed_s =
      client.closed_done_ns > t1 ? Secs(client.closed_done_ns - t1) : 0;
  r.lat_ns = std::move(client.open_lat_ns);
  r.gen_late_max_ms = static_cast<double>(late_max) / 1e6;
  r.responses = client.responses;
  r.served_rows = client.rows;
  r.client_decode_ns = client.decode_ns;
  r.rows_out = client.ms.count;
  r.tally.Merge(client.tally);
  r.tally.attempted += w.items.size();
  r.tally.failed += ingest_failures;
  if (ingest_failures > 0) r.tally.Op(false, "ingest returned non-OK");
  uint64_t missing = 0, dups = 0;
  for (uint8_t n : client.seen) {
    missing += n == 0;
    dups += n > 1;
  }
  r.tally.Check(client.finished && missing == 0 && dups == 0 &&
                    client.seen.size() == ref.out[0].count,
                "served seqs: " + std::to_string(client.seen.size()) +
                    " seen, " + std::to_string(missing) + " missing, " +
                    std::to_string(dups) + " duplicated, reference " +
                    std::to_string(ref.out[0].count));
  r.tally.Check(client.ms == ref.out[0], "served rows vs reference");
  r.tally.Check(closed_rows_target == client.closed_rows,
                "closed-loop phase rows");
  SpanEnd(tr, round_span);
  r.rss_growth_mb = std::max(rss_peak, RssMb()) - rss0;
  engine.reset();
  std::filesystem::remove_all(dir, ec);
  return r;
}

// ---------------------------------------------------------------------------
// Running rounds for a time budget, and summarizing them.
// ---------------------------------------------------------------------------

struct Job {
  const Workload* w;
  const Reference* ref;
  std::string workdir;
  Tracer* client_tracer = nullptr;

  RoundStats Round(const RoundConfig& cfg, uint64_t round) const {
    return w->served ? RunServedRound(*w, *ref, cfg, round, workdir,
                                      client_tracer)
                     : RunEngineRound(*w, *ref, cfg, round);
  }
};

/// Round ids: the request id of a round's spans.
uint64_t NextRoundId() {
  static uint64_t seq = 0;
  return ++seq;
}

/// Runs rounds until `seconds` passed (and at least `min_rounds` ran).
std::vector<RoundStats> RunFor(const Job& job, const RoundConfig& cfg,
                               double seconds, int min_rounds, Tally* tally) {
  std::vector<RoundStats> out;
  const uint64_t start = Now();
  while (static_cast<int>(out.size()) < min_rounds ||
         Secs(Now() - start) < seconds) {
    out.push_back(job.Round(cfg, NextRoundId()));
    tally->Merge(out.back().tally);
    if (!out.back().tally.outputs_ok) break;
  }
  return out;
}

template <class F>
std::vector<double> PerRound(const std::vector<RoundStats>& rs, F f) {
  std::vector<double> v;
  for (const RoundStats& r : rs) v.push_back(std::invoke(f, r));
  return v;
}

template <class F>
double MedianOf(const std::vector<RoundStats>& rs, F f) {
  return Median(PerRound(rs, f));
}

/// The share of a run's rounds, counted from the fast end, whose boundary
/// summarizes the run.
constexpr double kFastShare = 0.05;

/// The end-to-end summary of per-round figures: the 5th percentile of the
/// rounds' cost, or the 95th of their rate. Other tenants of a shared
/// host contend for its cores in spells of seconds and only ever slow a
/// round, by up to 2x; the round's thread stays on CPU throughout, so CPU
/// time inflates alike. A mean or median follows the share of the run
/// spent in those spells and moved by a quarter from run to run; the
/// fast end of a run's rounds moved by a tenth, and a change to the
/// program moves it as it moves any other round.
template <class F>
double FastEnd(const std::vector<RoundStats>& rs, F f, bool rate = false) {
  return Quantile(PerRound(rs, f), rate ? 1 - kFastShare : kFastShare);
}

/// `num` per `den`, with an empty denominator counted as one.
double Per(double num, uint64_t den) {
  return num / static_cast<double>(std::max<uint64_t>(1, den));
}

/// Percentile `p` of ascending ns samples, in microseconds.
double PercentileUs(const std::vector<uint64_t>& sorted, double p) {
  return static_cast<double>(Percentile(sorted, p)) / 1e3;
}

/// One round's median, in microseconds.
double RoundP50Us(std::vector<uint64_t> ns) {
  std::sort(ns.begin(), ns.end());
  return PercentileUs(ns, 50);
}

/// Every round's latency samples, ascending.
std::vector<uint64_t> PooledLatency(const std::vector<RoundStats>& rs) {
  std::vector<uint64_t> ns;
  for (const RoundStats& r : rs) {
    ns.insert(ns.end(), r.lat_ns.begin(), r.lat_ns.end());
  }
  std::sort(ns.begin(), ns.end());
  return ns;
}

/// Input elements (or, served, closed-loop rows received) per second.
double Throughput(const RoundStats& r) {
  if (r.closed_s > 0) return static_cast<double>(r.closed_rows) / r.closed_s;
  return r.run_s > 0 ? static_cast<double>(r.elements) / r.run_s : 0;
}

double NsPerElement(const RoundStats& r) {
  return Per(r.run_s * 1e9, r.elements);
}

/// ns per element of the ingest loop alone (a sharded plan's routing).
double IngestNs(const RoundStats& r) {
  return Per(r.ingest_s * 1e9, r.elements);
}

double LatencyP50Us(const RoundStats& r) { return RoundP50Us(r.lat_ns); }

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintTable(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.4f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResult(const Tally& t, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.outputs_ok && t.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics.
// ---------------------------------------------------------------------------

std::vector<Metric> EndToEnd(const Job& job, double seconds, Tally* tally) {
  const Workload& w = *job.w;
  RoundConfig cfg;
  cfg.idle = w.idle_queries;
  cfg.shards = w.shards;
  // One untimed round first: caches and lazy set-up warm up.
  RunFor(job, cfg, 0, 1, tally);
  const std::vector<RoundStats> rs = RunFor(job, cfg, seconds, 3, tally);

  const std::vector<uint64_t> all_lat = PooledLatency(rs);
  const double hp = HighestSupportedPercentile(all_lat.size());
  uint64_t rows = 0;
  for (const RoundStats& r : rs) rows += r.rows_out;

  std::vector<Metric> ms = {
      {"setup_s", FastEnd(rs, &RoundStats::setup_s), "s"},
      {"throughput_tps", FastEnd(rs, Throughput, /*rate=*/true), "1/s"},
      {"latency_p50_us", FastEnd(rs, LatencyP50Us), "us"},
  };
  std::printf("\n== %s: end to end (%zu rounds of %zu input elements; "
              "fast 5%% of rounds; %zu latency samples) ==\n",
              w.name.c_str(), rs.size(), w.items.size(), all_lat.size());
  PrintTable(ms);
  // Diagnostics: these spread too much between runs to be gated.
  std::printf("  %-28s %16.4f  us\n", "latency_p99_us",
              PercentileUs(all_lat, 99));
  char tail[32];
  std::snprintf(tail, sizeof(tail), "latency_p%g_us", hp);
  std::printf("  %-28s %16.4f  us  (highest percentile with 10 samples "
              "beyond it)\n",
              tail, PercentileUs(all_lat, hp));
  std::vector<double> tps;
  for (const RoundStats& r : rs) tps.push_back(Throughput(r));
  std::sort(tps.begin(), tps.end());
  std::printf("  %-28s min %.0f  q1 %.0f  q3 %.0f  max %.0f\n",
              "throughput_tps rounds", tps.front(), tps[tps.size() / 4],
              tps[tps.size() * 3 / 4], tps.back());
  std::printf("  %-28s %16.4f  us  (one Submit+Remove pair)\n",
              "submit_p50_us", MedianOf(rs, [](const RoundStats& r) {
                return RoundP50Us(r.churn_ns);
              }));
  std::printf("  %-28s %16.4f  MB\n", "rss_growth_mb",
              MedianOf(rs, &RoundStats::rss_growth_mb));
  std::printf("  %-28s %16llu  rows\n", "rows_out",
              static_cast<unsigned long long>(rows));
  std::printf("  %-28s %16.6f  (%llu of %llu)\n", "failed_frac",
              Per(static_cast<double>(tally->failed), tally->attempted),
              static_cast<unsigned long long>(tally->failed),
              static_cast<unsigned long long>(tally->attempted));
  return ms;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics.
// ---------------------------------------------------------------------------

/// ns per workload element of the CompiledQuery::Push floor of `w`'s
/// live queries: the engine's work without the engine.
double FloorNs(const Workload& w, const Reference& ref, double seconds,
               Tally* tally) {
  std::vector<double> ns;
  const uint64_t start = Now();
  while (ns.empty() || Secs(Now() - start) < seconds) {
    std::vector<Multiset> got(w.live.size());
    DirectQueries dq;
    const auto on_row = [&](size_t q, const TupleRef& t) {
      got[q].Add(RowHash(*t));
    };
    if (!CompileLive(w, on_row, &dq, tally)) return 0;
    uint32_t current = 0;
    const uint64_t t0 = Now();
    PushItems(w, dq, &current);
    ns.push_back(Per(static_cast<double>(Now() - t0), w.items.size()));
    for (size_t q = 0; q < w.live.size(); ++q) {
      if (!tally->Check(got[q] == ref.out[q], "floor of " + w.live[q].name)) {
        return Median(ns);
      }
    }
  }
  return Median(ns);
}

double CompileUs(const Workload& w, Tracer* tr, Tally* tally) {
  const sqp::cql::Catalog cat = MakeCatalog(w);
  std::vector<double> us;
  for (int rep = 0; rep < 50; ++rep) {
    for (const QuerySpec& q : w.live) {
      const int64_t span =
          SpanBegin(tr, kCompile, -1, static_cast<uint64_t>(rep));
      const uint64_t t0 = Now();
      auto cq = sqp::cql::Compile(q.text, cat);
      us.push_back(static_cast<double>(Now() - t0) / 1e3);
      SpanEnd(tr, span);
      if (!tally->Op(cq.status(), "compile " + q.name)) return 0;
    }
  }
  return Median(us);
}

/// All reference output rows (capped per query), the server probes' input.
std::vector<TupleRef> OutputRows(const Reference& ref) {
  std::vector<TupleRef> rows;
  for (const auto& q : ref.rows) rows.insert(rows.end(), q.begin(), q.end());
  return rows;
}

struct DurProbe {
  double append_ns = 0, flush_us = 0, bytes_per_record = 0, flushes = 0;
};

/// DurabilityManager::Append over the workload's records, with a timed
/// explicit Flush every kChurnEvery appends.
DurProbe ProbeDurability(const Workload& w, const std::string& workdir,
                         Tally* tally) {
  DurProbe p;
  const std::string dir = workdir + "/dur-probe-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    sqp::dur::DurabilityManager mgr(dir, {}, nullptr);
    if (!tally->Op(mgr.Open(), "open archive")) return p;
    std::vector<double> flush_us;
    uint64_t flush_ns = 0, failures = 0;
    const uint64_t t0 = Now();
    for (size_t i = 0; i < w.items.size(); ++i) {
      const Item& it = w.items[i];
      const std::string& stream = w.streams[static_cast<size_t>(it.stream)];
      if (!mgr.Append(stream, it.e).ok()) ++failures;
      if ((i + 1) % kChurnEvery == 0) {
        const uint64_t f0 = Now();
        if (!mgr.Flush().ok()) ++failures;
        const uint64_t f = Now() - f0;
        flush_ns += f;
        flush_us.push_back(static_cast<double>(f) / 1e3);
      }
    }
    const uint64_t total = Now() - t0;
    tally->Op(failures == 0 && mgr.Flush().ok(), "archive appends");
    p.append_ns = Per(static_cast<double>(total - flush_ns), w.items.size());
    p.flush_us = Median(flush_us);
    p.bytes_per_record =
        Per(static_cast<double>(mgr.bytes_buffered_total()), mgr.appended());
    p.flushes = static_cast<double>(mgr.flushes());
  }
  std::filesystem::remove_all(dir, ec);
  return p;
}

/// ns per row of RowJson, and of ResultQueue::Push (which renders too).
std::pair<double, double> ProbeServerRows(const std::vector<TupleRef>& rows) {
  size_t bytes = 0;
  uint64_t t0 = Now();
  for (const TupleRef& t : rows) bytes += sqp::server::RowJson(*t).size();
  const double encode = Per(static_cast<double>(Now() - t0), rows.size());
  sqp::server::ResultQueueOptions qo;
  qo.limit = rows.size() + 1;
  sqp::server::ResultQueue queue(qo);
  t0 = Now();
  for (const TupleRef& t : rows) queue.Push(t);
  const double push = Per(static_cast<double>(Now() - t0), rows.size());
  if (bytes == 0) std::fprintf(stderr, "e2e_bench: empty row encoding\n");
  return {push, encode};
}

/// The client parser's ns per row over NDJSON lines rendered the way the
/// server renders them; each decoded row must hash as its source did.
double ProbeClientDecode(const Reference& ref, Tally* tally) {
  std::vector<std::pair<std::string, uint64_t>> lines;
  std::vector<size_t> query_of;
  for (size_t q = 0; q < ref.rows.size(); ++q) {
    for (const TupleRef& t : ref.rows[q]) {
      lines.emplace_back("{\"seq\":" + std::to_string(lines.size()) + "," +
                             sqp::server::RowJson(*t) + "}",
                         RowHash(*t, &ref.types[q]));
      query_of.push_back(q);
    }
  }
  uint64_t bad = 0;
  const uint64_t t0 = Now();
  for (size_t i = 0; i < lines.size(); ++i) {
    RowLine row;
    if (!ParseRowLine(lines[i].first, ref.types[query_of[i]], &row) ||
        row.hash != lines[i].second) {
      if (bad++ == 0) {
        std::fprintf(stderr, "e2e_bench: cannot decode %s\n",
                     lines[i].first.c_str());
      }
    }
  }
  const double ns = Per(static_cast<double>(Now() - t0), lines.size());
  tally->Check(bad == 0, "client decode of " + std::to_string(bad) + " rows");
  return ns;
}

/// Round trip of POSTing the workload's first live query to a served engine.
double ProbePostMs(const Workload& w, Tally* tally) {
  StreamEngine engine;
  tally->Op(RegisterStreams(engine, w), "register streams");
  auto port = engine.Serve(0);
  if (!tally->Op(port.status(), "serve")) return 0;
  std::vector<double> ms;
  for (int i = 0; i < 9; ++i) {
    const uint64_t t0 = Now();
    const std::string sid = PostQuery(*port, w.live[0].text);
    ms.push_back(static_cast<double>(Now() - t0) / 1e6);
    tally->Op(!sid.empty(), "POST /query");
    Request(*port, "DELETE /session/" + sid +
                       " HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n");
  }
  return Median(ms);
}

/// The two threaded paths on this seed's inputs, measured in every
/// traced run: the sharded group-by against its single-threaded baseline
/// (the same job on the serial engine), and the served durable query.
/// Their figures hang on thread wake-ups, which vary with the host's
/// load, so they are diagnostics rather than gated metrics.
std::vector<Metric> ThreadedProbes(uint64_t seed, const std::string& workdir,
                                   double slice, Tally* tally) {
  std::vector<Metric> ms;
  {
    Workload w;
    Reference ref;
    MakeWorkload("sharded_groupby", seed, &w);
    if (!BuildReference(w, &ref, tally)) return ms;
    Workload serial = w;
    serial.shards = 0;
    const Job job{&w, &ref, workdir, nullptr};
    const Job serial_job{&serial, &ref, workdir, nullptr};
    RoundConfig cfg;
    cfg.shards = w.shards;
    std::vector<RoundStats> sharded, base;
    RunFor(job, cfg, 0, 1, tally);
    const uint64_t start = Now();
    while (sharded.size() < 2 || Secs(Now() - start) < 2 * slice) {
      sharded.push_back(job.Round(cfg, NextRoundId()));
      base.push_back(serial_job.Round(RoundConfig{}, NextRoundId()));
      tally->Merge(sharded.back().tally);
      tally->Merge(base.back().tally);
      if (!tally->outputs_ok) return ms;
    }
    const double tps = MedianOf(sharded, Throughput);
    ms.push_back({"shard.throughput_tps", tps, "1/s"});
    ms.push_back(
        {"shard.latency_p50_us", MedianOf(sharded, LatencyP50Us), "us"});
    ms.push_back({"shard.route_ns", MedianOf(sharded, IngestNs), "ns"});
    ms.push_back({"shard.busy_frac",
                  MedianOf(sharded, &RoundStats::shard_busy_frac), "ratio"});
    ms.push_back({"shard.max_queue_depth",
                  MedianOf(sharded, &RoundStats::shard_max_depth), "count"});
    ms.push_back({"shard.skew", MedianOf(sharded, &RoundStats::shard_skew),
                  "ratio"});
    ms.push_back({"shard.speedup_vs_serial", tps / MedianOf(base, Throughput),
                  "ratio"});
  }
  {
    Workload w;
    Reference ref;
    MakeWorkload("served_durable", seed, &w);
    if (!BuildReference(w, &ref, tally)) return ms;
    const Job job{&w, &ref, workdir, nullptr};
    RunFor(job, RoundConfig{}, 0, 1, tally);
    const auto rs = RunFor(job, RoundConfig{}, 2 * slice, 2, tally);
    const double late = MedianOf(rs, &RoundStats::gen_late_max_ms);
    ms.push_back({"server.throughput_tps", MedianOf(rs, Throughput), "1/s"});
    ms.push_back({"server.latency_p50_us", MedianOf(rs, LatencyP50Us), "us"});
    ms.push_back({"server.rows_per_response",
                  MedianOf(rs, [](const RoundStats& r) {
                    return Per(static_cast<double>(r.served_rows), r.responses);
                  }),
                  "count"});
    ms.push_back({"server.gen_late_max_ms", late, "ms"});
    ms.push_back({"client.decode_in_run_ns",
                  MedianOf(rs, [](const RoundStats& r) {
                    return Per(static_cast<double>(r.client_decode_ns),
                               r.served_rows);
                  }),
                  "ns"});
    if (late > kMaxLateMs) {
      std::printf("  open-loop rate of %.0f rows/s NOT sustained: the "
                  "generator ran %.3f ms late\n",
                  kOpenLoopRate, late);
    }
  }
  return ms;
}

/// Span durations and self times by span name, in microseconds.
struct SpanStats {
  std::vector<std::vector<double>> dur_us =
      std::vector<std::vector<double>>(kNumSpanNames);
  std::vector<std::vector<double>> self_us =
      std::vector<std::vector<double>>(kNumSpanNames);
};

/// Computes self times, writes every span to `path` as TSV, and prints
/// each span name's median duration and self time.
SpanStats SummarizeSpans(const std::vector<Span>& spans,
                         const std::string& path) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  SpanStats st;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    st.dur_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                1e3);
    st.self_us[s.name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\tself_ns\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\t%llu\t%llu\t%lld\t%llu\t%llu\n",
                   kSpanNames[s.name],
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(self[i]));
    }
    std::fclose(f);
  }
  std::printf("\n== spans (%zu recorded, per-element calls sampled 1/%llu) "
              "==\n",
              spans.size(), static_cast<unsigned long long>(kSpanSampleEvery));
  std::printf("  %-16s %8s %14s %14s\n", "span", "count", "median_us",
              "self_median_us");
  for (uint32_t n = 0; n < kNumSpanNames; ++n) {
    if (st.dur_us[n].empty()) continue;
    std::printf("  %-16s %8zu %14.3f %14.3f\n", kSpanNames[n],
                st.dur_us[n].size(), Median(st.dur_us[n]),
                Median(st.self_us[n]));
  }
  std::printf("  spans written to %s\n", path.c_str());
  return st;
}

std::vector<Metric> PerLayer(const Job& job, uint64_t seed, double seconds,
                             const std::string& span_path, Tally* tally) {
  const Workload& w = *job.w;
  const Reference& ref = *job.ref;
  const double slice = seconds / 10.0;
  RoundConfig main_cfg;
  main_cfg.idle = w.idle_queries;
  main_cfg.shards = w.shards;

  // The workload as measured end to end, in alternating untraced and
  // traced rounds, so drift in machine speed cancels out of the tracing
  // overhead.
  RunFor(job, main_cfg, 0, 1, tally);
  Tracer tracer, client_tracer;
  Job traced_job = job;
  traced_job.client_tracer = &client_tracer;
  RoundConfig traced_cfg = main_cfg;
  traced_cfg.tracer = &tracer;
  std::vector<RoundStats> plain, traced;
  const uint64_t start = Now();
  while (plain.size() < 2 || Secs(Now() - start) < 4 * slice) {
    plain.push_back(job.Round(main_cfg, NextRoundId()));
    traced.push_back(traced_job.Round(traced_cfg, NextRoundId()));
    tally->Merge(plain.back().tally);
    tally->Merge(traced.back().tally);
    if (!tally->outputs_ok) break;
  }

  // Each query's floor alone, on a copy of the workload holding only it.
  std::vector<double> floors;
  for (size_t q = 0; q < w.live.size(); ++q) {
    Workload one = w;
    one.live = {w.live[q]};
    Reference one_ref;
    one_ref.out = {ref.out[q]};
    floors.push_back(FloorNs(
        one, one_ref, slice / 2 / static_cast<double>(w.live.size()), tally));
  }

  // The layer ladder on the live queries: compiled-plan floor, then
  // serial Ingest with metrics off and on, then with kIdleQueries idle
  // queries. No churn, serving or archive: those layers have probes.
  Workload serial = w;
  serial.served = false;
  serial.shards = 0;
  Job serial_job = job;
  serial_job.w = &serial;
  RoundConfig off_cfg;
  off_cfg.churn = false;
  off_cfg.latency = false;
  off_cfg.metrics = false;
  RoundConfig on_cfg = off_cfg;
  on_cfg.metrics = true;
  on_cfg.sample_state = true;
  RoundConfig idle_cfg = on_cfg;
  idle_cfg.sample_state = false;
  idle_cfg.idle = kIdleQueries;
  // The rungs run interleaved, one round each in turn, so drift in the
  // machine's speed falls on every rung alike.
  std::vector<double> floor_ns;
  std::vector<RoundStats> off, on, idle;
  const uint64_t ladder_start = Now();
  while (floor_ns.size() < 2 || Secs(Now() - ladder_start) < 3 * slice) {
    floor_ns.push_back(FloorNs(w, ref, 0, tally));
    for (auto [cfg, out] : {std::pair{&off_cfg, &off}, std::pair{&on_cfg, &on},
                            std::pair{&idle_cfg, &idle}}) {
      out->push_back(serial_job.Round(*cfg, NextRoundId()));
      tally->Merge(out->back().tally);
    }
    if (!tally->outputs_ok) break;
  }
  const double floor_sum = Median(floor_ns);
  const double ns_off = MedianOf(off, NsPerElement);
  const double ns_on = MedianOf(on, NsPerElement);
  const double ns_idle = MedianOf(idle, NsPerElement);

  tracer.Absorb(client_tracer);
  CompileUs(w, &tracer, tally);
  const SpanStats spans = SummarizeSpans(tracer.spans(), span_path);

  const DurProbe dur = ProbeDurability(w, job.workdir, tally);
  const std::vector<TupleRef> rows = OutputRows(ref);
  const auto [push_ns, encode_ns] = ProbeServerRows(rows);
  const double decode_ns = ProbeClientDecode(ref, tally);
  const double post_ms = ProbePostMs(w, tally);

  const double tps_plain = MedianOf(plain, Throughput);
  const double tps_traced = MedianOf(traced, Throughput);
  const double busy = MedianOf(on, [](const RoundStats& r) {
    return Per(static_cast<double>(r.busy_ns), r.elements);
  });
  const std::vector<uint64_t> lat = PooledLatency(plain);
  std::vector<Metric> ms = {
      {"cql.compile_us", Median(spans.dur_us[kCompile]), "us"},
      {"arch.ingest_ns", ns_on, "ns"},
      {"arch.engine_tax_ns", ns_on - floor_sum, "ns"},
      {"arch.idle_query_ns", (ns_idle - ns_on) / kIdleQueries, "ns"},
      {"arch.submit_us", Median(spans.dur_us[kSubmit]), "us"},
      {"arch.remove_us", Median(spans.dur_us[kRemove]), "us"},
      {"arch.finish_ms", MedianOf(traced, &RoundStats::finish_ms), "ms"},
      {"exec.floor_ns", floor_sum, "ns"},
      {"exec.state_mb", MedianOf(on, &RoundStats::state_mb), "MB"},
      {"obs.metrics_tax_ns", ns_on - ns_off, "ns"},
      {"obs.profile_busy_ratio", floor_sum > 0 ? busy / floor_sum : 0, "ratio"},
      {"dur.append_ns", dur.append_ns, "ns"},
      {"dur.flush_us", dur.flush_us, "us"},
      {"dur.bytes_per_record", dur.bytes_per_record, "B"},
      {"dur.flushes", dur.flushes, "count"},
      {"server.queue_push_ns", push_ns, "ns"},
      {"server.encode_ns", encode_ns, "ns"},
      {"server.post_ms", post_ms, "ms"},
      {"client.decode_ns", decode_ns, "ns"},
      {"latency.p99_us", PercentileUs(lat, 99), "us"},
      {"latency.tail_us",
       PercentileUs(lat, HighestSupportedPercentile(lat.size())), "us"},
      {"mem.rss_growth_mb", MedianOf(plain, &RoundStats::rss_growth_mb), "MB"},
      {"trace.overhead_pct",
       tps_traced > 0 ? (tps_plain / tps_traced - 1) * 100 : 0, "%"},
  };

  std::printf("\n== %s: layer ladder (ns per input element, serial "
              "engine) ==\n",
              w.name.c_str());
  double prev = 0;
  auto rung = [&](const std::string& what, double ns) {
    std::printf("  %-44s %10.1f ns  (%+.1f)\n", what.c_str(), ns, ns - prev);
    prev = ns;
  };
  for (size_t q = 0; q < w.live.size(); ++q) {
    std::printf("  %-44s %10.1f ns  (alone)\n",
                ("exec.floor_ns." + w.live[q].name).c_str(), floors[q]);
  }
  rung("compiled-plan floor, all live queries", floor_sum);
  rung("Ingest, metrics off", ns_off);
  rung("Ingest, metrics on", ns_on);
  rung("Ingest, metrics on, " + std::to_string(kIdleQueries) + " idle queries",
       ns_idle);
  for (size_t q = 0; q < w.live.size(); ++q) {
    std::printf("  %-44s %10llu rows\n",
                ("exec.rows_out." + w.live[q].name).c_str(),
                static_cast<unsigned long long>(ref.out[q].count));
  }

  const std::vector<Metric> threaded =
      ThreadedProbes(seed, job.workdir, slice, tally);
  ms.insert(ms.end(), threaded.begin(), threaded.end());
  std::printf("\n== %s: per layer ==\n", w.name.c_str());
  PrintTable(ms);
  return ms;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload, workdir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--workdir") {
      workdir = v;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  Workload w;
  if (!MakeWorkload(workload, seed, &w)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload fanout|window_agg|"
                 "sharded_groupby|served_durable --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  // A wedged run must not hang: SIGALRM's default action ends it. A run
  // asked to measure for longer gets proportionally more time.
  ::alarm(std::max(170u, static_cast<unsigned>(seconds * 4)));
  Tally tally;
  Reference ref;
  if (!BuildReference(w, &ref, &tally)) return 1;
  Job job{&w, &ref, workdir, nullptr};
  std::printf("e2e_bench %s seed=%llu seconds=%.1f trace=%d: %zu input "
              "elements per round, %zu live queries\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace, w.items.size(), w.live.size());
  const std::vector<Metric> ms =
      trace != 0
          ? PerLayer(job, seed, seconds,
                     workdir + "/spans-" + w.name + "-" +
                         std::to_string(seed) + ".tsv",
                     &tally)
          : EndToEnd(job, seconds, &tally);
  PrintResult(tally, ms);
  return tally.outputs_ok && tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
