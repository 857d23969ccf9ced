// The continuous-query server: the HTTP layer, the listener, the
// session result queues, and the end-to-end multi-client contract —
// every client gets exactly its query's rows, detach/reattach via
// cursor loses nothing and repeats nothing, and admission rejects with
// a reason while admitted sessions keep streaming.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/engine.h"
#include "server/http.h"
#include "server/net_listener.h"
#include "server/query_server.h"
#include "server/session.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef Pkt(int64_t ts, int64_t src, int64_t proto, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{9}),
                        Value(int64_t{1}), Value(int64_t{2}), Value(proto),
                        Value(len), Value(int64_t{0}), Value(int64_t{0}),
                        Value("")});
}

TupleRef Row(int64_t ts, int64_t v) {
  return MakeTuple(ts, {Value(ts), Value(v)});
}

/// One blocking request/response against localhost: send the raw bytes,
/// read to EOF. Returns the raw response.
std::string RawRequest(int port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  if (!server::SendAll(fd, request.data(), request.size())) {
    ::close(fd);
    return "";
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string Get(int port, const std::string& target) {
  return RawRequest(port, "GET " + target +
                              " HTTP/1.1\r\nHost: t\r\nConnection: "
                              "close\r\n\r\n");
}

std::string Post(int port, const std::string& target,
                 const std::string& body) {
  return RawRequest(port, "POST " + target + " HTTP/1.1\r\nHost: t\r\n" +
                              "Content-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body);
}

std::string Del(int port, const std::string& target) {
  return RawRequest(port, "DELETE " + target +
                              " HTTP/1.1\r\nHost: t\r\nConnection: "
                              "close\r\n\r\n");
}

/// Body of a response (dechunked when chunked).
std::string Body(const std::string& raw) {
  std::string head, body;
  if (!server::SplitHttpResponse(raw, &head, &body)) return "";
  return server::DechunkBody(head, body);
}

std::string JsonStr(const std::string& body, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  size_t p = body.find(pat);
  if (p == std::string::npos) return "";
  p += pat.size();
  size_t e = body.find('"', p);
  return e == std::string::npos ? "" : body.substr(p, e - p);
}

/// Splits an NDJSON payload into row lines and returns the trailer
/// separately (the line carrying "next_cursor").
struct Streamed {
  std::vector<std::string> rows;  // {"seq":..,"ts":..,"row":[..]} lines.
  std::string trailer;
  uint64_t next_cursor = 0;
  bool finished = false;
};
Streamed ParseStream(const std::string& payload) {
  Streamed out;
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    std::string line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (line.find("\"next_cursor\"") != std::string::npos) {
      out.trailer = line;
      size_t p = line.find("\"next_cursor\":");
      out.next_cursor = static_cast<uint64_t>(
          std::atoll(line.c_str() + p + 14));
      out.finished = line.find("\"finished\":true") != std::string::npos;
    } else {
      out.rows.push_back(line);
    }
  }
  return out;
}

/// Minimal JSON well-formedness check (RFC 8259 grammar, no semantics):
/// parses one value at `i` and advances past it.
bool JsonValue(const std::string& s, size_t& i) {
  auto ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  };
  auto str = [&] {
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      } else if (static_cast<unsigned char>(s[i]) < 0x20) {
        return false;
      }
    }
    return false;
  };
  ws();
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '"') return str();
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++i;
    ws();
    if (i < s.size() && s[i] == close) {
      ++i;
      return true;
    }
    for (;;) {
      if (c == '{') {
        ws();
        if (!str()) return false;
        ws();
        if (i >= s.size() || s[i++] != ':') return false;
      }
      if (!JsonValue(s, i)) return false;
      ws();
      if (i >= s.size()) return false;
      if (s[i] == close) {
        ++i;
        return true;
      }
      if (s[i++] != ',') return false;
    }
  }
  for (const std::string lit : {"true", "false", "null"}) {
    if (s.compare(i, lit.size(), lit) == 0) {
      i += lit.size();
      return true;
    }
  }
  if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) return false;
  char* end = nullptr;
  std::strtod(s.c_str() + i, &end);
  i = static_cast<size_t>(end - s.c_str());
  return true;
}

bool IsJson(const std::string& s) {
  size_t i = 0;
  if (!JsonValue(s, i)) return false;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i == s.size();
}

/// The "op" names of a profile JSON body, in plan order.
std::vector<std::string> ProfileOps(const std::string& body) {
  std::vector<std::string> ops;
  for (size_t p = body.find("\"op\":\""); p != std::string::npos;
       p = body.find("\"op\":\"", p + 1)) {
    ops.push_back(JsonStr(body.substr(p), "op"));
  }
  return ops;
}

uint64_t SeqOf(const std::string& row_line) {
  size_t p = row_line.find("\"seq\":");
  return static_cast<uint64_t>(std::atoll(row_line.c_str() + p + 6));
}

/// The row payload with the seq stripped: "ts":..,"row":[..] — the
/// fragment server::RowJson produces, used for multiset comparison
/// against an in-process reference run.
std::string PayloadOf(const std::string& row_line) {
  size_t p = row_line.find("\"ts\":");
  return row_line.substr(p, row_line.size() - p - 1);  // Trim '}'.
}

// ---------------------------------------------------------------------------
// HttpParseTest.

TEST(HttpParseTest, RequestLineParamsAndBodyLength) {
  server::HttpRequest req;
  size_t content_length = 99;
  ASSERT_TRUE(server::ParseHttpHead(
      "POST /query?queue=64&policy=drop&q=hello%20x HTTP/1.1\r\n"
      "Host: t\r\nContent-Length: 12\r\n\r\n",
      &req, &content_length));
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/query");
  EXPECT_EQ(req.ParamInt("queue", 0), 64);
  ASSERT_NE(req.Param("policy"), nullptr);
  EXPECT_EQ(*req.Param("policy"), "drop");
  ASSERT_NE(req.Param("q"), nullptr);
  EXPECT_EQ(*req.Param("q"), "hello x");
  EXPECT_EQ(req.Param("nope"), nullptr);
  EXPECT_EQ(req.ParamInt("nope", -7), -7);
  EXPECT_EQ(content_length, 12u);
}

TEST(HttpParseTest, MalformedRequestLineRejected) {
  server::HttpRequest req;
  size_t n = 0;
  EXPECT_FALSE(server::ParseHttpHead("garbage\r\n\r\n", &req, &n));
  EXPECT_FALSE(server::ParseHttpHead("", &req, &n));
}

TEST(HttpParseTest, ChunkedResponseRoundTrips) {
  std::string raw =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nabcd\r\n3\r\nefg\r\n0\r\n\r\n";
  std::string head, body;
  ASSERT_TRUE(server::SplitHttpResponse(raw, &head, &body));
  EXPECT_EQ(server::DechunkBody(head, body), "abcdefg");
  // Non-chunked passes through untouched.
  EXPECT_EQ(server::DechunkBody("HTTP/1.0 200 OK\r\nContent-Length: 2",
                                "hi"),
            "hi");
}

TEST(HttpParseTest, HeadEndingExactlyAtTheCapIsAccepted) {
  // Pad with a header so the terminator's last byte lands exactly on the
  // max_head boundary: the head is complete and within the cap, so it
  // must parse (the cap only rejects heads whose terminator never came).
  std::string head = "GET /healthz HTTP/1.0\r\nX-Pad: ";
  while (head.size() < 90) head += "p";
  head += "\r\n\r\n";
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(server::SendAll(sv[1], head.data(), head.size()));
  ::close(sv[1]);
  server::HttpRequest req;
  EXPECT_TRUE(server::ReadHttpRequest(sv[0], &req, /*max_head=*/head.size()));
  EXPECT_EQ(req.path, "/healthz");
  ::close(sv[0]);
}

TEST(HttpParseTest, NonFiniteDoublesRenderAsJsonNull) {
  // %.17g would emit "nan"/"inf" — invalid JSON in the NDJSON stream.
  EXPECT_EQ(server::ValueJson(Value(std::nan(""))), "null");
  EXPECT_EQ(server::ValueJson(
                Value(std::numeric_limits<double>::infinity())),
            "null");
  EXPECT_EQ(server::ValueJson(
                Value(-std::numeric_limits<double>::infinity())),
            "null");
  EXPECT_EQ(server::ValueJson(Value(3.5)), "3.5");
}

// ---------------------------------------------------------------------------
// NetListenerTest.

TEST(NetListenerTest, ServesSequentialRequests) {
  server::NetListener listener;
  server::NetListenerOptions opts;
  opts.recv_timeout_ms = 2000;
  opts.send_timeout_ms = 2000;
  ASSERT_TRUE(listener
                  .Start(0,
                         [](int fd) {
                           server::HttpRequest req;
                           if (!server::ReadHttpRequest(fd, &req)) return;
                           server::WriteHttpResponse(fd, 200, "text/plain",
                                                     "hi " + req.path);
                         },
                         opts)
                  .ok());
  ASSERT_TRUE(listener.serving());
  ASSERT_GT(listener.port(), 0);
  for (int i = 0; i < 3; ++i) {
    std::string resp = Get(listener.port(), "/x");
    EXPECT_NE(resp.find(" 200 "), std::string::npos);
    EXPECT_NE(resp.find("hi /x"), std::string::npos);
  }
  EXPECT_EQ(listener.accepted(), 3u);
  listener.Stop();
  EXPECT_FALSE(listener.serving());
}

TEST(NetListenerTest, ConnectionCapRejectsWithOverflowResponse) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  server::NetListener listener;
  server::NetListenerOptions opts;
  opts.max_concurrent = 1;
  opts.recv_timeout_ms = 5000;
  opts.overflow_response =
      "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 4\r\n"
      "Connection: close\r\n\r\nfull";
  ASSERT_TRUE(listener
                  .Start(0,
                         [&](int fd) {
                           server::HttpRequest req;
                           if (!server::ReadHttpRequest(fd, &req)) return;
                           entered.fetch_add(1);
                           {
                             std::unique_lock<std::mutex> lock(mu);
                             cv.wait(lock, [&] { return release; });
                           }
                           server::WriteHttpResponse(fd, 200, "text/plain",
                                                     "slow");
                         },
                         opts)
                  .ok());

  std::thread holder([&] {
    std::string resp = Get(listener.port(), "/hold");
    EXPECT_NE(resp.find("slow"), std::string::npos);
  });
  // Wait until the first connection occupies the only slot.
  while (entered.load() == 0) std::this_thread::yield();

  std::string rejected = Get(listener.port(), "/second");
  EXPECT_NE(rejected.find(" 503 "), std::string::npos);
  EXPECT_NE(rejected.find("full"), std::string::npos);
  EXPECT_GE(listener.overflowed(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  listener.Stop();
}

TEST(NetListenerTest, StalledClientTimesOutAndIsDropped) {
  server::NetListener listener;
  server::NetListenerOptions opts;
  opts.max_concurrent = 4;
  opts.recv_timeout_ms = 100;  // A silent client is cut loose fast.
  ASSERT_TRUE(listener
                  .Start(0,
                         [](int fd) {
                           server::HttpRequest req;
                           if (!server::ReadHttpRequest(fd, &req)) return;
                           server::WriteHttpResponse(fd, 200, "text/plain",
                                                     "ok");
                         },
                         opts)
                  .ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(listener.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Send nothing: the handler's read times out, the connection ends, and
  // our recv sees EOF instead of hanging forever.
  char buf[16];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  ::close(fd);
  listener.Stop();
}

// ---------------------------------------------------------------------------
// ResultQueueTest.

TEST(ResultQueueTest, DropsNeverConsumeSequenceNumbers) {
  server::ResultQueueOptions opts;
  opts.limit = 2;
  opts.overflow = server::SessionOverflow::kDrop;
  server::ResultQueue q(opts);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(q.Push(Row(i, i)), i < 2);
  EXPECT_EQ(q.produced(), 2u);
  EXPECT_EQ(q.dropped(), 3u);
  EXPECT_EQ(q.next_seq(), 2u);  // The stored stream has no holes.
  auto got = q.WaitRows(0, 10, std::chrono::steady_clock::now());
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[0].seq, 0u);
  EXPECT_EQ(got.rows[1].seq, 1u);
}

TEST(ResultQueueTest, AckTrimsRetentionAndFreesCapacity) {
  server::ResultQueueOptions opts;
  opts.limit = 2;
  opts.overflow = server::SessionOverflow::kDrop;
  server::ResultQueue q(opts);
  EXPECT_TRUE(q.Push(Row(0, 0)));
  EXPECT_TRUE(q.Push(Row(1, 1)));
  EXPECT_FALSE(q.Push(Row(2, 2)));  // Full.
  q.Ack(2);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_TRUE(q.Push(Row(3, 3)));
  auto got = q.WaitRows(0, 10, std::chrono::steady_clock::now());
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0].seq, 2u);  // Seqs keep counting past the ack.
  EXPECT_EQ(q.lag(), 1u);
}

TEST(ResultQueueTest, CursorMidQueueAndBeforeFront) {
  server::ResultQueueOptions opts;
  opts.limit = 100;
  server::ResultQueue q(opts);
  for (int64_t i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(Row(i, i)));
  q.Ack(4);  // Front is now seq 4.
  const auto now = std::chrono::steady_clock::now();
  // Mid-queue cursor: starts exactly there, capped by max_rows.
  auto got = q.WaitRows(7, 2, now);
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[0].seq, 7u);
  EXPECT_EQ(got.rows[1].seq, 8u);
  // A cursor before the front (an old cursor replayed) starts at the
  // oldest retained row.
  got = q.WaitRows(1, 100, now);
  ASSERT_EQ(got.rows.size(), 6u);
  EXPECT_EQ(got.rows.front().seq, 4u);
  EXPECT_EQ(got.rows.back().seq, 9u);
  // Past the end: nothing yet.
  EXPECT_TRUE(q.WaitRows(10, 100, now).rows.empty());
}

TEST(ResultQueueTest, BlockPolicyTimesOutThenDrops) {
  server::ResultQueueOptions opts;
  opts.limit = 1;
  opts.overflow = server::SessionOverflow::kBlock;
  opts.block_ms = 30;
  server::ResultQueue q(opts);
  EXPECT_TRUE(q.Push(Row(0, 0)));
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.Push(Row(1, 1)));  // Blocks ~30ms, then tail-drops.
  auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            25);
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(ResultQueueTest, CloseUnblocksABlockedProducer) {
  server::ResultQueueOptions opts;
  opts.limit = 1;
  opts.overflow = server::SessionOverflow::kBlock;
  opts.block_ms = 0;  // Wait indefinitely — only Close can free it.
  server::ResultQueue q(opts);
  EXPECT_TRUE(q.Push(Row(0, 0)));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.Push(Row(1, 1)));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(ResultQueueTest, FinishedOnlyAfterReaderDrains) {
  server::ResultQueue q(server::ResultQueueOptions{});
  EXPECT_TRUE(q.Push(Row(0, 0)));
  EXPECT_TRUE(q.Push(Row(1, 1)));
  q.Finish();
  auto got = q.WaitRows(0, 1, std::chrono::steady_clock::now());
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_FALSE(got.finished);  // Row 1 still unseen.
  got = q.WaitRows(1, 10, std::chrono::steady_clock::now());
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_TRUE(got.finished);
  got = q.WaitRows(2, 10, std::chrono::steady_clock::now());
  EXPECT_TRUE(got.rows.empty());
  EXPECT_TRUE(got.finished);
}

// ---------------------------------------------------------------------------
// QueryServerTest — end-to-end over real sockets.

class QueryServerTest : public ::testing::Test {
 protected:
  /// Starts the engine's query server on an ephemeral port.
  int Serve(server::QueryServerOptions opts = {}) {
    (void)engine_.RegisterStream("packets", gen::PacketSchema());
    auto bound = engine_.Serve(0, opts);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return *bound;
  }

  /// Submits `cql` and returns the session id ("" on rejection).
  std::string Submit(int port, const std::string& cql,
                     const std::string& params = "") {
    std::string resp = Post(port, "/query" + params, cql);
    return JsonStr(Body(resp), "session");
  }

  /// Streams every row of a session to completion, resuming from
  /// `cursor`, `max_per_poll` rows per request (0 = all in one).
  std::vector<std::string> StreamAll(int port, const std::string& sid,
                                     uint64_t cursor = 0,
                                     int max_per_poll = 0) {
    std::vector<std::string> rows;
    for (int polls = 0; polls < 1000; ++polls) {
      std::string t = "/session/" + sid +
                      "/results?wait_ms=2000&cursor=" +
                      std::to_string(cursor);
      if (max_per_poll > 0) t += "&max=" + std::to_string(max_per_poll);
      Streamed got = ParseStream(Body(Get(port, t)));
      for (const std::string& r : got.rows) rows.push_back(r);
      cursor = got.next_cursor;
      if (got.finished) return rows;
    }
    ADD_FAILURE() << "session " << sid << " never finished";
    return rows;
  }

  StreamEngine engine_;
};

TEST_F(QueryServerTest, StreamedRowsMatchInProcessRunExactly) {
  int port = Serve();
  const std::string cql = "select ts, len from packets where len > 300";
  std::string sid = Submit(port, cql);
  ASSERT_FALSE(sid.empty());

  // Reference: the same query compiled in-process over the same feed.
  StreamEngine ref;
  (void)ref.RegisterStream("packets", gen::PacketSchema());
  auto refq = ref.Submit(cql);
  ASSERT_TRUE(refq.ok());

  gen::PacketGenerator generator(gen::PacketOptions{});
  for (int i = 0; i < 3000; ++i) {
    TupleRef p = generator.Next();
    (void)engine_.Ingest("packets", p);
    (void)ref.Ingest("packets", p);
  }
  engine_.FinishAll();
  engine_.query_server()->FinishSessions();
  ref.FinishAll();

  std::vector<std::string> streamed = StreamAll(port, sid);
  std::multiset<std::string> got;
  for (const std::string& line : streamed) got.insert(PayloadOf(line));
  std::multiset<std::string> want;
  for (const TupleRef& t : (*refq)->results()) {
    want.insert(server::RowJson(*t));
  }
  EXPECT_GT(want.size(), 0u);
  EXPECT_EQ(got, want);
}

TEST_F(QueryServerTest, DetachReattachSeesEveryRowExactlyOnce) {
  server::QueryServerOptions opts;
  opts.queue.limit = 8;  // Small: the producer leans on backpressure.
  opts.queue.block_ms = 30000;
  int port = Serve(opts);
  std::string sid =
      Submit(port, "select ts, src_ip from packets where src_ip >= 0");
  ASSERT_FALSE(sid.empty());

  const int kRows = 100;
  // One dedicated ingest thread (the engine's single-ingest contract);
  // it blocks whenever the 8-row queue is full and only advances as the
  // client acks — the test *is* the backpressure path.
  std::thread ingest([&] {
    for (int i = 0; i < kRows; ++i) {
      (void)engine_.Ingest("packets", Pkt(i, i % 7, 6, 400));
    }
    engine_.FinishAll();
    engine_.query_server()->FinishSessions();
  });

  // Stream in small polls, "detaching" after every response (each poll
  // is its own connection) and reattaching at the cursor.
  std::vector<std::string> rows = StreamAll(port, sid, 0, 3);
  ingest.join();

  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(SeqOf(rows[i]), static_cast<uint64_t>(i))
        << "gap or duplicate at row " << i;
  }
}

TEST_F(QueryServerTest, ClientBlockMsZeroIsClampedAndCannotWedgeIngest) {
  server::QueryServerOptions opts;
  opts.queue.limit = 4;
  opts.max_block_ms = 50;
  int port = Serve(opts);
  // Unclamped, ?block_ms=0 means "wait indefinitely": with no reader
  // ever attaching, every push past the 4-row limit would park the
  // ingest thread forever. The server-side clamp bounds each push.
  std::string sid =
      Submit(port, "select ts, src_ip from packets where src_ip >= 0",
             "?policy=block&block_ms=0");
  ASSERT_FALSE(sid.empty());

  for (int i = 0; i < 20; ++i) {
    (void)engine_.Ingest("packets", Pkt(i, i % 7, 6, 400));
  }
  engine_.FinishAll();  // Returns only because each blocked push times out.

  std::string info = Body(Get(port, "/session/" + sid));
  size_t p = info.find("\"dropped\":");
  ASSERT_NE(p, std::string::npos) << info;
  EXPECT_GT(std::atoll(info.c_str() + p + 10), 0) << info;
}

TEST_F(QueryServerTest, ThirtyTwoConcurrentClientsEachGetTheirRows) {
  int port = Serve();
  const int kClients = 32;
  const int kPerKey = 40;

  // Every client registers a different filter, concurrently.
  std::vector<std::string> sids(kClients);
  {
    std::vector<std::thread> submitters;
    for (int c = 0; c < kClients; ++c) {
      submitters.emplace_back([&, c] {
        sids[c] = Submit(port,
                         "select ts, src_ip from packets where src_ip = " +
                             std::to_string(c));
      });
    }
    for (auto& th : submitters) th.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_FALSE(sids[c].empty()) << "client " << c;
  }

  // One interleaved feed; key c appears exactly kPerKey times.
  for (int round = 0; round < kPerKey; ++round) {
    for (int c = 0; c < kClients; ++c) {
      (void)engine_.Ingest("packets",
                           Pkt(round * kClients + c, c, 6, 100 + c));
    }
  }
  engine_.FinishAll();
  engine_.query_server()->FinishSessions();

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < kClients; ++c) {
    readers.emplace_back([&, c] {
      std::vector<std::string> rows = StreamAll(port, sids[c]);
      if (rows.size() != static_cast<size_t>(kPerKey)) {
        failures.fetch_add(1);
        return;
      }
      const std::string key = "," + std::to_string(c) + "]";
      for (const std::string& line : rows) {
        // Each row is [ts, src_ip]; src_ip must be this client's key.
        if (line.find(key) == std::string::npos) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine_.query_server()->rows_delivered(),
            static_cast<uint64_t>(kClients * kPerKey));
}

TEST_F(QueryServerTest, AdmissionRejectsAtCapAndReadmitsAfterClose) {
  server::QueryServerOptions opts;
  opts.admission.max_sessions = 2;
  int port = Serve(opts);

  std::string s0 = Submit(port, "select ts from packets");
  std::string s1 = Submit(port, "select len from packets");
  ASSERT_FALSE(s0.empty());
  ASSERT_FALSE(s1.empty());

  std::string rejected = Post(port, "/query", "select src_ip from packets");
  EXPECT_NE(rejected.find(" 429 "), std::string::npos);
  EXPECT_NE(rejected.find("max_sessions"), std::string::npos);

  // The admitted sessions keep streaming through the overload.
  (void)engine_.Ingest("packets", Pkt(1, 1, 6, 400));
  Streamed got = ParseStream(
      Body(Get(port, "/session/" + s0 + "/results?wait_ms=2000&max=1")));
  EXPECT_EQ(got.rows.size(), 1u);

  // Closing one frees a slot.
  EXPECT_NE(Del(port, "/session/" + s1).find(" 200 "), std::string::npos);
  std::string s2 = Submit(port, "select src_ip from packets");
  EXPECT_FALSE(s2.empty());
}

TEST_F(QueryServerTest, OverloadedByQueueReservationRejectsWithReason) {
  server::QueryServerOptions opts;
  opts.admission.max_queued_rows = 100;
  int port = Serve(opts);
  ASSERT_FALSE(Submit(port, "select ts from packets", "?queue=64").empty());
  std::string rejected =
      Post(port, "/query?queue=64", "select len from packets");
  EXPECT_NE(rejected.find(" 429 "), std::string::npos);
  EXPECT_NE(rejected.find("overloaded"), std::string::npos);
  // A smaller reservation still fits.
  EXPECT_FALSE(Submit(port, "select len from packets", "?queue=16").empty());
}

TEST_F(QueryServerTest, DropPolicyCountsWhatASlowClientLoses) {
  int port = Serve();
  std::string sid = Submit(port, "select ts from packets",
                           "?policy=drop&queue=4");
  ASSERT_FALSE(sid.empty());
  for (int i = 0; i < 50; ++i) {
    (void)engine_.Ingest("packets", Pkt(i, 1, 6, 400));
  }
  Streamed got = ParseStream(
      Body(Get(port, "/session/" + sid + "/results?wait_ms=100")));
  EXPECT_EQ(got.rows.size(), 4u);  // Queue capacity; the rest dropped.
  EXPECT_NE(got.trailer.find("\"dropped\":46"), std::string::npos);
  std::string info = Body(Get(port, "/session/" + sid));
  EXPECT_NE(info.find("\"dropped\":46"), std::string::npos);
}

TEST_F(QueryServerTest, ShedPolicyAttachesTheController) {
  int port = Serve();
  std::string resp =
      Post(port, "/query?policy=shed&queue=32", "select ts from packets");
  EXPECT_NE(resp.find(" 200 "), std::string::npos);
  std::string sid = JsonStr(Body(resp), "session");
  ASSERT_FALSE(sid.empty());
  std::string info = Body(Get(port, "/session/" + sid));
  EXPECT_NE(info.find("\"policy\":\"shed\""), std::string::npos);
  EXPECT_NE(info.find("\"shed_rate\":"), std::string::npos);
  EXPECT_NE(Del(port, "/session/" + sid).find(" 200 "), std::string::npos);
}

TEST_F(QueryServerTest, ShedOnAJoinIsRefusedWithNothingRegistered) {
  ASSERT_TRUE(engine_.RegisterStream("synack", gen::PacketSchema()).ok());
  int port = Serve();
  const size_t queries = engine_.num_queries();
  std::string resp = Post(port, "/query?policy=shed",
                          "select s.ts from packets s [range 10], "
                          "synack a [range 10] where s.src_ip = a.dst_ip");
  // A plan the shed gate cannot front is a 409, not a CQL parse error.
  EXPECT_NE(resp.find(" 409 "), std::string::npos) << resp;
  EXPECT_EQ(JsonStr(Body(resp), "error"), "shed setup");
  EXPECT_EQ(engine_.num_queries(), queries);
  EXPECT_NE(Get(port, "/stats").find("\"sessions\":0"), std::string::npos);
  const std::string events = Body(Get(port, "/events.json"));
  EXPECT_EQ(events.find("query_submit"), std::string::npos) << events;
  EXPECT_EQ(events.find("query_stop"), std::string::npos) << events;
}

TEST_F(QueryServerTest, ShedSessionIsGatedBeforeItsFirstRow) {
  int port = Serve();
  std::string sid = Submit(port, "select ts from packets", "?policy=shed");
  ASSERT_FALSE(sid.empty());
  ASSERT_EQ(engine_.num_queries(), 1u);
  const QueryHandle* q = engine_.queries()[0].get();
  // Submit installed the gate with the query: nothing was ingested yet.
  EXPECT_TRUE(q->adaptive_shedding());
  EXPECT_EQ(q->shed_dropped(), 0u);
  EXPECT_NE(Del(port, "/session/" + sid).find(" 200 "), std::string::npos);
}

TEST_F(QueryServerTest, BadQueryAndBadRoutesReportErrors) {
  int port = Serve();
  std::string bad = Post(port, "/query", "select nonsense !!");
  EXPECT_NE(bad.find(" 400 "), std::string::npos);
  EXPECT_EQ(engine_.num_queries(), 0u);  // Nothing half-registered.
  EXPECT_NE(Get(port, "/session/nope").find(" 404 "), std::string::npos);
  EXPECT_NE(Get(port, "/definitely/not").find(" 404 "), std::string::npos);
  EXPECT_NE(Post(port, "/query?policy=wat", "select ts from packets")
                .find(" 400 "),
            std::string::npos);
  EXPECT_NE(Get(port, "/healthz").find("ok"), std::string::npos);
  EXPECT_NE(Get(port, "/stats").find("\"sessions\":0"), std::string::npos);
}

TEST_F(QueryServerTest, EngineTeardownWhileClientStreams) {
  auto engine = std::make_unique<StreamEngine>();
  (void)engine->RegisterStream("packets", gen::PacketSchema());
  auto bound = engine->Serve(0);
  ASSERT_TRUE(bound.ok());
  int port = *bound;
  std::string sid = JsonStr(
      Body(Post(port, "/query", "select ts from packets")), "session");
  ASSERT_FALSE(sid.empty());

  // A client parked in a long poll while the engine dies under it: the
  // server's Stop kicks the connection loose and the response still
  // terminates cleanly.
  std::thread reader([&] {
    (void)Get(port, "/session/" + sid + "/results?wait_ms=10000");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  engine.reset();
  reader.join();
}

// Crash-class inputs at the network boundary: oversized numeric
// literals and pathological nesting once escaped the lexer/parser as
// uncaught exceptions (std::stoll) or stack overflow, killing the whole
// server. Each must come back as a 400 — and the server must keep
// answering afterwards.
TEST_F(QueryServerTest, HostileQueriesAnswer400AndServerSurvives) {
  int port = Serve();
  const std::vector<std::string> hostile = {
      "select 99999999999999999999 from packets",
      "select ts from packets where len > " + std::string(400, '9'),
      "select ts from packets where len > " + std::string(400, '9') + ".5",
      "select count(*) from packets [range 99999999999999999999]",
      "select ts from packets where " + std::string(20000, '(') + "1" +
          std::string(20000, ')') + " = 1",
      std::string(1 << 16, '@'),
  };
  for (const std::string& cql : hostile) {
    std::string resp = Post(port, "/query", cql);
    EXPECT_NE(resp.find(" 400 "), std::string::npos)
        << "query: " << cql.substr(0, 80);
  }
  // Still alive: health checks pass and a well-formed submit works.
  EXPECT_NE(Get(port, "/healthz").find(" 200 "), std::string::npos);
  std::string sid = Submit(port, "select ts from packets where len > 100");
  EXPECT_FALSE(sid.empty());
}

// ?replay=1 pours the durable archive through a new session before live
// ingest takes over — the late subscriber sees the archived past.
TEST_F(QueryServerTest, ReplaySessionSeesArchivedPast) {
  std::string tmpl = std::string(::testing::TempDir()) + "sqp-srv-XXXXXX";
  std::vector<char> dirbuf(tmpl.begin(), tmpl.end());
  dirbuf.push_back('\0');
  ASSERT_NE(mkdtemp(dirbuf.data()), nullptr);
  int port = Serve();
  ASSERT_TRUE(engine_.EnableDurability(dirbuf.data(), {}).ok());

  gen::PacketGenerator generator(gen::PacketOptions{});
  for (int i = 0; i < 500; ++i) {
    (void)engine_.Ingest("packets", generator.Next());
  }

  // Replay needs a lossy queue policy; with the default block policy it
  // must be refused outright (not wedge the engine).
  std::string refused =
      Post(port, "/query?replay=1", "select ts from packets");
  EXPECT_NE(refused.find(" 400 "), std::string::npos);

  std::string resp = Body(Post(port, "/query?replay=1&policy=drop&queue=4096",
                               "select ts from packets where len > 0"));
  std::string sid = JsonStr(resp, "session");
  ASSERT_FALSE(sid.empty()) << resp;
  // All 500 archived elements were poured through the new query.
  EXPECT_NE(resp.find("\"replayed\":500"), std::string::npos) << resp;

  engine_.FinishAll();
  engine_.query_server()->FinishSessions();
  std::vector<std::string> rows = StreamAll(port, sid);
  EXPECT_GT(rows.size(), 0u);
}

// The metrics routes ride the query server's listener; make sure they
// serve.
TEST_F(QueryServerTest, MetricsExporterStillServesOverSharedListener) {
  (void)engine_.RegisterStream("packets", gen::PacketSchema());
  auto bound = engine_.Serve(0);
  ASSERT_TRUE(bound.ok());
  std::string resp = Get(*bound, "/metrics");
  EXPECT_NE(resp.find(" 200 "), std::string::npos);
  std::string json = Get(*bound, "/snapshot.json");
  EXPECT_NE(json.find(" 200 "), std::string::npos);
}

// One engine.Serve port answers the session routes and the engine-level
// observability routes side by side.
TEST_F(QueryServerTest, OnePortServesSessionsAndObservability) {
  int port = Serve();
  std::string sid = Submit(port, "select ts, len from packets where len > 100");
  ASSERT_FALSE(sid.empty());
  gen::PacketGenerator generator(gen::PacketOptions{});
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine_.Ingest("packets", generator.Next()).ok());
  }

  // /metrics carries the engine's counters and the server's collector.
  std::string metrics = Get(port, "/metrics");
  EXPECT_NE(metrics.find(" 200 "), std::string::npos);
  EXPECT_NE(metrics.find("sqp_stream_ingested_total"), std::string::npos);
  EXPECT_NE(metrics.find("sqp_server_sessions"), std::string::npos);

  // Serve started the monitor; /series.json shows its ticks.
  ASSERT_NE(engine_.monitor(), nullptr);
  engine_.monitor()->TickOnce();
  engine_.monitor()->TickOnce();
  std::string series = Body(Get(port, "/series.json"));
  EXPECT_FALSE(IsJson("{\"ticks\":1,}"));  // The checker rejects bad JSON.
  EXPECT_TRUE(IsJson(series)) << series.substr(0, 200);
  size_t ticks = series.find("\"ticks\":");
  ASSERT_NE(ticks, std::string::npos);
  EXPECT_GE(std::atoll(series.c_str() + ticks + 8), 2);

  // The label route and the session route render the same profile.
  std::string session_profile =
      Body(Get(port, "/session/" + sid + "/profile"));
  std::string label = JsonStr(session_profile, "query");
  ASSERT_FALSE(label.empty()) << session_profile;
  std::string label_profile = Body(Get(port, "/profile/" + label + ".json"));
  EXPECT_TRUE(IsJson(label_profile)) << label_profile.substr(0, 200);
  EXPECT_FALSE(ProfileOps(session_profile).empty());
  EXPECT_EQ(ProfileOps(label_profile), ProfileOps(session_profile));
  EXPECT_NE(Get(port, "/profile/nope.json").find(" 404 "), std::string::npos);

  // after=-2 clamps to 0 (every event), not to 2^64-2 (none).
  std::string events = Body(Get(port, "/events.json?after=-2"));
  EXPECT_TRUE(IsJson(events)) << events.substr(0, 200);
  EXPECT_NE(events.find("query_submit"), std::string::npos);

  // HEAD answers the non-streaming GET routes without a body...
  std::string head = RawRequest(
      port, "HEAD /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(head.rfind("HTTP/1.0 200 OK", 0), 0u) << head;
  std::string head_part, body_part;
  ASSERT_TRUE(server::SplitHttpResponse(head, &head_part, &body_part));
  EXPECT_TRUE(body_part.empty());
  // ...but not the streaming results route.
  EXPECT_NE(RawRequest(port, "HEAD /session/" + sid +
                                 "/results HTTP/1.1\r\nHost: t\r\n"
                                 "Connection: close\r\n\r\n")
                .find(" 405 "),
            std::string::npos);
}

}  // namespace
}  // namespace sqp
