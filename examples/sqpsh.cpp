// sqpsh — run continuous queries from the command line against the
// built-in synthetic streams.
//
//   sqpsh [--tuples N] [--rows K] [--parallel] [--columnar] [--shards N]
//         [--trace-every N] [--serve PORT] [--linger SECS]
//         [--adaptive-shed] [--shed-target N]
//         <query|command> [<query|command> ...]
//
// Registered streams: packets (IPv4/TCP tap), cdr (call records),
// sensors (measurements). Every query sees the same interleaved feed.
//
// Commands (backslash-prefixed, mixed freely with queries):
//   \metrics        pretty-print the live metrics snapshot (mid-run and
//                   after the run): per-operator tuples in/out,
//                   selectivity, busy time, queue depth, stage stats.
//   \metrics=json   same snapshot as one JSON object
//   \metrics=prom   same snapshot in Prometheus text exposition format
//   \top            live refreshing dashboard from the continuous
//                   monitor: stream rates, per-operator throughput and
//                   selectivity, backlog, latency p50/p99, watermark
//                   lag, drop rates
//   \explain analyze [qN]
//                   per-operator profile of a running query (mid-run and
//                   final): rows in/out, selectivity, busy time, queue
//                   wait, state bytes, watermark lag vs the source
//   \events         dump the engine's structured event log after the
//                   run (query lifecycle, checkpoints, replay, shed
//                   gates, admission rejections, shard stalls)
//
//   ./build/examples/sqpsh --tuples 50000 '\metrics'
//     "select tb, src_ip, sum(len) from packets where protocol = 6
//      group by ts/60 as tb, src_ip having count(*) > 5"
//
//   # Scrapeable run: serve /metrics while ingesting, keep serving 30s.
//   ./build/examples/sqpsh --serve 9464 --linger 30 --parallel
//     --adaptive-shed '\top' "select ts from packets where len > 256"
//
//   # Continuous-query server: ingest at 20k tuples/s per stream while
//   # clients POST CQL and stream results back.
//   ./build/examples/sqpsh --serve 9470 --tuples 1000000 --rate 20000
//   ./build/examples/sqpsh --connect localhost:9470 --rows 5
//     "select ts, len from packets where len > 200"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arch/engine.h"
#include "server/http.h"
#include "server/query_server.h"
#include "stream/generators.h"

namespace {

enum class MetricsMode { kOff, kPretty, kJson, kProm };

void Usage() {
  std::fprintf(
      stderr,
      "usage: sqpsh [options] <query|command> [<query|command> ...]\n"
      "options:\n"
      "  --tuples N        tuples to generate per stream (default 100000)\n"
      "  --rows K          result rows to print per query (default 10)\n"
      "  --parallel        run each query on the threaded executor\n"
      "  --columnar        vectorized execution: stage workers and shard\n"
      "                    replicas deliver tuple runs to select/project/\n"
      "                    group-by as columnar batches (requires\n"
      "                    --parallel or --shards)\n"
      "  --shards N        key-partition each query's stateful operators\n"
      "                    (joins, keyed group-bys) across N replica\n"
      "                    threads behind a hash exchange\n"
      "  --trace-every N   sample every Nth tuple's lineage (default off)\n"
      "  --linger SECS     keep the process (and --serve endpoint) alive\n"
      "                    SECS seconds after the run finishes\n"
      "  --adaptive-shed   attach monitor-driven load shedding to each\n"
      "                    single-input query (requires --parallel)\n"
      "  --shed-target N   backlog the shedding controller holds\n"
      "                    (default 256 elements)\n"
      "  --serve PORT      run the engine's HTTP server: clients POST CQL\n"
      "                    to /query and stream results back over\n"
      "                    /session/<id>/results; scrapers read /metrics\n"
      "                    (Prometheus), /snapshot.json, /series.json,\n"
      "                    /events.json, /profile/<q>.json (0 = ephemeral\n"
      "                    port)\n"
      "  --rate N          pace ingest at N tuples/s per stream (serve\n"
      "                    mode; 0 = full speed, the default)\n"
      "  --punct N         inject an event-time watermark into every stream\n"
      "                    each N tuples, so windows close and \\explain\n"
      "                    analyze / \\top report watermark lag (0 = off)\n"
      "  --max-sessions N  admission cap on concurrent server queries\n"
      "  --connect H:P     act as a client: submit the query to a running\n"
      "                    --serve endpoint, stream --rows rows, close\n"
      "  --policy P        client: block|drop|shed result-queue policy\n"
      "  --queue N         client: per-session result queue capacity\n"
      "  --durable DIR     archive every ingested element (and punctuation)\n"
      "                    under DIR before delivery; on start, recover from\n"
      "                    an existing archive (checkpoint restore + suffix\n"
      "                    replay) into the submitted queries\n"
      "  --checkpoint-every N  with --durable: checkpoint operator state\n"
      "                    every N archived records (default: only a final\n"
      "                    checkpoint when the run finishes)\n"
      "  --ignore-checkpoint   with --durable: skip checkpoint restore and\n"
      "                    replay the full archive (recovery audit)\n"
      "  --replay          with --durable: no live generation — run the\n"
      "                    queries purely over the archived past\n"
      "  --help            this message\n"
      "commands:\n"
      "  \\metrics[=json|prom]  metrics snapshot mid-run and after the run\n"
      "  \\top                  live monitor dashboard (rates, selectivity,\n"
      "                        backlog, latency, watermark lag, drop rates)\n"
      "  \\explain analyze [qN] per-operator query profile (rows, sel,\n"
      "                        busy, queue wait, state, watermark lag)\n"
      "  \\events               dump the engine's structured event log\n"
      "streams: packets, cdr, sensors\n");
}

/// True for a query label the engine assigns ("q0", "q12", ...).
bool IsQueryLabel(const char* s) {
  if (s[0] != 'q' || s[1] == '\0') return false;
  for (const char* p = s + 1; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  return true;
}

/// EXPLAIN ANALYZE for every profiled query (or just `target` when
/// non-empty), rendered from a live profiler snapshot.
void PrintProfiles(const sqp::StreamEngine& engine,
                   const std::vector<sqp::QueryHandle*>& handles,
                   const std::string& target, const char* when) {
  bool any = false;
  for (const sqp::QueryHandle* q : handles) {
    if (!target.empty() && q->metrics_label() != target) continue;
    sqp::obs::QueryProfile profile;
    if (!engine.ProfileSnapshot(q, &profile)) continue;
    any = true;
    std::printf("\n--- explain analyze (%s) ---\n%s", when,
                profile.Pretty().c_str());
  }
  if (!any) {
    std::printf("\n--- explain analyze (%s) ---\n"
                "no profiled query%s%s\n",
                when, target.empty() ? "" : " matching ",
                target.c_str());
  }
}

void PrintEvents(const sqp::StreamEngine& engine) {
  const std::vector<sqp::obs::EngineEvent> events = engine.Events().Tail();
  std::printf("\n--- events (%zu retained of %llu emitted) ---\n",
              events.size(),
              static_cast<unsigned long long>(engine.Events().total()));
  const int64_t base = events.empty() ? 0 : events.front().wall_ms;
  for (const sqp::obs::EngineEvent& e : events) {
    std::printf("  #%-4llu t+%8.3fs %-20s %-4s %s\n",
                static_cast<unsigned long long>(e.seq),
                static_cast<double>(e.wall_ms - base) * 1e-3,
                sqp::obs::EventKindName(e.kind),
                e.query.empty() ? "-" : e.query.c_str(),
                e.message.c_str());
  }
}

void PrintMetrics(const sqp::StreamEngine& engine, MetricsMode mode,
                  const char* when) {
  sqp::obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  switch (mode) {
    case MetricsMode::kOff:
      return;
    case MetricsMode::kPretty:
      std::printf("\n--- metrics (%s) ---\n%s", when, snap.Pretty().c_str());
      break;
    case MetricsMode::kJson:
      std::printf("%s\n", snap.ToJson().c_str());
      break;
    case MetricsMode::kProm:
      std::printf("%s", snap.ToPrometheus().c_str());
      break;
  }
}

// ---------------------------------------------------------------------
// --connect: a minimal HTTP client against a --serve endpoint. One
// connection per request (the server speaks Connection: close), cursor
// carried across long-poll calls so a re-run resumes cleanly.

int Dial(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res) !=
      0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  return fd;
}

bool RoundTrip(const std::string& host, int port, const std::string& request,
               std::string* head, std::string* body) {
  int fd = Dial(host, port);
  if (fd < 0) return false;
  if (!sqp::server::SendAll(fd, request.data(), request.size())) {
    close(fd);
    return false;
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) raw.append(buf, n);
  close(fd);
  return sqp::server::SplitHttpResponse(raw, head, body);
}

std::string JsonStr(const std::string& body, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  size_t p = body.find(pat);
  if (p == std::string::npos) return "";
  p += pat.size();
  size_t e = body.find('"', p);
  return e == std::string::npos ? "" : body.substr(p, e - p);
}

int64_t JsonInt(const std::string& body, const std::string& key,
                int64_t def) {
  const std::string pat = "\"" + key + "\":";
  size_t p = body.find(pat);
  if (p == std::string::npos) return def;
  return std::atoll(body.c_str() + p + pat.size());
}

int RunConnect(const std::string& host, int port, const std::string& query,
               int64_t rows, const std::string& policy, int64_t queue_limit) {
  std::string target = "/query";
  char sep = '?';
  if (!policy.empty()) {
    target += sep + ("policy=" + policy);
    sep = '&';
  }
  if (queue_limit > 0) {
    target += sep + ("queue=" + std::to_string(queue_limit));
    sep = '&';
  }
  std::string req = "POST " + target + " HTTP/1.1\r\nHost: " + host +
                    "\r\nContent-Length: " + std::to_string(query.size()) +
                    "\r\nConnection: close\r\n\r\n" + query;
  std::string head, body;
  if (!RoundTrip(host, port, req, &head, &body)) {
    std::fprintf(stderr, "connect to %s:%d failed\n", host.c_str(), port);
    return 1;
  }
  if (head.find(" 200 ") == std::string::npos) {
    std::fprintf(stderr, "submit rejected: %s\n", body.c_str());
    return 1;
  }
  const std::string sid = JsonStr(body, "session");
  if (sid.empty()) {
    std::fprintf(stderr, "bad submit response: %s\n", body.c_str());
    return 1;
  }
  std::printf("session: %s\n", sid.c_str());
  std::printf("schema : %s\n", JsonStr(body, "schema").c_str());
  std::printf("plan   : %s\n", JsonStr(body, "plan").c_str());

  uint64_t cursor = 0;
  int64_t printed = 0;
  bool finished = false;
  while (!finished && (rows <= 0 || printed < rows)) {
    std::string t = "/session/" + sid +
                    "/results?cursor=" + std::to_string(cursor) +
                    "&wait_ms=2000";
    if (rows > 0) t += "&max=" + std::to_string(rows - printed);
    req = "GET " + t + " HTTP/1.1\r\nHost: " + host +
          "\r\nConnection: close\r\n\r\n";
    if (!RoundTrip(host, port, req, &head, &body)) {
      std::fprintf(stderr, "results poll failed (session %s, cursor %llu)\n",
                   sid.c_str(), static_cast<unsigned long long>(cursor));
      return 1;
    }
    std::string payload = sqp::server::DechunkBody(head, body);
    size_t pos = 0;
    while (pos < payload.size()) {
      size_t nl = payload.find('\n', pos);
      if (nl == std::string::npos) nl = payload.size();
      std::string line = payload.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.empty()) continue;
      if (line.find("\"next_cursor\"") != std::string::npos) {
        cursor = static_cast<uint64_t>(
            JsonInt(line, "next_cursor", static_cast<int64_t>(cursor)));
        finished = line.find("\"finished\":true") != std::string::npos;
      } else {
        std::printf("%s\n", line.c_str());
        ++printed;
      }
    }
  }

  req = "DELETE /session/" + sid + " HTTP/1.1\r\nHost: " + host +
        "\r\nConnection: close\r\n\r\n";
  (void)RoundTrip(host, port, req, &head, &body);
  std::printf("rows printed: %lld%s\n", static_cast<long long>(printed),
              finished ? " (query finished)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqp;

  int64_t tuples = 100000;
  int64_t show_rows = 10;
  bool parallel = false;
  bool columnar = false;
  int64_t trace_every = 0;
  int64_t linger_s = 0;
  bool adaptive_shed = false;
  double shed_target = 256.0;
  int64_t shards = 0;  // 0 = sharding off.
  int64_t serve_port = -1;     // < 0 = no query server.
  int64_t rate = 0;            // Tuples/s per stream (0 = full speed).
  int64_t punct_every = 0;     // Watermark every N tuples (0 = none).
  int64_t max_sessions = 0;    // 0 = server default.
  std::string connect_hostport;  // Client mode when non-empty.
  std::string client_policy;
  int64_t client_queue = 0;
  std::string durable_dir;       // Empty = durability off.
  int64_t checkpoint_every = 0;
  bool ignore_checkpoint = false;
  bool replay_mode = false;
  bool top_mode = false;
  bool explain_analyze = false;
  std::string explain_target;  // Empty = every query.
  bool events_mode = false;
  MetricsMode metrics_mode = MetricsMode::kOff;
  std::vector<std::string> query_texts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tuples") == 0 && i + 1 < argc) {
      tuples = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      show_rows = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--parallel") == 0) {
      parallel = true;
    } else if (std::strcmp(argv[i], "--columnar") == 0) {
      columnar = true;
    } else if (std::strcmp(argv[i], "--trace-every") == 0 && i + 1 < argc) {
      trace_every = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger_s = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--adaptive-shed") == 0) {
      adaptive_shed = true;
    } else if (std::strcmp(argv[i], "--shed-target") == 0 && i + 1 < argc) {
      shed_target = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--punct") == 0 && i + 1 < argc) {
      punct_every = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-sessions") == 0 && i + 1 < argc) {
      max_sessions = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_hostport = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      client_policy = argv[++i];
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      client_queue = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--durable") == 0 && i + 1 < argc) {
      durable_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
               i + 1 < argc) {
      checkpoint_every = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--ignore-checkpoint") == 0) {
      ignore_checkpoint = true;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_mode = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else if (std::strcmp(argv[i], "\\metrics") == 0) {
      metrics_mode = MetricsMode::kPretty;
    } else if (std::strcmp(argv[i], "\\metrics=json") == 0) {
      metrics_mode = MetricsMode::kJson;
    } else if (std::strcmp(argv[i], "\\metrics=prom") == 0) {
      metrics_mode = MetricsMode::kProm;
    } else if (std::strcmp(argv[i], "\\top") == 0) {
      top_mode = true;
    } else if (std::strncmp(argv[i], "\\explain", 8) == 0) {
      // \explain analyze [qN] — "analyze" and the label work both inside
      // one quoted argument ('\explain analyze q0') and as separate ones.
      explain_analyze = true;
      std::string words = argv[i] + 8;
      while (i + 1 < argc && (std::strcmp(argv[i + 1], "analyze") == 0 ||
                              IsQueryLabel(argv[i + 1]))) {
        words += " ";
        words += argv[++i];
      }
      size_t pos = 0;
      while (pos < words.size()) {
        size_t sp = words.find(' ', pos);
        if (sp == std::string::npos) sp = words.size();
        std::string word = words.substr(pos, sp - pos);
        pos = sp + 1;
        if (word.empty() || word == "analyze") continue;
        if (IsQueryLabel(word.c_str())) {
          explain_target = word;
        } else {
          std::fprintf(stderr, "\\explain: want [analyze] [qN], got %s\n",
                       word.c_str());
          return 2;
        }
      }
    } else if (std::strcmp(argv[i], "\\events") == 0) {
      events_mode = true;
    } else if (argv[i][0] == '\\') {
      std::fprintf(stderr, "unknown command: %s\n", argv[i]);
      Usage();
      return 2;
    } else {
      query_texts.emplace_back(argv[i]);
    }
  }
  if (!connect_hostport.empty()) {
    size_t colon = connect_hostport.rfind(':');
    if (colon == std::string::npos || query_texts.size() != 1) {
      std::fprintf(stderr,
                   "--connect wants HOST:PORT and exactly one query\n");
      return 2;
    }
    return RunConnect(connect_hostport.substr(0, colon),
                      std::atoi(connect_hostport.c_str() + colon + 1),
                      query_texts[0], show_rows, client_policy, client_queue);
  }
  if (query_texts.empty() && serve_port < 0) {
    Usage();
    return 2;
  }
  if ((replay_mode || ignore_checkpoint || checkpoint_every > 0) &&
      durable_dir.empty()) {
    std::fprintf(stderr, "--replay/--ignore-checkpoint/--checkpoint-every "
                         "require --durable DIR\n");
    return 2;
  }

  StreamEngine engine;
  if (trace_every > 0) {
    engine.EnableTracing(static_cast<uint64_t>(trace_every));
  }
  std::vector<FieldDomain> pkt_domains(gen::PacketSchema()->num_fields());
  pkt_domains[gen::PacketCols::kProtocol] = {"protocol", true, 256};
  pkt_domains[gen::PacketCols::kIsSyn] = {"is_syn", true, 2};
  pkt_domains[gen::PacketCols::kIsAck] = {"is_ack", true, 2};
  (void)engine.RegisterStream("packets", gen::PacketSchema(), pkt_domains);
  (void)engine.RegisterStream("cdr", gen::CdrSchema());
  (void)engine.RegisterStream("sensors", gen::SensorSchema());

  // The continuous monitor backs \top, /series.json, and the adaptive
  // shedding loop; start it whenever any of those is requested.
  if (top_mode || adaptive_shed || serve_port >= 0) {
    obs::MonitorOptions mopt;
    mopt.period_ms = 50;
    engine.StartMonitor(mopt);
  }
  if (serve_port >= 0) {
    server::QueryServerOptions sopt;
    if (max_sessions > 0) {
      sopt.admission.max_sessions = static_cast<size_t>(max_sessions);
    }
    auto bound = engine.Serve(static_cast<int>(serve_port), sopt);
    if (!bound.ok()) {
      std::fprintf(stderr, "--serve failed: %s\n",
                   bound.status().ToString().c_str());
      return 1;
    }
    std::printf("query server on http://localhost:%d "
                "(POST /query, GET /session/<id>/results, /metrics, "
                "/snapshot.json, /series.json, /events.json, "
                "/profile/<q>.json)\n\n", *bound);
    std::fflush(stdout);
  }

  // One execution mode for every query on the command line; Submit
  // refuses (and sqpsh exits) when a query's plan cannot run under it.
  SubmitOptions submit;
  submit.exec.columnar = columnar;
  if (shards > 1) {
    submit.exec.sharding.emplace();
    submit.exec.sharding->shards = static_cast<int>(shards);
  }
  submit.exec.parallel = parallel;
  if (adaptive_shed) {
    submit.exec.shed.emplace();
    submit.exec.shed->controller.target_queue = shed_target;
  }
  std::vector<QueryHandle*> handles;
  for (const std::string& text : query_texts) {
    auto q = engine.Submit(text, submit);
    if (!q.ok()) {
      std::fprintf(stderr, "error submitting \"%s\":\n  %s\n", text.c_str(),
                   q.status().ToString().c_str());
      return 1;
    }
    std::printf("query : %s\n", text.c_str());
    std::printf("label : %s\n", (*q)->metrics_label().c_str());
    std::printf("plan  : %s\n", (*q)->plan_desc().c_str());
    std::printf("output: %s\n", (*q)->output_schema().ToString().c_str());
    std::printf("memory: %s (%s)\n",
                (*q)->memory().verdict == MemoryVerdict::kBounded
                    ? "BOUNDED"
                    : "UNBOUNDED",
                (*q)->memory().explanation.c_str());
    if (columnar) std::printf("vec   : columnar\n");
    if (shards > 1 && !(*q)->sharded()) {
      std::printf("shard : off (no shardable stateful operator)\n");
    }
    for (const ShardRewrite& rw : (*q)->shard_rewrites()) {
      if (rw.sharded != nullptr) {
        std::printf("shard : %s x%d (%s routing)\n",
                    rw.original->name().c_str(), rw.sharded->shards(),
                    ShardRoutingName(rw.routing));
      } else {
        std::printf("shard : %s kept serial (%s)\n",
                    rw.original->name().c_str(), rw.reason.c_str());
      }
    }
    if ((*q)->parallel()) {
      const size_t stages = (*q)->parallel_executor()->num_stages();
      if (stages == 1) {
        std::printf("exec  : parallel (whole query on one worker)\n");
      } else {
        std::printf("exec  : parallel (%zu worker stages)\n", stages);
      }
    }
    if ((*q)->adaptive_shedding()) {
      std::printf("shed  : adaptive (target backlog %.0f)\n", shed_target);
    }
    std::printf("\n");
    handles.push_back(*q);
  }
  // The headers must reach a redirected stdout before the (possibly
  // paced, lingering) run: a server stopped with kill never flushes.
  std::fflush(stdout);

  // After Submit (recovery restores checkpointed state into the standing
  // queries, matched by query text) and before the first Ingest.
  if (!durable_dir.empty()) {
    dur::DurabilityOptions dopt;
    dopt.checkpoint_every = static_cast<uint64_t>(
        checkpoint_every > 0 ? checkpoint_every : 0);
    dopt.use_checkpoint = !ignore_checkpoint;
    Status st = engine.EnableDurability(durable_dir, dopt);
    if (!st.ok()) {
      std::fprintf(stderr, "--durable failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("durable: %s (%s)\n\n", durable_dir.c_str(),
                engine.recovery_report().ToString().c_str());
    std::fflush(stdout);
  }
  if (replay_mode) {
    // Replay mode runs the queries purely over the archived past: the
    // recovery pass above already poured the archive through them, so
    // skip live generation and go straight to the flush.
    tuples = 0;
  }

  gen::PacketGenerator packets(gen::PacketOptions{});
  gen::CdrGenerator cdrs(gen::CdrOptions{});
  gen::SensorGenerator sensors(gen::SensorOptions{});
  // A mid-run snapshot shows the queries while data is still in flight
  // (for --parallel the workers are live and queue depths are real).
  const int64_t midpoint = tuples / 2;
  // \top refreshes the dashboard a few times over the run.
  const int64_t top_every = top_mode && tuples >= 5 ? tuples / 5 : 0;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < tuples; ++i) {
    TupleRef packet = packets.Next();
    const int64_t packet_ts = packet->ts();
    (void)engine.Ingest("packets", std::move(packet));
    TupleRef cdr = cdrs.Next();
    const int64_t cdr_ts = cdr->ts();
    (void)engine.Ingest("cdr", std::move(cdr));
    TupleRef sensor = sensors.Next();
    const int64_t sensor_ts = sensor->ts();
    (void)engine.Ingest("sensors", std::move(sensor));
    if (punct_every > 0 && (i + 1) % punct_every == 0) {
      // Event-time watermarks let windows close and give the profiler
      // (\explain analyze, \top) a real per-operator lag to report.
      (void)engine.IngestElement("packets",
                                 Element(Punctuation::Watermark(packet_ts)));
      (void)engine.IngestElement("cdr",
                                 Element(Punctuation::Watermark(cdr_ts)));
      (void)engine.IngestElement("sensors",
                                 Element(Punctuation::Watermark(sensor_ts)));
    }
    if (rate > 0 && (i & 255) == 0) {
      // Pace to `rate` tuples/s per stream so server clients see a
      // steady feed instead of one burst.
      auto due = ingest_start + std::chrono::nanoseconds(
                                    i * int64_t{1000000000} / rate);
      std::this_thread::sleep_until(due);
    }
    if (i == midpoint && metrics_mode == MetricsMode::kPretty) {
      PrintMetrics(engine, metrics_mode, "mid-run, live");
    }
    if (i == midpoint && explain_analyze) {
      PrintProfiles(engine, handles, explain_target, "mid-run, live");
    }
    if (top_every > 0 && i > 0 && i % top_every == 0) {
      // Force a sample so the dashboard is fresh even when the run is
      // shorter than the background sampling period.
      engine.monitor()->TickOnce();
      std::printf("\n--- top (tuple %lld/%lld) ---\n%s",
                  static_cast<long long>(i), static_cast<long long>(tuples),
                  engine.monitor()->TopString().c_str());
    }
  }
  engine.FinishAll();
  if (engine.query_server() != nullptr) {
    // Streaming clients drain the queued rows and then see a finished
    // trailer instead of long-polling an ended run.
    engine.query_server()->FinishSessions();
  }

  for (QueryHandle* q : handles) {
    std::printf("== %s\n", q->text().c_str());
    std::printf("rows: %zu\n", q->result_count());
    if (q->adaptive_shedding()) {
      std::printf("shed: %llu dropped, final drop rate %.4f\n",
                  static_cast<unsigned long long>(q->shed_dropped()),
                  q->shed_drop_rate());
    }
    int64_t shown = 0;
    for (const TupleRef& row : q->results()) {
      if (shown++ >= show_rows) {
        std::printf("  ... (%zu more)\n",
                    q->result_count() - static_cast<size_t>(show_rows));
        break;
      }
      std::printf("  %s\n", row->ToString().c_str());
    }
    std::printf("\n");
  }
  PrintMetrics(engine, metrics_mode, "final");
  if (explain_analyze) {
    PrintProfiles(engine, handles, explain_target, "final");
  }
  if (events_mode) PrintEvents(engine);
  if (top_mode) {
    engine.monitor()->TickOnce();
    std::printf("\n--- top (final) ---\n%s",
                engine.monitor()->TopString().c_str());
  }
  if (linger_s > 0) {
    std::printf("lingering %llds (scrape away)...\n",
                static_cast<long long>(linger_s));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_s));
  }
  return 0;
}
