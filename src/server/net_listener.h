#ifndef SQP_SERVER_NET_LISTENER_H_
#define SQP_SERVER_NET_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sqp {
namespace server {

/// Tuning for one NetListener.
struct NetListenerOptions {
  /// listen(2) backlog: connections the kernel queues while we are busy.
  int backlog = 64;
  /// Per-connection socket timeouts (SO_RCVTIMEO / SO_SNDTIMEO), applied
  /// to every accepted fd before the handler sees it: a stalled or
  /// malicious peer can wedge one read/write for at most this long,
  /// never a thread forever. <= 0 leaves the socket blocking.
  int recv_timeout_ms = 5000;
  int send_timeout_ms = 5000;
  /// Each connection gets its own handler thread, at most this many live
  /// at once (must be positive); connections beyond the cap receive
  /// `overflow_response` (if non-empty) and are closed without ever
  /// reaching the handler.
  int max_concurrent = 128;
  /// Raw bytes (typically a pre-rendered HTTP 503) sent to a connection
  /// rejected by the cap. Empty = close silently.
  std::string overflow_response;
};

/// The TCP accept/dispatch loop under server::QueryServer: binds a port,
/// accepts connections on a background thread, applies per-connection
/// timeouts and the concurrency cap, and hands each accepted fd to the
/// handler on its own thread. The listener owns every fd it accepts —
/// handlers read and write but must NOT close; the fd is closed when its
/// thread is reaped, so Stop() can safely shutdown(2) in-flight
/// connections without racing an fd reuse.
class NetListener {
 public:
  using Handler = std::function<void(int fd)>;

  NetListener() = default;
  ~NetListener();

  NetListener(const NetListener&) = delete;
  NetListener& operator=(const NetListener&) = delete;

  /// Binds 0.0.0.0:`port` (0 = kernel-assigned ephemeral, see port())
  /// and starts the accept loop.
  Status Start(int port, Handler handler, NetListenerOptions options = {});

  /// Shuts down the listen socket and every in-flight connection, then
  /// joins the accept loop and all handler threads. Idempotent.
  void Stop();

  bool serving() const { return serving_.load(std::memory_order_acquire); }
  /// Bound port (0 resolved to the kernel's choice).
  int port() const { return port_; }

  /// Connections accepted and handed to the handler.
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections rejected by the max_concurrent cap.
  uint64_t overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }
  /// Handler threads currently live.
  int active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    std::thread thread;
    int fd = -1;
  };

  void AcceptLoop();
  /// Joins finished handler threads and closes their fds. Caller must
  /// hold mu_.
  void ReapLocked();

  Handler handler_;
  NetListenerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> serving_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> overflowed_{0};
  std::atomic<int> active_{0};
  std::thread accept_thread_;

  std::mutex mu_;                  // Guards conns_ / done_ids_.
  std::map<uint64_t, Conn> conns_; // Live + finished-but-unreaped.
  std::vector<uint64_t> done_ids_; // Finished handlers awaiting reap.
  uint64_t next_conn_id_ = 0;
};

}  // namespace server
}  // namespace sqp

#endif  // SQP_SERVER_NET_LISTENER_H_
