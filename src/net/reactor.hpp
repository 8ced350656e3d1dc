// C10k serving door — an edge-triggered epoll reactor for sap::net.
//
// The hub transport (tcp_transport.hpp) is built for the exchange: k party
// connections, id-routed frames, one poll() pass over every fd per tick.
// That shape is exactly wrong for the serving phase, where the miner is a
// request/response server for an open-ended client population ("millions
// of users", ROADMAP): poll() scans all C connections to find the few ready
// ones, every frame crosses two thread hand-offs, and every response is its
// own write() syscall. So the hub does not serve; the reactor does:
//
//   * ONE acceptor thread drains accept() until EAGAIN and deals fds
//     round-robin to N sharded event loops.
//   * Each loop owns its connections exclusively — sockets, frame readers,
//     outbound queues and the timer wheel are touched only by the loop
//     thread, so the hot path takes no locks at all. Cross-thread traffic
//     (fresh fds from the acceptor, completions from compute) arrives
//     through DrainQueue inboxes (common/queue.hpp) + an eventfd wake.
//   * Sockets are registered edge-triggered (EPOLLIN|EPOLLOUT|EPOLLET);
//     reads drain until EAGAIN into the connection's incremental
//     FrameReader, so epoll_wait returns only genuinely-ready fds and the
//     cost per pass is O(ready), not O(connections).
//   * Decoded kData frames are handed to the compute side — a
//     sap::ThreadPool whose lanes drain a bounded WorkQueue — and the
//     handler's response frames come back pre-encoded through the owning
//     loop's completion inbox. A {slot, generation} ticket makes stale
//     completions for evicted/reused slots drop harmlessly.
//   * Responses queue per connection and flush with writev (many frames
//     per syscall); EPOLLOUT edges resume a flush the kernel buffer cut
//     short.
//   * A per-loop hashed timer wheel evicts idle and slow-loris
//     connections: any connection that neither completes a frame nor
//     accepts response bytes for idle_timeout_ms is closed (connections
//     with requests still in compute are spared).
//
// The reactor speaks the same wire protocol as the hub (Hello/Welcome
// claim, enveloped kData, kBye) so one client implementation works against
// both endpoints; client ids are auto-assigned from a high base so they
// can never collide with hub-side party ids. The k-party exchange stays on
// the hub — see DESIGN.md §10 for why.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/queue.hpp"
#include "common/thread_pool.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace sap::net {

struct ReactorOptions {
  SocketAddr listen{"127.0.0.1", 0};
  std::size_t loops = 2;            ///< sharded event loops (>= 1)
  std::size_t compute_threads = 2;  ///< handler lanes (0 = one inline lane)
  /// Evict a connection that makes no progress (no completed inbound frame,
  /// no accepted outbound byte) for this long while nothing is in compute.
  int idle_timeout_ms = 60'000;
  std::size_t max_connections = 16'000;  ///< accept cap (refused above)
  std::size_t compute_queue_cap = 4096;  ///< pending requests before shedding
  /// Optional metrics sink (non-owning; must outlive the reactor). When
  /// set, the reactor records latency histograms on its hot path:
  /// reactor.queue_wait_ms (frame parsed -> compute pickup),
  /// reactor.handler_ms (serving dispatch), reactor.writev_batch (frames
  /// per flush syscall). Scalar stats stay in stats() either way.
  obs::Registry* metrics = nullptr;
};

class Reactor {
 public:
  /// The serving logic: one inbound kData frame -> zero or more response
  /// frames (already addressed; the reactor encodes and flushes them).
  /// Runs on compute lanes, concurrently with itself — it must be
  /// thread-safe and must not throw (exceptions are contained and the
  /// request produces no response).
  using Handler = std::function<std::vector<Frame>(const Frame&)>;

  /// Binds the listen address and starts acceptor, loops, and compute
  /// lanes; serving begins immediately.
  Reactor(ReactorOptions opts, Handler handler);

  /// stop() + join everything.
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The bound address (ephemeral port resolved).
  [[nodiscard]] SocketAddr local_addr() const { return listener_addr_; }

  /// Shut down: stop accepting, drain compute, close every connection,
  /// join all threads. Idempotent; the first caller does the joining.
  void stop();

  struct Stats {
    std::size_t accepted = 0;      ///< connections accepted (incl. refused)
    std::size_t refused = 0;       ///< dropped at the max_connections cap
    std::size_t live = 0;          ///< currently-open connections
    std::size_t evicted_idle = 0;  ///< timer-wheel evictions (slow loris)
    std::size_t requests = 0;      ///< kData frames handed to compute
    std::size_t responses = 0;     ///< response frames flushed toward peers
    std::size_t shed = 0;          ///< requests refused: compute queue full
    std::size_t queue_depth = 0;   ///< requests waiting for a compute lane, now
    std::vector<std::size_t> loop_conns;  ///< connections dealt per loop
  };
  [[nodiscard]] Stats stats() const;

  /// Compute-pool execution totals (task latency / batch counters for the
  /// stats door; the pool runs one long-lived lane batch, so `busy_ns` is
  /// lane lifetime, not per-request latency — that lives in
  /// reactor.handler_ms).
  [[nodiscard]] ThreadPool::Stats compute_stats() const {
    return compute_pool_ ? compute_pool_->stats() : ThreadPool::Stats{};
  }

 private:
  struct Conn;
  struct Loop;
  struct Completion;

  /// One decoded request in flight to compute. {loop, slot, gen} is the
  /// ticket back to the owning connection; a mismatch on return means the
  /// connection died meanwhile and the completion is dropped.
  struct Work {
    std::uint32_t loop = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    Frame frame;
  };

  void acceptor_main();
  void loop_main(std::size_t loop_index);
  void compute_main();
  void wake(Loop& loop);

  void adopt_fresh(Loop& loop);
  void apply_completions(Loop& loop);
  void handle_readable(Loop& loop, std::uint32_t slot, std::vector<std::uint8_t>& rbuf);
  void on_frame(Loop& loop, std::uint32_t slot, Frame&& frame);
  void enqueue_bytes(Loop& loop, std::uint32_t slot, std::vector<std::uint8_t> bytes);
  void flush_conn(Loop& loop, std::uint32_t slot);
  void evict(Loop& loop, std::uint32_t slot, bool idle);
  void process_tick(Loop& loop);
  Conn* conn_at(Loop& loop, std::uint32_t slot, std::uint32_t gen);

  ReactorOptions opts_;
  Handler handler_;
  TcpListener listener_;
  SocketAddr listener_addr_;

  /// Cached hot-path histogram slots (null when opts_.metrics is null) —
  /// registration happens once in the constructor, never on the data path.
  obs::Histogram* hist_queue_wait_ = nullptr;
  obs::Histogram* hist_handler_ = nullptr;
  obs::Histogram* hist_writev_batch_ = nullptr;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint32_t> next_client_id_;
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> refused_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> evicted_idle_{0};
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> responses_{0};
  std::atomic<std::size_t> shed_{0};

  std::vector<std::unique_ptr<Loop>> loops_;
  WorkQueue<Work> work_q_;
  std::unique_ptr<ThreadPool> compute_pool_;
  std::thread compute_launcher_;
  std::thread acceptor_;
};

}  // namespace sap::net
