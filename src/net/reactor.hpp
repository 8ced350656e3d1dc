// A daemon's one door — an edge-triggered epoll reactor for sap::net.
//
// Every connection to a daemon lands here: the k parties' exchange links
// and an open-ended population of serving clients ("millions of users",
// ROADMAP) alike.
//
//   * ONE acceptor thread drains accept() until EAGAIN and deals fds
//     round-robin to N sharded event loops.
//   * Each loop owns its connections exclusively — sockets, frame readers,
//     outbound queues and the timer wheel are touched only by the loop
//     thread, so serving frames take no locks at all. Cross-thread traffic
//     (fresh fds from the acceptor, completions from compute, routed
//     frames from other loops) arrives through DrainQueue inboxes
//     (common/queue.hpp) + an eventfd wake.
//   * Sockets are registered edge-triggered (EPOLLIN|EPOLLOUT|EPOLLET);
//     reads drain until EAGAIN into the connection's incremental
//     FrameReader, so epoll_wait returns only genuinely-ready fds and the
//     cost per pass is O(ready), not O(connections).
//   * kData frames addressed to `self` (the id the handler answers for) go
//     to the compute side — a sap::ThreadPool whose lanes drain a bounded
//     WorkQueue — and the handler's response frames come back pre-encoded
//     through the owning loop's completion inbox. A {slot, generation}
//     ticket makes stale completions for evicted/reused slots drop
//     harmlessly.
//   * Routing: a Hello naming an id below kFirstClientId claims that party
//     id in one claim table. A kData frame for another claimed id is
//     encoded once and posted to the owner's loop inbox, so per-link FIFO
//     order holds across loops; a frame for an id nobody claimed yet is
//     parked (bounded) until the owner connects. The door opens nothing it
//     routes: it sees (from, to, kind, length, ciphertext).
//   * Responses queue per connection and flush with writev (many frames
//     per syscall); EPOLLOUT edges resume a flush the kernel buffer cut
//     short.
//   * A per-loop hashed timer wheel evicts idle and slow-loris
//     connections: any connection that neither completes a frame nor
//     accepts response bytes for idle_timeout_ms is closed. Connections
//     with requests still in compute are spared, and so are party links
//     while nothing is queued to them.
//
// "Any id" claims are auto-assigned from kFirstClientId up, lock-free, so
// a serving client can never take a party's id. DESIGN.md §10.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
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
  /// no accepted outbound byte) for this long while nothing is in compute
  /// (a party link: while something is queued to it).
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
  /// lanes; serving begins immediately. `self` is the id the handler
  /// answers for: kData frames addressed to it go to compute, frames for
  /// any other id are routed. It cannot be claimed.
  Reactor(ReactorOptions opts, proto::PartyId self, Handler handler);

  /// stop() + join everything.
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The bound address (ephemeral port resolved).
  [[nodiscard]] SocketAddr local_addr() const { return listener_addr_; }

  /// Shut down: stop accepting, drain compute, close every connection,
  /// join all threads. Idempotent; the first caller does the joining.
  void stop();

  /// Route a frame from the host to the party that claimed `frame.to`:
  /// parked while that id is unclaimed, dropped for a departed party or an
  /// unknown client id. Thread-safe.
  void send(const Frame& frame);

  /// Live connections holding a party id.
  [[nodiscard]] std::size_t parties() const {
    return parties_.load(std::memory_order_acquire);
  }

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
  /// Hello: auto-assign an id, or claim a party id and flush its parked
  /// frames right behind the Welcome.
  void on_hello(Loop& loop, std::uint32_t slot, std::uint32_t desired);
  /// Post `frame` to the loop of the connection that claimed `frame.to`.
  void route(const Frame& frame) SAP_EXCLUDES(claims_mutex_);
  /// Answer kError; the connection stays open (its framing is intact).
  void refuse(Loop& loop, std::uint32_t slot, const std::string& why);
  void enqueue_bytes(Loop& loop, std::uint32_t slot, std::vector<std::uint8_t> bytes);
  void flush_conn(Loop& loop, std::uint32_t slot);
  void evict(Loop& loop, std::uint32_t slot, bool idle);
  void process_tick(Loop& loop);
  Conn* conn_at(Loop& loop, std::uint32_t slot, std::uint32_t gen);

  ReactorOptions opts_;
  const proto::PartyId self_;
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
  std::atomic<std::size_t> parties_{0};

  /// Where a claimed party id lives. A departed party keeps its entry
  /// (live = false), so its id stays taken for the door's lifetime.
  struct Claim {
    std::uint32_t loop = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    bool live = true;
  };
  /// The claim table, shared by every loop and by send(). Serving frames
  /// (addressed to self_) never take this lock.
  Mutex claims_mutex_;
  std::map<std::uint32_t, Claim> claims_ SAP_GUARDED_BY(claims_mutex_);
  /// Encoded frames for party ids nobody has claimed yet, in arrival order.
  std::map<std::uint32_t, std::vector<std::vector<std::uint8_t>>> parked_
      SAP_GUARDED_BY(claims_mutex_);
  std::size_t parked_bytes_ SAP_GUARDED_BY(claims_mutex_) = 0;

  std::vector<std::unique_ptr<Loop>> loops_;
  WorkQueue<Work> work_q_;
  std::unique_ptr<ThreadPool> compute_pool_;
  std::thread compute_launcher_;
  std::thread acceptor_;
};

}  // namespace sap::net
