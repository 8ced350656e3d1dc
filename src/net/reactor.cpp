#include "net/reactor.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <deque>
#include <string>

#include "common/error.hpp"

namespace sap::net {
namespace {

using Clock = std::chrono::steady_clock;

/// epoll user-data tag reserved for the wake eventfd; connections use
/// (generation << 32) | slot, and slots never reach 2^32.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::size_t kWheelBuckets = 64;
/// Max frames gathered into one writev (IOV_MAX is >= 1024 everywhere; 64
/// already amortizes the syscall without big stack iovec arrays).
constexpr int kMaxIov = 64;
constexpr std::size_t kReadChunk = 64u << 10;
/// Accept cap: live connections beyond this are closed at accept.
constexpr std::size_t kMaxConnections = 16'000;
/// Frames parked for party ids nobody has claimed yet (parties that are
/// still connecting). Bounded by COUNT per id and by total BYTES across all
/// ids — parking is for setup races, not storage; beyond either cap frames
/// are dropped.
constexpr std::size_t kMaxParkedPerParty = 4096;
constexpr std::size_t kMaxParkedBytes = 64u << 20;

}  // namespace

/// Pre-encoded bytes riding to the owning loop. A compute completion is
/// posted even when empty: it is what decrements the connection's in-flight
/// count (and un-spares it from idle eviction). A routed frame is not a
/// response and leaves that count alone.
struct Reactor::Completion {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  std::size_t frames = 0;
  bool routed = false;
  std::vector<std::uint8_t> bytes;
};

/// One connection. Owned exclusively by its loop thread; compute refers to
/// it only through {slot, gen} tickets.
struct Reactor::Conn {
  TcpSocket sock;
  FrameReader reader;
  std::uint32_t gen = 0;
  std::uint32_t id = 0;
  bool hello_done = false;
  bool party = false;        ///< `id` is a claimed party id (in claims_)
  bool closing = false;      ///< kBye received: flush, then close
  std::size_t inflight = 0;  ///< requests currently in compute
  std::deque<std::vector<std::uint8_t>> outq;
  std::size_t outq_head = 0;   ///< bytes of outq.front() already written
  std::size_t outq_bytes = 0;  ///< total queued bytes (bounded)
  /// Last completed inbound frame or accepted outbound byte — the signal
  /// the timer wheel evicts on. A half-sent header or a drip-fed body
  /// never advances it, which is exactly the slow-loris definition.
  Clock::time_point last_progress;
};

/// One sharded event loop. Everything below the "loop-thread-owned" line is
/// touched only by loop_main's thread — the cross-thread surface is the two
/// internally-locked DrainQueues, the eventfd, and the stats atomic.
struct Reactor::Loop {
  std::size_t index = 0;
  int epfd = -1;
  int wakefd = -1;
  int tick_ms = 100;

  DrainQueue<TcpSocket> fresh;   ///< acceptor -> loop (new connections)
  DrainQueue<Completion> done;   ///< compute/routing -> loop (outbound bytes)
  std::atomic<std::size_t> assigned{0};

  // ---- loop-thread-owned ----
  std::vector<std::unique_ptr<Conn>> slots;
  std::vector<std::uint32_t> free_slots;
  std::uint32_t gen_counter = 0;
  struct WheelEntry {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  std::array<std::vector<WheelEntry>, kWheelBuckets> wheel;
  std::uint64_t tick = 0;

  std::thread thread;

  ~Loop() {
    if (epfd >= 0) ::close(epfd);
    if (wakefd >= 0) ::close(wakefd);
  }
};

Reactor::Reactor(ReactorOptions opts, proto::PartyId self, Handler handler)
    : opts_(std::move(opts)),
      self_(self),
      handler_(std::move(handler)),
      next_client_id_(kFirstClientId),
      work_q_(opts_.compute_queue_cap) {
  SAP_REQUIRE(handler_ != nullptr, "Reactor: null handler");
  SAP_REQUIRE(opts_.loops >= 1, "Reactor: need at least one event loop");
  SAP_REQUIRE(opts_.idle_timeout_ms > 0, "Reactor: idle timeout must be positive");
  SAP_REQUIRE(self_ < kFirstClientId, "Reactor: self must be a party-range id");
  if (opts_.metrics != nullptr) {
    // Register once, here: the record path must never take the registry
    // mutex (DESIGN.md §12).
    hist_queue_wait_ = &opts_.metrics->histogram("reactor.queue_wait_ms");
    hist_handler_ = &opts_.metrics->histogram("reactor.handler_ms");
    hist_writev_batch_ = &opts_.metrics->histogram("reactor.writev_batch");
  }
  listener_ = TcpListener::listen(opts_.listen);
  listener_addr_ = listener_.local_addr();

  for (std::size_t i = 0; i < opts_.loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->tick_ms = std::clamp(opts_.idle_timeout_ms / 16, 5, 1000);
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    SAP_REQUIRE(loop->epfd >= 0, "Reactor: epoll_create1 failed");
    loop->wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    SAP_REQUIRE(loop->wakefd >= 0, "Reactor: eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = kWakeTag;
    SAP_REQUIRE(::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakefd, &ev) == 0,
                "Reactor: cannot register the wake fd");
    loops_.push_back(std::move(loop));
  }

  // Threads last: everything they touch exists by now.
  for (std::size_t i = 0; i < loops_.size(); ++i)
    loops_[i]->thread = std::thread([this, i] { loop_main(i); });
  // Compute runs ON a sap::ThreadPool: one long-lived run_indexed batch
  // whose bodies drain the work queue until close() — the pool's barrier
  // becomes the compute-side join. Zero threads = one inline lane on the
  // launcher thread.
  const std::size_t lanes = std::max<std::size_t>(1, opts_.compute_threads);
  compute_pool_ = std::make_unique<ThreadPool>(opts_.compute_threads);
  compute_launcher_ = std::thread([this, lanes] {
    compute_pool_->run_indexed(lanes, [this](std::size_t) { compute_main(); });
  });
  acceptor_ = std::thread([this] { acceptor_main(); });
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  if (stopped_.exchange(true)) return;
  stop_.store(true, std::memory_order_release);
  // Order matters: close the work queue first so compute lanes drain and
  // post their last completions, THEN stop the loops (which apply or drop
  // them), then the acceptor (its poll tick notices stop_ within 100ms).
  work_q_.close();
  if (compute_launcher_.joinable()) compute_launcher_.join();
  for (auto& loop : loops_) wake(*loop);
  for (auto& loop : loops_)
    if (loop->thread.joinable()) loop->thread.join();
  if (acceptor_.joinable()) acceptor_.join();
  // Release the listening socket NOW, not at destruction: a stopped-but-
  // still-constructed reactor must refuse new connects immediately (clients
  // probing a downed cluster member need ECONNREFUSED to fail over fast,
  // not a handshake timeout against the kernel backlog).
  listener_ = TcpListener{};
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.live = live_.load(std::memory_order_relaxed);
  s.evicted_idle = evicted_idle_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.queue_depth = work_q_.size();
  for (const auto& loop : loops_)
    s.loop_conns.push_back(loop->assigned.load(std::memory_order_relaxed));
  return s;
}

void Reactor::send(const Frame& frame) {
  SAP_REQUIRE(frame.to != self_, "Reactor::send: the host does not route to itself");
  route(frame);
}

void Reactor::wake(Loop& loop) {
  const std::uint64_t one = 1;
  // EAGAIN (counter saturated) already guarantees a pending wake; short
  // writes cannot happen on an eventfd.
  (void)!::write(loop.wakefd, &one, sizeof one);
}

// ---- acceptor ------------------------------------------------------------

void Reactor::acceptor_main() {
  std::size_t next_loop = 0;
  try {
    while (!stop_.load(std::memory_order_acquire)) {
      if (!poll_fd(listener_.fd(), POLLIN, 100)) continue;
      // Drain the kernel queue to EAGAIN: a connection storm must not sit
      // in the backlog for one-accept-per-poll-tick.
      for (;;) {
        TcpSocket sock = listener_.accept(0);
        if (!sock.valid()) break;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        if (live_.load(std::memory_order_relaxed) >= kMaxConnections) {
          refused_.fetch_add(1, std::memory_order_relaxed);
          continue;  // dropped: the socket closes on scope exit
        }
        live_.fetch_add(1, std::memory_order_relaxed);
        Loop& loop = *loops_[next_loop];
        next_loop = (next_loop + 1) % loops_.size();
        if (loop.fresh.push(std::move(sock))) wake(loop);
      }
    }
  } catch (const Error&) {
    // Listener failure: stop accepting; existing connections keep serving.
  }
}

// ---- event loop ----------------------------------------------------------

Reactor::Conn* Reactor::conn_at(Loop& loop, std::uint32_t slot, std::uint32_t gen) {
  if (slot >= loop.slots.size()) return nullptr;
  Conn* conn = loop.slots[slot].get();
  return (conn != nullptr && conn->gen == gen) ? conn : nullptr;
}

void Reactor::loop_main(std::size_t loop_index) {
  Loop& loop = *loops_[loop_index];
  const auto tick = std::chrono::milliseconds(loop.tick_ms);
  auto next_tick = Clock::now() + tick;
  std::vector<epoll_event> events(512);
  std::vector<std::uint8_t> rbuf(kReadChunk);

  while (!stop_.load(std::memory_order_acquire)) {
    auto timeout = std::chrono::duration_cast<std::chrono::milliseconds>(
                       next_tick - Clock::now())
                       .count();
    const int wait_ms = static_cast<int>(std::clamp<decltype(timeout)>(
        timeout, 0, loop.tick_ms));
    const int n = ::epoll_wait(loop.epfd, events.data(),
                               static_cast<int>(events.size()), wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure: this shard shuts down
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t drained = 0;
        (void)!::read(loop.wakefd, &drained, sizeof drained);
        adopt_fresh(loop);
        apply_completions(loop);
        continue;
      }
      const auto slot = static_cast<std::uint32_t>(tag & 0xFFFFFFFFu);
      const auto gen = static_cast<std::uint32_t>(tag >> 32);
      if (conn_at(loop, slot, gen) == nullptr) continue;  // stale event
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        evict(loop, slot, /*idle=*/false);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush_conn(loop, slot);
      if (conn_at(loop, slot, gen) == nullptr) continue;  // flush evicted it
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) handle_readable(loop, slot, rbuf);
    }
    while (Clock::now() >= next_tick) {
      process_tick(loop);
      next_tick += tick;
    }
  }

  for (std::uint32_t slot = 0; slot < loop.slots.size(); ++slot)
    if (loop.slots[slot] != nullptr) evict(loop, slot, /*idle=*/false);
}

void Reactor::adopt_fresh(Loop& loop) {
  for (auto& sock : loop.fresh.drain()) {
    std::uint32_t slot = 0;
    if (!loop.free_slots.empty()) {
      slot = loop.free_slots.back();
      loop.free_slots.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(loop.slots.size());
      loop.slots.emplace_back();
    }
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    conn->gen = ++loop.gen_counter;
    conn->last_progress = Clock::now();
    epoll_event ev{};
    // Edge-triggered both ways; registration reports an initial edge for
    // data that raced in before the ADD, so nothing is missed.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = (static_cast<std::uint64_t>(conn->gen) << 32) | slot;
    if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
      loop.free_slots.push_back(slot);
      live_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t idle_ticks = std::min<std::uint64_t>(
        kWheelBuckets - 1,
        static_cast<std::uint64_t>(opts_.idle_timeout_ms) /
                static_cast<std::uint64_t>(loop.tick_ms) +
            1);
    loop.wheel[(loop.tick + idle_ticks) % kWheelBuckets].push_back({slot, conn->gen});
    loop.slots[slot] = std::move(conn);
    loop.assigned.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::apply_completions(Loop& loop) {
  for (auto& comp : loop.done.drain()) {
    Conn* conn = conn_at(loop, comp.slot, comp.gen);
    if (conn == nullptr) continue;  // connection died meanwhile
    if (!comp.routed) {
      conn->inflight -= 1;
      responses_.fetch_add(comp.frames, std::memory_order_relaxed);
    }
    if (!comp.bytes.empty()) {
      enqueue_bytes(loop, comp.slot, std::move(comp.bytes));
      conn = conn_at(loop, comp.slot, comp.gen);  // enqueue may evict
      if (conn == nullptr) continue;
    }
    if (conn->closing && conn->outq.empty() && conn->inflight == 0)
      evict(loop, comp.slot, /*idle=*/false);
  }
}

void Reactor::handle_readable(Loop& loop, std::uint32_t slot,
                              std::vector<std::uint8_t>& rbuf) {
  Conn* conn = loop.slots[slot].get();
  const std::uint32_t gen = conn->gen;
  for (;;) {
    bool closed = false;
    std::size_t got = 0;
    try {
      got = conn->sock.read_some(rbuf.data(), rbuf.size(), 0, closed);
    } catch (const Error&) {
      evict(loop, slot, /*idle=*/false);
      return;
    }
    if (got == 0) {
      if (closed) evict(loop, slot, /*idle=*/false);
      return;  // EAGAIN: drained (edge-triggered contract satisfied)
    }
    conn->reader.feed(rbuf.data(), got);
    try {
      Frame frame;
      while (conn->reader.next(frame)) {
        conn->last_progress = Clock::now();
        on_frame(loop, slot, std::move(frame));
        if (conn_at(loop, slot, gen) == nullptr) return;  // frame evicted it
      }
    } catch (const Error&) {
      // Malformed stream (bad magic, checksum, oversized body, bad control
      // payload): unrecoverable mid-stream, drop the connection.
      evict(loop, slot, /*idle=*/false);
      return;
    }
  }
}

void Reactor::on_frame(Loop& loop, std::uint32_t slot, Frame&& frame) {
  Conn& conn = *loop.slots[slot];
  switch (frame.type) {
    case FrameType::kHello: {
      // The body must parse (body_u32 throws -> caller evicts).
      const std::uint32_t desired = body_u32(frame.body);
      if (conn.hello_done) {
        SAP_FAIL("Reactor: duplicate Hello on one connection");
      }
      on_hello(loop, slot, desired);
      break;
    }
    case FrameType::kData: {
      if (!conn.hello_done || frame.from != conn.id) {
        // Anti-spoof, before any routing: answer kError, keep the
        // connection (the framing layer is still intact).
        refuse(loop, slot,
               conn.hello_done ? "data frame from an id this connection does not own"
                               : "data frame before Hello");
        break;
      }
      if (frame.to != self_) {
        route(frame);
        break;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      conn.inflight += 1;
      // Receive stamp: queue-wait (and the handler's kQueue trace stage)
      // measures from "frame fully parsed" to compute pickup.
      frame.recv_steady_ns = steady_now_ns();
      Work work;
      work.loop = static_cast<std::uint32_t>(loop.index);
      work.slot = slot;
      work.gen = conn.gen;
      work.frame = std::move(frame);
      if (!work_q_.try_push(work)) {
        // Compute is saturated: shed instead of blocking the whole shard
        // (one stalled loop would starve every connection it owns).
        conn.inflight -= 1;
        shed_.fetch_add(1, std::memory_order_relaxed);
        refuse(loop, slot, "server overloaded: request shed");
      }
      break;
    }
    case FrameType::kBye: {
      conn.closing = true;
      if (conn.outq.empty() && conn.inflight == 0) evict(loop, slot, /*idle=*/false);
      break;
    }
    case FrameType::kWelcome:
    case FrameType::kError:
      break;  // door-to-client frames from a client: nothing to do, ignore
  }
}

void Reactor::on_hello(Loop& loop, std::uint32_t slot, std::uint32_t desired) {
  Conn& conn = *loop.slots[slot];
  std::vector<std::vector<std::uint8_t>> parked;
  if (desired == kClaimAnyParty) {
    conn.id = next_client_id_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Auto-assigned ids come from a counter that never consults the claim
    // table, so the client range cannot be claimed; nor can the door's own
    // id.
    if (desired >= kFirstClientId || desired == self_) {
      refuse(loop, slot, "party id " + std::to_string(desired) + " cannot be claimed");
      return;
    }
    bool taken = false;
    {
      MutexLock lock(claims_mutex_);
      taken = !claims_
                   .try_emplace(desired,
                                Claim{static_cast<std::uint32_t>(loop.index), slot, conn.gen})
                   .second;
      if (const auto it = parked_.find(desired); !taken && it != parked_.end()) {
        for (const auto& bytes : it->second) parked_bytes_ -= bytes.size();
        parked = std::move(it->second);
        parked_.erase(it);
      }
    }
    if (taken) {
      refuse(loop, slot, "party id " + std::to_string(desired) + " already claimed");
      return;
    }
    conn.id = desired;
    conn.party = true;
    parties_.fetch_add(1, std::memory_order_acq_rel);
  }
  conn.hello_done = true;
  // Welcome first, then the parked frames in arrival order. Frames routed
  // after the claim registered reach this loop's inbox, which is drained
  // only after this returns, so per-link order holds.
  Frame welcome;
  welcome.type = FrameType::kWelcome;
  welcome.body = u32_body(conn.id);
  std::vector<std::uint8_t> bytes;
  encode_frame(welcome, bytes);
  for (const auto& frame : parked) bytes.insert(bytes.end(), frame.begin(), frame.end());
  enqueue_bytes(loop, slot, std::move(bytes));
}

void Reactor::route(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  Claim owner;
  {
    MutexLock lock(claims_mutex_);
    const auto it = claims_.find(frame.to);
    if (it == claims_.end()) {
      if (frame.to >= kFirstClientId) return;  // an unknown client id: dropped
      auto& parked = parked_[frame.to];
      if (parked.size() < kMaxParkedPerParty &&
          parked_bytes_ + bytes.size() <= kMaxParkedBytes) {
        parked_bytes_ += bytes.size();
        parked.push_back(std::move(bytes));
      }
      return;
    }
    if (!it->second.live) return;  // a departed party: dropped
    owner = it->second;
  }
  Completion comp;
  comp.slot = owner.slot;
  comp.gen = owner.gen;
  comp.routed = true;
  comp.bytes = std::move(bytes);
  Loop& target = *loops_[owner.loop];
  if (target.done.push(std::move(comp))) wake(target);
}

void Reactor::refuse(Loop& loop, std::uint32_t slot, const std::string& why) {
  Frame err;
  err.type = FrameType::kError;
  err.to = loop.slots[slot]->id;
  err.body = text_body(why);
  std::vector<std::uint8_t> bytes;
  encode_frame(err, bytes);
  enqueue_bytes(loop, slot, std::move(bytes));
}

void Reactor::enqueue_bytes(Loop& loop, std::uint32_t slot,
                            std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return;
  Conn& conn = *loop.slots[slot];
  if (conn.outq_bytes + bytes.size() > kMaxOutqBytes) {
    // The peer requests (or is sent) faster than it reads: drop the
    // connection, not the process.
    evict(loop, slot, /*idle=*/false);
    return;
  }
  // An idle party link's stall clock starts when something is queued to it.
  if (conn.party && conn.outq.empty()) conn.last_progress = Clock::now();
  conn.outq_bytes += bytes.size();
  conn.outq.push_back(std::move(bytes));
  flush_conn(loop, slot);
}

void Reactor::flush_conn(Loop& loop, std::uint32_t slot) {
  Conn& conn = *loop.slots[slot];
  try {
    while (!conn.outq.empty()) {
      // Gather up to kMaxIov queued frames into one writev: under load many
      // responses ride one syscall instead of one write() each.
      std::array<struct iovec, kMaxIov> iov;
      int iovcnt = 0;
      std::size_t head = conn.outq_head;
      for (auto it = conn.outq.begin(); it != conn.outq.end() && iovcnt < kMaxIov;
           ++it) {
        iov[static_cast<std::size_t>(iovcnt)].iov_base = it->data() + head;
        iov[static_cast<std::size_t>(iovcnt)].iov_len = it->size() - head;
        head = 0;
        ++iovcnt;
      }
      const std::size_t wrote = conn.sock.writev_some(iov.data(), iovcnt);
      if (wrote == 0) return;  // kernel buffer full: the EPOLLOUT edge resumes
      if (hist_writev_batch_ != nullptr) hist_writev_batch_->record(iovcnt);
      conn.outq_bytes -= wrote;
      conn.last_progress = Clock::now();
      std::size_t left = wrote;
      while (left > 0) {
        const std::size_t avail = conn.outq.front().size() - conn.outq_head;
        if (left >= avail) {
          left -= avail;
          conn.outq.pop_front();
          conn.outq_head = 0;
        } else {
          conn.outq_head += left;
          left = 0;
        }
      }
    }
    if (conn.closing && conn.inflight == 0) evict(loop, slot, /*idle=*/false);
  } catch (const Error&) {
    evict(loop, slot, /*idle=*/false);
  }
}

void Reactor::evict(Loop& loop, std::uint32_t slot, bool idle) {
  if (slot >= loop.slots.size() || loop.slots[slot] == nullptr) return;
  if (const Conn& conn = *loop.slots[slot]; conn.party) {
    // The id stays taken: frames for it are dropped from now on.
    MutexLock lock(claims_mutex_);
    claims_.at(conn.id).live = false;
    parties_.fetch_sub(1, std::memory_order_acq_rel);
  }
  // Closing the fd deregisters it from epoll; wheel entries and in-flight
  // completions for this slot die on their generation check.
  loop.slots[slot].reset();
  loop.free_slots.push_back(slot);
  live_.fetch_sub(1, std::memory_order_relaxed);
  if (idle) evicted_idle_.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::process_tick(Loop& loop) {
  loop.tick += 1;
  auto& bucket = loop.wheel[loop.tick % kWheelBuckets];
  if (bucket.empty()) return;
  std::vector<Loop::WheelEntry> entries;
  entries.swap(bucket);
  const auto now = Clock::now();
  const auto idle = std::chrono::milliseconds(opts_.idle_timeout_ms);
  for (const auto& entry : entries) {
    Conn* conn = conn_at(loop, entry.slot, entry.gen);
    if (conn == nullptr) continue;  // already gone: stale wheel entry
    const auto deadline = conn->last_progress + idle;
    // Connections with work in compute are spared: a long mining job is
    // not a dead peer. So is a party link with nothing queued to it — a
    // party may hold its link for the whole serving lifetime. Spared
    // connections re-arm and get re-checked next round.
    const bool spared = conn->inflight > 0 || (conn->party && conn->outq.empty());
    if (now >= deadline && !spared) {
      evict(loop, entry.slot, /*idle=*/true);
      continue;
    }
    std::uint64_t ahead = 1;
    if (deadline > now) {
      const auto left_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - now)
                               .count();
      ahead = static_cast<std::uint64_t>(left_ms) /
                  static_cast<std::uint64_t>(loop.tick_ms) +
              1;
    }
    if (ahead >= kWheelBuckets) ahead = kWheelBuckets - 1;
    loop.wheel[(loop.tick + ahead) % kWheelBuckets].push_back(entry);
  }
}

// ---- compute lanes -------------------------------------------------------

void Reactor::compute_main() {
  Work work;
  while (work_q_.pop(work)) {
    Completion comp;
    comp.slot = work.slot;
    comp.gen = work.gen;
    const std::uint64_t picked_ns = steady_now_ns();
    if (hist_queue_wait_ != nullptr && work.frame.recv_steady_ns != 0)
      hist_queue_wait_->record(static_cast<double>(picked_ns - work.frame.recv_steady_ns) /
                               1e6);
    std::vector<Frame> out;
    try {
      out = handler_(work.frame);
    } catch (...) {
      // Handler contract says "don't throw"; contain anyway — one bad
      // request must not kill a compute lane.
    }
    if (hist_handler_ != nullptr)
      hist_handler_->record(static_cast<double>(steady_now_ns() - picked_ns) / 1e6);
    comp.frames = out.size();
    for (const Frame& frame : out) encode_frame(frame, comp.bytes);
    Loop& loop = *loops_[work.loop];
    if (loop.done.push(std::move(comp))) wake(loop);
  }
}

}  // namespace sap::net
