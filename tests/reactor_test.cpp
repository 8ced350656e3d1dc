// Reactor door tests — the epoll door every daemon runs (net/reactor.hpp):
//
//   * protocol surface: Hello/Welcome claims, echo round trips, pipelined
//     requests answered in order through the writev-batched flush;
//   * routing: party-id claims, frames parked for an unclaimed id and then
//     routed in order across loops, the claim rules, the parking bound, and
//     party links spared from idle eviction;
//   * sharding: accepted connections dealt round-robin across loops, every
//     shard serving;
//   * eviction: slow-loris half-frames and silent connections die on the
//     timer wheel, framing garbage dies immediately, kBye flushes first;
//   * churn: a thousand short-lived connections accepted, served, and
//     reclaimed (run under TSAN in CI — the cross-thread surface is small
//     and this leans on it);
//   * daemon integration: MinerDaemon's one door routes the exchange and
//     answers a party and a plain ServeClient BIT-IDENTICALLY to direct
//     in-process MiningEngine calls, before and after a contribution;
//   * FrameReader hygiene: buffer capacity stays flat across 10k frames.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/frame.hpp"
#include "net/reactor.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "protocol/party_logic.hpp"

namespace {

using sap::data::Dataset;
using sap::rng::Engine;
namespace net = sap::net;
namespace proto = sap::proto;
using Clock = std::chrono::steady_clock;

// ---- raw-socket client helpers -------------------------------------------

void send_frame(net::TcpSocket& sock, const net::Frame& frame) {
  std::vector<std::uint8_t> bytes;
  net::encode_frame(frame, bytes);
  sock.write_all(bytes.data(), bytes.size(), 5000);
}

net::Frame read_frame(net::TcpSocket& sock, net::FrameReader& reader,
                      int timeout_ms = 10000) {
  net::Frame frame;
  std::vector<std::uint8_t> buf(16u << 10);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!reader.next(frame)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    SAP_REQUIRE(left.count() > 0, "test client: timed out waiting for a frame");
    bool closed = false;
    const std::size_t got =
        sock.read_some(buf.data(), buf.size(), static_cast<int>(left.count()), closed);
    SAP_REQUIRE(got > 0 || !closed, "test client: peer closed the connection");
    if (got > 0) reader.feed(buf.data(), got);
  }
  return frame;
}

std::uint32_t say_hello(net::TcpSocket& sock, net::FrameReader& reader) {
  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.body = net::u32_body(net::kClaimAnyParty);
  send_frame(sock, hello);
  const auto welcome = read_frame(sock, reader);
  SAP_REQUIRE(welcome.type == net::FrameType::kWelcome,
              "test client: expected kWelcome");
  return net::body_u32(welcome.body);
}

/// Hello naming `desired`; returns the door's answer (kWelcome or kError).
net::Frame claim(net::TcpSocket& sock, net::FrameReader& reader, std::uint32_t desired) {
  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.body = net::u32_body(desired);
  send_frame(sock, hello);
  return read_frame(sock, reader);
}

/// A party-to-party frame whose body carries a sequence number. The door
/// never opens what it routes, so any body will do.
net::Frame routed(std::uint32_t from, std::uint32_t to, std::uint32_t seq) {
  net::Frame frame;
  frame.type = net::FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kPerturbedData);
  frame.from = from;
  frame.to = to;
  frame.body = net::u32_body(seq);
  return frame;
}

/// The sequence number of the next frame, which must be `from`'s routed frame.
std::uint32_t next_seq(net::TcpSocket& sock, net::FrameReader& reader, std::uint32_t from) {
  const auto frame = read_frame(sock, reader);
  SAP_REQUIRE(frame.type == net::FrameType::kData && frame.from == from,
              "test client: expected a routed data frame");
  return net::body_u32(frame.body);
}

/// Round trip to the door's own handler (the echo): every frame this
/// connection sent earlier has been routed or parked once it returns.
void sync_with_door(net::TcpSocket& sock, net::FrameReader& reader, std::uint32_t id,
                    std::uint32_t self) {
  send_frame(sock, routed(id, self, 0));
  const auto echo = read_frame(sock, reader);
  SAP_REQUIRE(echo.type == net::FrameType::kData && echo.from == self,
              "test client: expected the door's echo");
}

/// True when the peer closes within `timeout_ms` (no data expected).
bool wait_for_eof(net::TcpSocket& sock, int timeout_ms) {
  std::uint8_t buf[512];
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    bool closed = false;
    try {
      (void)sock.read_some(buf, sizeof buf, 50, closed);
    } catch (const sap::Error&) {
      return true;  // reset counts as closed
    }
    if (closed) return true;
  }
  return false;
}

/// Echo handler: every request comes straight back with from/to swapped.
net::Reactor::Handler echo_handler() {
  return [](const net::Frame& in) {
    net::Frame out = in;
    out.from = in.to;
    out.to = in.from;
    return std::vector<net::Frame>{out};
  };
}

bool stats_settle(const net::Reactor& reactor,
                  const std::function<bool(const net::Reactor::Stats&)>& done,
                  int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (done(reactor.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done(reactor.stats());
}

// ---- protocol surface ----------------------------------------------------

TEST(Reactor, EchoRoundTripAndLoopFairness) {
  net::ReactorOptions opts;
  opts.loops = 4;
  opts.compute_threads = 2;
  net::Reactor reactor(opts, /*self=*/0, echo_handler());
  const auto addr = reactor.local_addr();

  constexpr std::size_t kClients = 8;
  std::vector<net::TcpSocket> socks;
  std::vector<net::FrameReader> readers(kClients);
  std::set<std::uint32_t> ids;
  for (std::size_t c = 0; c < kClients; ++c) {
    socks.push_back(net::TcpSocket::connect(addr, 5000));
    const auto id = say_hello(socks[c], readers[c]);
    EXPECT_GE(id, net::kFirstClientId);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), kClients);  // ids never collide

  // Every connection is served, whatever loop owns it.
  for (std::size_t c = 0; c < kClients; ++c) {
    net::Frame req;
    req.type = net::FrameType::kData;
    req.payload_kind = 42;
    req.from = *std::next(ids.begin(), static_cast<std::ptrdiff_t>(c));
    req.to = 0;
    req.body = net::u32_body(static_cast<std::uint32_t>(c * 1000));
    send_frame(socks[c], req);
    const auto resp = read_frame(socks[c], readers[c]);
    ASSERT_EQ(resp.type, net::FrameType::kData);
    EXPECT_EQ(resp.payload_kind, 42);
    EXPECT_EQ(net::body_u32(resp.body), c * 1000);
  }

  // The acceptor deals strictly round-robin: 8 connections over 4 loops
  // land exactly 2 per shard.
  const auto stats = reactor.stats();
  EXPECT_EQ(stats.accepted, kClients);
  EXPECT_EQ(stats.live, kClients);
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.responses, kClients);
  ASSERT_EQ(stats.loop_conns.size(), 4u);
  for (const auto per_loop : stats.loop_conns) EXPECT_EQ(per_loop, 2u);
}

TEST(Reactor, PipelinedRequestsAnswerInOrder) {
  net::ReactorOptions opts;
  opts.loops = 1;
  opts.compute_threads = 1;  // one lane: completion order == request order
  net::Reactor reactor(opts, /*self=*/0, echo_handler());

  auto sock = net::TcpSocket::connect(reactor.local_addr(), 5000);
  net::FrameReader reader;
  const auto id = say_hello(sock, reader);

  // 100 requests in ONE write: the loop decodes them in a burst and the
  // responses ride back through the writev-batched flush.
  constexpr std::uint32_t kRequests = 100;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t seq = 0; seq < kRequests; ++seq) {
    net::Frame req;
    req.type = net::FrameType::kData;
    req.from = id;
    req.to = 0;
    req.body = net::u32_body(seq);
    net::encode_frame(req, burst);
  }
  sock.write_all(burst.data(), burst.size(), 5000);

  for (std::uint32_t seq = 0; seq < kRequests; ++seq) {
    const auto resp = read_frame(sock, reader);
    ASSERT_EQ(resp.type, net::FrameType::kData);
    EXPECT_EQ(net::body_u32(resp.body), seq) << "response out of order";
  }
  EXPECT_EQ(reactor.stats().responses, kRequests);
}

TEST(Reactor, ComputeSaturationShedsTypedAndServesSurvivorsIntact) {
  // One compute lane, queue cap 2. A handler that parks on the first
  // request makes saturation DETERMINISTIC: while it holds the lane, two
  // followers fit the queue and every later frame must shed.
  constexpr std::uint32_t kBlockMarker = 0xB10C;
  std::atomic<bool> entered{false};
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  net::ReactorOptions opts;
  opts.loops = 1;
  opts.compute_threads = 1;
  opts.compute_queue_cap = 2;
  net::Reactor reactor(opts, /*self=*/0, [&](const net::Frame& in) {
    if (net::body_u32(in.body) == kBlockMarker) {
      entered.store(true);
      released.wait();
    }
    net::Frame out = in;
    out.from = in.to;
    out.to = in.from;
    return std::vector<net::Frame>{out};
  });

  auto sock = net::TcpSocket::connect(reactor.local_addr(), 5000);
  net::FrameReader reader;
  const auto id = say_hello(sock, reader);

  net::Frame blocker;
  blocker.type = net::FrameType::kData;
  blocker.from = id;
  blocker.to = 0;
  blocker.body = net::u32_body(kBlockMarker);
  send_frame(sock, blocker);
  for (int i = 0; i < 1000 && !entered.load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(entered.load()) << "the blocking request never reached compute";

  // 8 pipelined requests against a held lane: 2 queue, 6 shed.
  constexpr std::uint32_t kFollowers = 8;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t seq = 0; seq < kFollowers; ++seq) {
    net::Frame req;
    req.type = net::FrameType::kData;
    req.from = id;
    req.to = 0;
    req.body = net::u32_body(seq);
    net::encode_frame(req, burst);
  }
  sock.write_all(burst.data(), burst.size(), 5000);

  // The shed refusals are TYPED and immediate — they flush while the lane
  // is still parked, one per frame that found the queue full.
  for (int i = 0; i < 6; ++i) {
    const auto refusal = read_frame(sock, reader);
    ASSERT_EQ(refusal.type, net::FrameType::kError);
    EXPECT_EQ(net::body_text(refusal.body), "server overloaded: request shed");
  }
  EXPECT_EQ(reactor.stats().shed, 6u);

  // Survivors are served INTACT once the lane frees: the blocker echoes
  // first, then the two queued followers in order, bit-identical.
  release.set_value();
  const auto first = read_frame(sock, reader);
  ASSERT_EQ(first.type, net::FrameType::kData);
  EXPECT_EQ(net::body_u32(first.body), kBlockMarker);
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    const auto resp = read_frame(sock, reader);
    ASSERT_EQ(resp.type, net::FrameType::kData);
    EXPECT_EQ(net::body_u32(resp.body), seq) << "surviving response corrupted";
  }
  EXPECT_EQ(reactor.stats().responses, 3u);
}

TEST(Reactor, DataBeforeHelloGetsErrorButKeepsConnection) {
  net::ReactorOptions opts;
  opts.loops = 1;
  net::Reactor reactor(opts, /*self=*/0, echo_handler());

  auto sock = net::TcpSocket::connect(reactor.local_addr(), 5000);
  net::FrameReader reader;
  net::Frame req;
  req.type = net::FrameType::kData;
  req.from = 7;
  req.body = net::u32_body(1);
  send_frame(sock, req);
  const auto err = read_frame(sock, reader);
  EXPECT_EQ(err.type, net::FrameType::kError);

  // Framing is intact, so the claim still works afterwards.
  const auto id = say_hello(sock, reader);
  EXPECT_GE(id, net::kFirstClientId);
  EXPECT_EQ(reactor.stats().requests, 0u);  // never reached compute
}

// ---- eviction ------------------------------------------------------------

TEST(Reactor, SlowLorisAndSilentConnectionsAreEvicted) {
  net::ReactorOptions opts;
  opts.loops = 2;
  opts.idle_timeout_ms = 150;
  net::Reactor reactor(opts, /*self=*/0, echo_handler());
  const auto addr = reactor.local_addr();

  // Silent: connects and never sends a byte.
  auto silent = net::TcpSocket::connect(addr, 5000);
  // Slow loris: a valid claim, then half a frame header, then nothing —
  // bytes that never complete a frame are not progress.
  auto loris = net::TcpSocket::connect(addr, 5000);
  net::FrameReader loris_reader;
  (void)say_hello(loris, loris_reader);
  std::vector<std::uint8_t> half;
  net::Frame probe;
  probe.type = net::FrameType::kData;
  net::encode_frame(probe, half);
  half.resize(8);  // magic + version + type + kind + reserved, no length/crc
  loris.write_all(half.data(), half.size(), 5000);

  EXPECT_TRUE(wait_for_eof(silent, 5000)) << "silent connection never evicted";
  EXPECT_TRUE(wait_for_eof(loris, 5000)) << "slow-loris connection never evicted";
  EXPECT_TRUE(stats_settle(
      reactor, [](const net::Reactor::Stats& s) { return s.evicted_idle >= 2; }, 2000));
  EXPECT_TRUE(stats_settle(
      reactor, [](const net::Reactor::Stats& s) { return s.live == 0; }, 2000));
}

TEST(Reactor, FramingGarbageDropsTheConnectionImmediately) {
  net::ReactorOptions opts;
  opts.loops = 1;
  opts.idle_timeout_ms = 60'000;  // eviction must NOT come from the wheel
  net::Reactor reactor(opts, /*self=*/0, echo_handler());

  auto sock = net::TcpSocket::connect(reactor.local_addr(), 5000);
  std::vector<std::uint8_t> garbage(64, 0xA5);  // wrong magic
  sock.write_all(garbage.data(), garbage.size(), 5000);
  EXPECT_TRUE(wait_for_eof(sock, 5000));
}

TEST(Reactor, ByeFlushesPendingResponsesThenCloses) {
  net::ReactorOptions opts;
  opts.loops = 1;
  opts.compute_threads = 1;
  net::Reactor reactor(opts, /*self=*/0, echo_handler());

  auto sock = net::TcpSocket::connect(reactor.local_addr(), 5000);
  net::FrameReader reader;
  const auto id = say_hello(sock, reader);

  // Request and goodbye in one burst: the response must still arrive
  // (closing waits for in-flight compute + queued bytes), then EOF.
  std::vector<std::uint8_t> burst;
  net::Frame req;
  req.type = net::FrameType::kData;
  req.from = id;
  req.body = net::u32_body(99);
  net::encode_frame(req, burst);
  net::Frame bye;
  bye.type = net::FrameType::kBye;
  bye.from = id;
  net::encode_frame(bye, burst);
  sock.write_all(burst.data(), burst.size(), 5000);

  const auto resp = read_frame(sock, reader);
  EXPECT_EQ(net::body_u32(resp.body), 99u);
  EXPECT_TRUE(wait_for_eof(sock, 5000));
  EXPECT_TRUE(stats_settle(
      reactor, [](const net::Reactor::Stats& s) { return s.live == 0; }, 2000));
}

// ---- churn ---------------------------------------------------------------

TEST(Reactor, ThousandConnectionChurnIsServedAndReclaimed) {
  net::ReactorOptions opts;
  opts.loops = 2;
  opts.compute_threads = 2;
  net::Reactor reactor(opts, /*self=*/0, echo_handler());
  const auto addr = reactor.local_addr();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 250;
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        auto sock = net::TcpSocket::connect(addr, 5000);
        net::FrameReader reader;
        const auto id = say_hello(sock, reader);
        net::Frame req;
        req.type = net::FrameType::kData;
        req.from = id;
        req.body = net::u32_body(static_cast<std::uint32_t>(t * kPerThread + i));
        send_frame(sock, req);
        const auto resp = read_frame(sock, reader);
        if (resp.type == net::FrameType::kData &&
            net::body_u32(resp.body) == t * kPerThread + i)
          served.fetch_add(1, std::memory_order_relaxed);
        // Plain close (no Bye): the loop sees EOF and reclaims the slot.
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(served.load(), kThreads * kPerThread);
  const auto stats = reactor.stats();
  EXPECT_EQ(stats.accepted, kThreads * kPerThread);
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.responses, kThreads * kPerThread);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_TRUE(stats_settle(
      reactor, [](const net::Reactor::Stats& s) { return s.live == 0; }, 10'000))
      << "closed connections were not reclaimed";
}

// ---- routing ---------------------------------------------------------------

TEST(ReactorRouting, ParkedThenRoutedFramesArriveInOrderAcrossLoops) {
  constexpr std::uint32_t kSelf = 9;
  net::ReactorOptions opts;
  opts.loops = 2;
  net::Reactor door(opts, kSelf, echo_handler());

  // A (loop 0) claims 0 and sends 50 frames to id 1 before B connects.
  auto a = net::TcpSocket::connect(door.local_addr(), 5000);
  net::FrameReader ra;
  ASSERT_EQ(claim(a, ra, 0).type, net::FrameType::kWelcome);
  for (std::uint32_t seq = 0; seq < 50; ++seq) send_frame(a, routed(0, 1, seq));
  sync_with_door(a, ra, 0, kSelf);

  // B (loop 1) claims 1: the Welcome, then the 50 parked frames in order.
  auto b = net::TcpSocket::connect(door.local_addr(), 5000);
  net::FrameReader rb;
  const auto welcome = claim(b, rb, 1);
  ASSERT_EQ(welcome.type, net::FrameType::kWelcome);
  EXPECT_EQ(net::body_u32(welcome.body), 1u);
  for (std::uint32_t seq = 0; seq < 50; ++seq) ASSERT_EQ(next_seq(b, rb, 0), seq);

  // 500 more, routed from loop 0 to loop 1 as they come.
  for (std::uint32_t seq = 50; seq < 550; ++seq) send_frame(a, routed(0, 1, seq));
  for (std::uint32_t seq = 50; seq < 550; ++seq) ASSERT_EQ(next_seq(b, rb, 0), seq);
  EXPECT_EQ(door.stats().loop_conns, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(door.parties(), 2u);
  EXPECT_EQ(door.stats().requests, 1u);  // only the sync echo reached compute
}

TEST(ReactorRouting, ClaimRulesRefuseAndKeepTheConnection) {
  constexpr std::uint32_t kSelf = 3;
  net::ReactorOptions opts;
  opts.loops = 2;
  net::Reactor door(opts, kSelf, echo_handler());
  const auto dial = [&] { return net::TcpSocket::connect(door.local_addr(), 5000); };

  auto a = dial();
  net::FrameReader ra;
  ASSERT_EQ(claim(a, ra, 0).type, net::FrameType::kWelcome);

  // A duplicate claim is refused, and the connection stays open: the same
  // connection then claims a free id.
  auto b = dial();
  net::FrameReader rb;
  EXPECT_EQ(claim(b, rb, 0).type, net::FrameType::kError);
  ASSERT_EQ(claim(b, rb, 1).type, net::FrameType::kWelcome);

  // The door's own id and the auto-assigned range cannot be claimed.
  auto c = dial();
  net::FrameReader rc;
  EXPECT_EQ(claim(c, rc, kSelf).type, net::FrameType::kError);
  EXPECT_EQ(claim(c, rc, net::kFirstClientId).type, net::FrameType::kError);
  EXPECT_EQ(claim(c, rc, net::kFirstClientId + 5).type, net::FrameType::kError);
  ASSERT_EQ(claim(c, rc, 2).type, net::FrameType::kWelcome);
  EXPECT_EQ(door.parties(), 3u);

  // A routed frame whose `from` is not the sender's id is refused and never
  // forwarded: B's honest frame behind it is the first thing C receives.
  send_frame(b, routed(0, 2, 77));
  EXPECT_EQ(read_frame(b, rb).type, net::FrameType::kError);
  send_frame(b, routed(1, 2, 78));
  EXPECT_EQ(next_seq(c, rc, 1), 78u);

  // After A leaves, id 0 stays taken and frames for it are dropped.
  a.close();
  ASSERT_TRUE(stats_settle(
      door, [&](const net::Reactor::Stats&) { return door.parties() == 2; }, 5000));
  auto d = dial();
  net::FrameReader rd;
  EXPECT_EQ(claim(d, rd, 0).type, net::FrameType::kError);
  send_frame(b, routed(1, 0, 79));
  send_frame(b, routed(1, 2, 80));
  EXPECT_EQ(next_seq(c, rc, 1), 80u);
  EXPECT_EQ(door.parties(), 2u);
}

TEST(ReactorRouting, ParkingIsBoundedPerParty) {
  constexpr std::uint32_t kSelf = 9;
  constexpr std::uint32_t kBound = 4096;
  net::ReactorOptions opts;
  opts.loops = 1;
  net::Reactor door(opts, kSelf, echo_handler());

  auto a = net::TcpSocket::connect(door.local_addr(), 5000);
  net::FrameReader ra;
  ASSERT_EQ(claim(a, ra, 0).type, net::FrameType::kWelcome);
  for (std::uint32_t seq = 0; seq < kBound + 8; ++seq) send_frame(a, routed(0, 1, seq));
  sync_with_door(a, ra, 0, kSelf);

  auto b = net::TcpSocket::connect(door.local_addr(), 5000);
  net::FrameReader rb;
  ASSERT_EQ(claim(b, rb, 1).type, net::FrameType::kWelcome);
  for (std::uint32_t seq = 0; seq < kBound; ++seq) ASSERT_EQ(next_seq(b, rb, 0), seq);
  // The 8 over the bound were dropped: the next frame is one sent after
  // the claim.
  send_frame(a, routed(0, 1, 999'999));
  EXPECT_EQ(next_seq(b, rb, 0), 999'999u);
}

TEST(ReactorRouting, PartyLinksAreSparedFromIdleEviction) {
  constexpr std::uint32_t kSelf = 9;
  net::ReactorOptions opts;
  opts.loops = 1;
  opts.idle_timeout_ms = 200;
  net::Reactor door(opts, kSelf, echo_handler());
  const auto dial = [&] { return net::TcpSocket::connect(door.local_addr(), 5000); };

  auto a = dial();
  net::FrameReader ra;
  ASSERT_EQ(claim(a, ra, 0).type, net::FrameType::kWelcome);
  auto b = dial();
  net::FrameReader rb;
  ASSERT_EQ(claim(b, rb, 1).type, net::FrameType::kWelcome);
  auto client = dial();
  net::FrameReader rclient;
  EXPECT_GE(say_hello(client, rclient), net::kFirstClientId);

  // Everyone idles for five timeouts: only the auto-id client is evicted.
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_TRUE(wait_for_eof(client, 2000)) << "the idle client was not evicted";
  EXPECT_TRUE(stats_settle(
      door, [](const net::Reactor::Stats& s) { return s.evicted_idle == 1; }, 2000));
  EXPECT_EQ(door.parties(), 2u);

  // Both party links still carry routed frames, from a peer and from the host.
  send_frame(b, routed(1, 0, 5));
  EXPECT_EQ(next_seq(a, ra, 1), 5u);
  door.send(routed(kSelf, 1, 6));
  EXPECT_EQ(next_seq(b, rb, kSelf), 6u);
  EXPECT_EQ(door.stats().evicted_idle, 1u);
}

// ---- daemon integration: one door, bit-identical to the engine -----------

TEST(ReactorDaemon, FrontDoorsServeBitIdenticalValues) {
  const std::size_t k = 3;
  const std::uint64_t seed = 4242;

  // Normalized Iris, sharded for the exchange + one held-back batch.
  const Dataset raw = sap::data::make_uci("Iris", seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  Engine shard_eng(seed ^ 0xBEEF);
  sap::data::PartitionOptions popts;
  const auto shards = sap::data::partition(pool.slice(0, 100), k, popts, shard_eng);
  const Dataset batch = pool.slice(100, 120);

  auto sap_opts = proto::SapOptions::fast();
  sap_opts.seed = seed;
  sap_opts.compute_satisfaction = false;

  net::MinerDaemonOptions daemon_opts;
  daemon_opts.listen = {"127.0.0.1", 0};
  daemon_opts.parties = k;
  daemon_opts.seed = seed;
  daemon_opts.reactor_loops = 2;
  daemon_opts.reactor_compute_threads = 2;
  net::MinerDaemon daemon(daemon_opts);
  const auto door_addr = daemon.local_addr();
  EXPECT_EQ(daemon.reactor_addr().to_string(), door_addr.to_string());
  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });

  // k parties exchange through the door; party 0 stays connected, mines
  // through it at both epochs, and holds the daemon open while the main
  // thread works the door with a ServeClient.
  std::promise<void> party_ready;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  proto::WireMiningResponse party_epoch1, party_epoch2;
  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < k; ++i) {
    parties.emplace_back([&, i] {
      net::PartyClientOptions party_opts;
      party_opts.connect = door_addr;
      party_opts.index = i;
      party_opts.parties = k;
      party_opts.sap = sap_opts;
      net::PartyClient party(shards[i], party_opts);
      (void)party.run_exchange();
      if (i == 0) {
        party_epoch1 = party.mine_named("nb-train-accuracy");
        party_ready.set_value();
        released.wait();
        party_epoch2 = party.mine_named("nb-train-accuracy");
      }
      party.finish();
    });
  }
  party_ready.get_future().wait();

  // Epoch 1 (the freshly unified pool): party == client == engine.
  const auto direct_epoch1 = daemon.engine().run({"nb-train-accuracy", {}});
  net::ServeClient door(door_addr, seed, k);
  EXPECT_GE(door.id(), net::kFirstClientId);
  const auto door_epoch1 = door.mine_named("nb-train-accuracy");
  EXPECT_EQ(door_epoch1.pool_epoch, 1u);
  EXPECT_EQ(door_epoch1.values, party_epoch1.values);
  EXPECT_EQ(door_epoch1.values, direct_epoch1.values);
  EXPECT_EQ(party_epoch1.pool_epoch, 1u);

  // An unknown job is a TYPED refusal — kServeError{kBadRequest}, raised
  // client-side as net::ServeError — not a disconnect, and not the old
  // silent empty-values response a client could not tell from a jobless
  // report. kBadRequest is definitive: a cluster router must not burn a
  // replica failover on it.
  try {
    (void)door.mine_named("no-such-job");
    ADD_FAILURE() << "expected net::ServeError for an unknown job";
  } catch (const net::ServeError& e) {
    EXPECT_EQ(e.code(), proto::ServeErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("no-such-job"), std::string::npos);
  }

  // Contribute with the ServeClient: replicate party 0's side of the math
  // (same derived engine, same LocalOptimize, perturb with its G_0) so the
  // wire is valid for the adaptor the exchange installed.
  const auto seeds = proto::logic::derive_session_seeds(seed, k);
  Engine party_eng = seeds.provider_eng[0];
  const auto x0 = shards[0].features_T();
  const auto local =
      proto::logic::optimize_local(x0, shards[0].dims(), sap_opts, party_eng);
  const auto y = local.g.apply(batch.features_T(), party_eng);
  const auto receipt =
      door.contribute_wire(proto::encode_contribution(local.nonce, y, batch.labels()));
  EXPECT_EQ(receipt.pool_epoch, 2u);
  EXPECT_EQ(receipt.pool_records, 100u + batch.size());

  // Epoch 2 (after the client's contribution): all three again.
  const auto direct_epoch2 = daemon.engine().run({"nb-train-accuracy", {}});
  const auto door_epoch2 = door.mine_named("nb-train-accuracy");
  EXPECT_EQ(door_epoch2.pool_epoch, 2u);
  EXPECT_EQ(door_epoch2.values, direct_epoch2.values);
  door.bye();

  release.set_value();
  for (auto& t : parties) t.join();
  EXPECT_EQ(party_epoch2.pool_epoch, 2u);
  EXPECT_EQ(party_epoch2.values, door_epoch2.values);

  const auto summary = daemon_future.get();
  EXPECT_EQ(summary.pool_epoch, 2u);
  EXPECT_EQ(summary.pool_records, 100u + batch.size());
  EXPECT_EQ(summary.contributions, 1u);        // the client's one
  EXPECT_EQ(summary.requests_served, 5u);      // 2 party + 3 client (one refused)
  const auto stats = daemon.reactor()->stats();
  // 3 forwarded shards + 3 adaptor sequences (the exchange's frames for the
  // miner) + party: 2 mines + client: mine, refused, contribute, mine = 12.
  EXPECT_EQ(stats.requests, 12u);
  // One connection per party (its serving rides the party link) + the client.
  EXPECT_EQ(stats.accepted, k + 1);
  EXPECT_EQ(stats.live, 0u);      // stop() closed everything
}

// ---- FrameReader buffer hygiene ------------------------------------------

TEST(FrameReaderHygiene, CapacityStaysFlatAcrossTenThousandFrames) {
  net::Frame frame;
  frame.type = net::FrameType::kData;
  frame.from = 1;
  frame.to = 2;
  frame.body.assign(2048, 0x5C);
  std::vector<std::uint8_t> wire;
  net::encode_frame(frame, wire);

  // Feed a long stream in fixed 777-byte slices so frame boundaries fall
  // mid-chunk — the worst case for a naive always-growing buffer.
  net::FrameReader reader;
  std::vector<std::uint8_t> staging;
  constexpr std::size_t kChunk = 777;
  constexpr std::size_t kFrames = 10'000;
  std::size_t decoded = 0;
  std::size_t settled_capacity = 0;
  for (std::size_t f = 0; f < kFrames; ++f) {
    staging.insert(staging.end(), wire.begin(), wire.end());
    while (staging.size() >= kChunk) {
      reader.feed(staging.data(), kChunk);
      staging.erase(staging.begin(), staging.begin() + kChunk);
      net::Frame out;
      while (reader.next(out)) {
        ++decoded;
        EXPECT_EQ(out.body.size(), frame.body.size());
      }
    }
    if (f == 1000) settled_capacity = reader.capacity();
    if (f > 1000) {
      ASSERT_EQ(reader.capacity(), settled_capacity) << "buffer grew at frame " << f;
    }
  }
  reader.feed(staging.data(), staging.size());
  net::Frame out;
  while (reader.next(out)) ++decoded;
  EXPECT_EQ(decoded, kFrames);
  EXPECT_LE(settled_capacity, (128u << 10) + 4096u);  // compaction bound holds
}

}  // namespace
