// socket_throughput — the C10k serving door, measured.
//
// One MinerDaemon serves a cached mining job through its serving door, the
// epoll reactor (net/reactor.hpp: sharded edge-triggered loops,
// writev-batched responses). A driver child process connects C clients,
// keeps a small active subset pipelining requests while the rest sit
// connected — the C10k shape, where almost every connection is idle at any
// instant — and reports completed requests, wall time, p50/p95/p99 latency
// and an FNV-1a digest of every served value. Emits
// BENCH_socket_throughput.json.
//
// The driver runs in a CHILD process (re-exec of this binary with
// --drive) so the client file descriptors live in their own fd table:
// at the 10k soak the daemon side alone holds ~10k fds, and parent +
// child each stay under the usual per-process limits.
//
// Enforced by exit code, not prose:
//   * every client is welcomed and every request completes, with zero
//     errors, at every scale;
//   * bit-identity: every served value digest (every scale, plus one
//     trainable-job round trip) equals the direct MiningEngine reference —
//     if the door changes results, the bench fails;
//   * soak (--full): 10000 clients all connect and are served with zero
//     errors.
//
//   socket_throughput [--quick] [--full] [--requests N]
//   socket_throughput --drive <host:port> <seed> <parties> <conns> <requests> <active>
#include <poll.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/remote.hpp"
#include "protocol/party_logic.hpp"

namespace {

using sap::Table;
using sap::data::Dataset;
namespace net = sap::net;
namespace proto = sap::proto;

/// The hammered job is structural and O(1) — door cost (wake, decode,
/// flush) must dominate the measurement, not model fitting. A full
/// trainable job round trip is still compared bit-for-bit below.
constexpr const char* kJob = "record-count";
constexpr const char* kTrainableJob = "nb-train-accuracy";
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t fnv_values(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    h = fnv_bytes(h, &bits, sizeof bits);
  }
  return h;
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- driver child (--drive) ----------------------------------------------
//
// Protocol per connection: Hello(kClaimAnyParty) -> Welcome(id), then the
// first `active` connections pipeline kMiningRequest frames (one
// outstanding each) while the remainder stay connected and silent.

struct DriveResult {
  std::size_t conns = 0;
  std::size_t welcomed = 0;
  std::size_t completed = 0;
  std::int64_t elapsed_us = 0;
  std::int64_t p50_us = 0;
  std::int64_t p95_us = 0;
  std::int64_t p99_us = 0;
  std::size_t errors = 0;
  std::uint64_t digest = kFnvOffset;
};

int drive_main(int argc, char** argv) {
  if (argc != 8) {
    std::fprintf(stderr, "drive: expected <addr> <seed> <parties> <conns> <requests> <active>\n");
    return 2;
  }
  const net::SocketAddr addr = net::SocketAddr::parse(argv[2]);
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const std::size_t parties = std::strtoull(argv[4], nullptr, 10);
  const std::size_t conns = std::strtoull(argv[5], nullptr, 10);
  const std::size_t requests = std::strtoull(argv[6], nullptr, 10);
  const std::size_t active =
      std::min(static_cast<std::size_t>(std::strtoull(argv[7], nullptr, 10)), conns);

  const std::uint64_t secret = proto::logic::derive_session_seeds(seed, parties).session_secret;
  const auto miner = static_cast<proto::PartyId>(parties);
  DriveResult r;
  r.conns = conns;

  // Connect + Hello everyone (pipelined: all Hellos in flight before the
  // first Welcome is read back).
  std::vector<net::TcpSocket> socks;
  std::vector<net::FrameReader> readers;
  socks.reserve(conns);
  readers.reserve(conns);
  std::vector<std::uint8_t> hello_bytes;
  {
    net::Frame hello;
    hello.type = net::FrameType::kHello;
    hello.to = miner;
    hello.body = net::u32_body(net::kClaimAnyParty);
    encode_frame(hello, hello_bytes);
  }
  for (std::size_t c = 0; c < conns; ++c) {
    socks.push_back(net::TcpSocket::connect(addr, 15'000));
    readers.emplace_back(net::kDefaultMaxBody);
    socks.back().write_all(hello_bytes.data(), hello_bytes.size(), 15'000);
  }

  std::vector<proto::PartyId> ids(conns, 0);
  std::vector<std::uint8_t> rbuf(64u << 10);
  const auto read_frame = [&](std::size_t c, net::Frame& out) -> bool {
    const std::int64_t deadline = now_us() + 15'000'000;
    while (!readers[c].next(out)) {
      if (now_us() > deadline) return false;
      bool closed = false;
      const std::size_t got = socks[c].read_some(rbuf.data(), rbuf.size(), 1'000, closed);
      if (got > 0) readers[c].feed(rbuf.data(), got);
      if (closed && got == 0) return false;
    }
    return true;
  };
  for (std::size_t c = 0; c < conns; ++c) {
    net::Frame welcome;
    if (!read_frame(c, welcome) || welcome.type != net::FrameType::kWelcome) {
      ++r.errors;
      continue;
    }
    ids[c] = net::body_u32(welcome.body);
    ++r.welcomed;
  }
  if (r.welcomed < conns) {
    std::fprintf(stderr, "drive: only %zu/%zu connections welcomed\n", r.welcomed, conns);
  }

  // Pre-encode each active connection's request once (the envelope key is
  // per-link, so the bytes differ per id but are reused for every send).
  const std::vector<double> payload = proto::encode_mining_request(kJob, {});
  std::vector<std::vector<std::uint8_t>> req_bytes(active);
  for (std::size_t c = 0; c < active; ++c) {
    net::Frame req;
    req.type = net::FrameType::kData;
    req.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kMiningRequest);
    req.from = ids[c];
    req.to = miner;
    req.body = net::envelope_body(proto::EncryptedEnvelope(
        payload, proto::detail::derive_link_key(secret, ids[c], miner)));
    encode_frame(req, req_bytes[c]);
  }

  // One response on a connection with an outstanding request: stamp the
  // latency FIRST (decrypt/digest cost is the client's, not the server's),
  // then fold the served values into the digest.
  std::vector<std::int64_t> sent_at(active, 0);
  std::vector<std::int64_t> latencies;
  latencies.reserve(requests);
  const auto on_response = [&](std::size_t c, const net::FrameView& fv) {
    latencies.push_back(now_us() - sent_at[c]);
    ++r.completed;
    if (fv.type != net::FrameType::kData ||
        fv.payload_kind != static_cast<std::uint8_t>(proto::PayloadKind::kMiningResponse)) {
      ++r.errors;
      return;
    }
    const std::vector<double> wire = net::body_envelope(fv.body).open(
        proto::detail::derive_link_key(secret, miner, ids[c]));
    r.digest = fnv_values(r.digest, wire);
  };

  // Warmup round (untimed): one request per active connection proves the
  // path end to end before the clock starts.
  for (std::size_t c = 0; c < active; ++c) {
    socks[c].write_all(req_bytes[c].data(), req_bytes[c].size(), 15'000);
    sent_at[c] = now_us();
    net::Frame resp;
    if (!read_frame(c, resp)) {
      std::fprintf(stderr, "drive: warmup response missing on conn %zu\n", c);
      return 1;
    }
  }

  // Timed phase: every active connection keeps exactly one request
  // outstanding; poll() here is over the ACTIVE set only — the point of the
  // benchmark is what the SERVER does about the idle majority.
  std::vector<pollfd> pfds(active);
  for (std::size_t c = 0; c < active; ++c) {
    pfds[c] = {socks[c].fd(), POLLIN, 0};
  }
  std::size_t sent = 0;
  const std::int64_t t0 = now_us();
  for (std::size_t c = 0; c < active && sent < requests; ++c) {
    socks[c].write_all(req_bytes[c].data(), req_bytes[c].size(), 15'000);
    sent_at[c] = now_us();
    ++sent;
  }
  while (r.completed < requests) {
    const int rc = ::poll(pfds.data(), active, 15'000);
    if (rc <= 0) {
      std::fprintf(stderr, "drive: stalled at %zu/%zu responses\n", r.completed, requests);
      return 1;
    }
    for (std::size_t c = 0; c < active; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool closed = false;
      for (;;) {
        const std::size_t got = socks[c].read_some(rbuf.data(), rbuf.size(), 0, closed);
        if (got == 0) break;
        readers[c].feed(rbuf.data(), got);
      }
      net::FrameView fv;
      while (readers[c].next_view(fv)) {
        on_response(c, fv);
        if (sent < requests) {
          socks[c].write_all(req_bytes[c].data(), req_bytes[c].size(), 15'000);
          sent_at[c] = now_us();
          ++sent;
        } else {
          pfds[c].fd = -1;  // drained; stop polling this connection
        }
      }
      if (closed && r.completed < requests) {
        std::fprintf(stderr, "drive: conn %zu closed mid-run\n", c);
        return 1;
      }
    }
  }
  r.elapsed_us = now_us() - t0;

  // Same log-linear histogram the daemons export over the stats door, so
  // the reported percentiles line up with live `sap_cli stats` quantiles.
  std::vector<double> lat_us(latencies.begin(), latencies.end());
  const auto summary = sap::bench::summarize_latency(lat_us);
  r.p50_us = static_cast<std::int64_t>(summary.p50);
  r.p95_us = static_cast<std::int64_t>(summary.p95);
  r.p99_us = static_cast<std::int64_t>(summary.p99);
  std::printf("RESULT conns=%zu welcomed=%zu completed=%zu elapsed_us=%lld p50_us=%lld "
              "p95_us=%lld p99_us=%lld errors=%zu digest=%llu\n",
              r.conns, r.welcomed, r.completed, static_cast<long long>(r.elapsed_us),
              static_cast<long long>(r.p50_us), static_cast<long long>(r.p95_us),
              static_cast<long long>(r.p99_us), r.errors,
              static_cast<unsigned long long>(r.digest));
  return 0;
}

// ---- parent orchestration ------------------------------------------------

/// Run the driver child against `addr` and parse its RESULT line. popen
/// (not an in-process thread) keeps the client fd population in a separate
/// process fd table from the daemon's server-side fds.
DriveResult run_driver(const std::string& self, const net::SocketAddr& addr,
                       std::uint64_t seed, std::size_t parties, std::size_t conns,
                       std::size_t requests, std::size_t active) {
  char cmd[512];
  std::snprintf(cmd, sizeof cmd, "'%s' --drive %s %llu %zu %zu %zu %zu", self.c_str(),
                addr.to_string().c_str(), static_cast<unsigned long long>(seed), parties,
                conns, requests, active);
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "FAIL: cannot spawn driver: %s\n", cmd);
    std::exit(1);
  }
  DriveResult r;
  bool got_result = false;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    long long elapsed = 0, p50 = 0, p95 = 0, p99 = 0;
    unsigned long long digest = 0;
    if (std::sscanf(line,
                    "RESULT conns=%zu welcomed=%zu completed=%zu elapsed_us=%lld "
                    "p50_us=%lld p95_us=%lld p99_us=%lld errors=%zu digest=%llu",
                    &r.conns, &r.welcomed, &r.completed, &elapsed, &p50, &p95, &p99,
                    &r.errors, &digest) == 9) {
      r.elapsed_us = elapsed;
      r.p50_us = p50;
      r.p95_us = p95;
      r.p99_us = p99;
      r.digest = digest;
      got_result = true;
    }
  }
  const int status = ::pclose(pipe);
  if (!got_result || status != 0) {
    std::fprintf(stderr, "FAIL: driver run did not complete (%s)\n", cmd);
    std::exit(1);
  }
  return r;
}

struct Run {
  std::size_t conns = 0;
  DriveResult result;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--drive") == 0) return drive_main(argc, argv);

  std::size_t requests = 6000;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      requests = 2500;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: socket_throughput [--quick] [--full] [--requests N]\n");
      return 2;
    }
  }
  const std::size_t parties = 3;
  const std::uint64_t seed = 20260808;
  const std::size_t active = 4;
  const std::size_t soak_conns = 10'000, soak_requests = 10'000;

  // One daemon serves every run: exchange once through its door, then the
  // k party connections stay open (the daemon exits when they drop) while
  // driver children hammer the same door. Small pool on purpose: the
  // serving cost per request must be modest so the bench measures the DOOR
  // (wake/decode/flush per request), not the mining job itself.
  const Dataset base = sap::bench::normalized_uci("Diabetes", seed).slice(0, 210);
  sap::rng::Engine part_eng(seed ^ 0x50C4);
  auto shards = sap::data::partition(base, parties, {}, part_eng);
  auto sap_opts = sap::bench::bench_sap_options();
  sap_opts.seed = seed;

  net::MinerDaemonOptions daemon_opts;
  daemon_opts.listen = {"127.0.0.1", 0};
  daemon_opts.parties = parties;
  daemon_opts.seed = seed;
  daemon_opts.reactor_loops = 2;
  daemon_opts.reactor_compute_threads = 1;
  daemon_opts.reactor_idle_timeout_ms = 300'000;  // idle conns ARE the workload
  net::MinerDaemon daemon(daemon_opts);
  const auto door_addr = daemon.local_addr();
  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });

  std::promise<void> serving_promise;
  auto serving = serving_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::vector<std::thread> party_threads;
  for (std::size_t i = 0; i < parties; ++i) {
    party_threads.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = door_addr;
      popts.index = i;
      popts.parties = parties;
      popts.sap = sap_opts;
      net::PartyClient client(shards[i], popts);
      (void)client.run_exchange();
      if (i == 0) {
        // Blocks until the daemon installed the pool and serves — from here
        // on the door answers, and the model cache is warm.
        (void)client.mine_named(kJob);
        serving_promise.set_value();
      }
      release.wait();
      client.finish();
    });
  }
  serving.wait();

  // Direct-engine reference: the digest every door run must reproduce.
  const std::vector<double> direct =
      proto::encode_mining_response(
          [&] {
            const auto resp = daemon.engine().run({kJob, {}});
            proto::WireMiningResponse wire;
            wire.values = resp.values;
            wire.model_cached = resp.model_cached;
            wire.model_incremental = resp.model_incremental;
            wire.pool_epoch = resp.pool_epoch;
            return wire;
          }());
  const auto expected_digest = [&](std::size_t n) {
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) h = fnv_values(h, direct);
    return h;
  };

  // Trainable-job bit-identity, one full round trip: the served
  // nb-train-accuracy report must equal the direct engine's bit for bit.
  const std::vector<double> direct_nb = daemon.engine().run({kTrainableJob, {}}).values;
  bool nb_identical = true;
  {
    net::ServeClient probe(daemon.reactor_addr(), seed, parties);
    const auto served = probe.mine_named(kTrainableJob);
    if (fnv_values(kFnvOffset, served.values) != fnv_values(kFnvOffset, direct_nb)) {
      std::fprintf(stderr, "FAIL: %s differs from the direct engine\n", kTrainableJob);
      nb_identical = false;
    }
    probe.bye();
  }

  const std::string self = argv[0];
  std::vector<Run> runs;
  std::vector<std::size_t> scales{100, 1000};
  if (full) scales.push_back(soak_conns);
  for (const std::size_t conns : scales) {
    runs.push_back({conns, run_driver(self, daemon.reactor_addr(), seed, parties, conns,
                                      conns == soak_conns ? soak_requests : requests,
                                      active)});
  }
  release_promise.set_value();
  for (auto& t : party_threads) t.join();
  const auto summary = daemon_future.get();
  (void)summary;

  const auto req_per_sec = [](const DriveResult& r) {
    return static_cast<double>(r.completed) * 1e6 / static_cast<double>(r.elapsed_us);
  };
  Table table({"clients", "active", "requests", "req/s", "p50 us", "p95 us", "p99 us",
               "errors"});
  for (const Run& run : runs) {
    table.add_row({std::to_string(run.conns), std::to_string(active),
                   std::to_string(run.result.completed), Table::num(req_per_sec(run.result), 1),
                   std::to_string(run.result.p50_us), std::to_string(run.result.p95_us),
                   std::to_string(run.result.p99_us), std::to_string(run.result.errors)});
  }
  sap::bench::emit_table("socket_throughput", table,
                         {.transport = "epoll-reactor", .threads = daemon_opts.reactor_loops});

  // ---- enforced floors ---------------------------------------------------
  bool ok = nb_identical;
  for (const Run& run : runs) {
    if (run.result.welcomed != run.conns || run.result.errors != 0 ||
        run.result.completed < (run.conns == soak_conns ? soak_requests : requests)) {
      std::fprintf(stderr, "FAIL: @%zu clients: welcomed %zu/%zu, completed %zu, errors %zu\n",
                   run.conns, run.result.welcomed, run.conns, run.result.completed,
                   run.result.errors);
      ok = false;
    }
    if (run.result.digest != expected_digest(run.result.completed)) {
      std::fprintf(stderr, "FAIL: @%zu clients served values differ from the direct engine\n",
                   run.conns);
      ok = false;
    }
  }
  if (ok) std::printf("\nserved values bit-identical to the direct engine: yes\n");
  return ok ? 0 : 1;
}
