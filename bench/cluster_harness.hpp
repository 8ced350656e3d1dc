// The miner-process harness shared by the cluster benches (cluster_scaling,
// chaos_soak). Each bench binary re-execs itself to spawn cluster members:
//
//   <bench> --miner S I R [P1,P2.. [L]]  miner process: S shards, owning
//                                        index I with R replicas, optional
//                                        resync peer ports and the port L
//                                        to listen on (0 or none: any)
//
// Determinism: every miner process runs the SAME 8-party exchange (same
// seed => bit-identical unified segments) and installs only its owned
// shards. kSeed is tuned so the 8 contribution nonces spread 2/2/2/2 over
// 4 hash-mod shards (and 4/4 over 2) — re-tune it if the optimizer or the
// partitioner changes the nonce stream (make_contribution_wires checks and
// says so).
#pragma once

#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "net/cluster.hpp"
#include "net/remote.hpp"
#include "protocol/party_logic.hpp"

namespace sap::bench::cluster {

inline constexpr std::uint64_t kSeed = 90058;  // tuned: 8 nonces -> 2/2/2/2 over 4 shards
inline constexpr std::size_t kParties = 8;
inline constexpr std::size_t kBatchRows = 16;
inline constexpr const char* kMergeJobs[] = {"record-count", "class-histogram",
                                             "nb-train-accuracy", "knn-train-accuracy"};

/// The shared session setup — every miner process and the driver derive the
/// identical normalized pool and party partition from kSeed alone.
struct Session {
  data::Dataset pool;
  std::vector<data::Dataset> shards;
  proto::SapOptions sap;
};

inline Session make_session() {
  Session s;
  s.pool = normalized_uci("Diabetes", kSeed);
  rng::Engine shard_eng(kSeed ^ 0xBEEF);
  data::PartitionOptions popts;
  s.shards = data::partition(s.pool, kParties, popts, shard_eng);
  s.sap = proto::SapOptions::fast();
  s.sap.seed = kSeed;
  s.sap.compute_satisfaction = false;
  return s;
}

inline proto::JobParams job_params(const char* job) {
  proto::JobParams params;
  if (std::strstr(job, "train-accuracy") != nullptr) params["eval-records"] = 64.0;
  return params;
}

// ---- miner process -------------------------------------------------------

/// Child mode (`argv` = self --miner S I R [P1,P2.. [L]]): one cluster
/// member. Runs the daemon plus all 8 parties in-process (the exchange is
/// deterministic, so every member unifies the same segments), prints
/// "DOOR <port>" then "READY", and serves until the driver SIGKILLs it.
/// With resync peer ports the daemon first pulls its owned shards from the
/// first live owner that is AHEAD — the rejoin path; with a listen port it
/// takes a killed member's old address, as a restarted process would.
inline int miner_main(int argc, char** argv) {
  const auto shards = static_cast<std::size_t>(std::atoi(argv[2]));
  const auto index = static_cast<std::size_t>(std::atoi(argv[3]));
  const auto replicas = static_cast<std::size_t>(std::atoi(argv[4]));
  const Session s = make_session();

  net::MinerDaemonOptions opts;
  opts.listen = {"127.0.0.1", 0};
  if (argc >= 7) {
    const long port = std::strtol(argv[6], nullptr, 10);
    if (port < 0 || port > 65535) {
      std::fprintf(stderr, "miner: bad listen port '%s'\n", argv[6]);
      return 2;
    }
    opts.listen.port = static_cast<std::uint16_t>(port);
  }
  opts.parties = kParties;
  opts.seed = kSeed;
  opts.reactor_loops = 2;
  opts.reactor_compute_threads = 2;
  opts.shards = shards;
  opts.shard_layout = proto::ShardLayout::kHashMod;
  if (shards > 1) opts.owned_shards = net::owned_shards(index, shards, replicas);
  if (argc >= 6) {
    for (const char* p = argv[5]; *p != '\0';) {
      char* end = nullptr;
      const long port = std::strtol(p, &end, 10);
      if (end == p || port <= 0 || port > 65535) {
        std::fprintf(stderr, "miner: bad resync port list '%s'\n", argv[5]);
        return 2;
      }
      opts.resync_peers.push_back({"127.0.0.1", static_cast<std::uint16_t>(port)});
      p = (*end == ',') ? end + 1 : end;
    }
  }
  net::MinerDaemon daemon(opts);
  std::printf("DOOR %u\n", static_cast<unsigned>(daemon.reactor_addr().port));
  std::fflush(stdout);

  auto daemon_future = std::async(std::launch::async, [&] { return daemon.run(); });
  std::promise<void> exchanged;
  std::vector<std::thread> parties;
  for (std::size_t i = 0; i < kParties; ++i) {
    parties.emplace_back([&, i] {
      net::PartyClientOptions popts;
      popts.connect = daemon.local_addr();
      popts.index = i;
      popts.parties = kParties;
      popts.sap = s.sap;
      net::PartyClient party(s.shards[i], popts);
      (void)party.run_exchange();
      if (i != 0) {
        party.finish();
        return;
      }
      // Party 0 holds its party link open forever so the daemon keeps
      // serving; the driver ends this process with SIGKILL.
      exchanged.set_value();
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    });
  }
  exchanged.get_future().wait();
  // Serving (and the resync that precedes it) starts a hair after the
  // exchange; bounded wait (lint R7) before announcing READY — if our own
  // door cannot serve within the budget the process is wedged, and dying
  // beats hanging the driver forever.
  bool door_up = false;
  for (int attempt = 0; attempt < 2000 && !door_up; ++attempt) {
    if (daemon.serving()) door_up = true;
    else std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!door_up) {
    std::fprintf(stderr, "miner: own serving door never came up\n");
    return 1;
  }
  std::printf("READY\n");
  std::fflush(stdout);
  for (auto& t : parties) t.join();  // never returns
  return 0;
}

// ---- driver: process management ------------------------------------------

struct Miner {
  pid_t pid = -1;
  FILE* out = nullptr;
  net::SocketAddr door;
};

/// Fork + exec `self --miner ...` and read the door port it announces.
/// A non-empty `resync` (comma-separated peer ports) starts the rejoin path;
/// a non-zero `listen_port` (which needs `resync`) is the port to bind.
inline Miner spawn_miner(const char* self, std::size_t shards, std::size_t index,
                         std::size_t replicas, const std::string& resync = {},
                         std::uint16_t listen_port = 0) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(2);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    char s_arg[16], i_arg[16], r_arg[16], l_arg[16];
    std::snprintf(s_arg, sizeof s_arg, "%zu", shards);
    std::snprintf(i_arg, sizeof i_arg, "%zu", index);
    std::snprintf(r_arg, sizeof r_arg, "%zu", replicas);
    std::snprintf(l_arg, sizeof l_arg, "%u", static_cast<unsigned>(listen_port));
    if (resync.empty())
      ::execl(self, self, "--miner", s_arg, i_arg, r_arg, (char*)nullptr);
    else
      ::execl(self, self, "--miner", s_arg, i_arg, r_arg, resync.c_str(), l_arg,
              (char*)nullptr);
    std::perror("execl");
    ::_exit(127);
  }
  ::close(fds[1]);
  Miner m;
  m.pid = pid;
  m.out = ::fdopen(fds[0], "r");
  unsigned port = 0;
  if (!m.out || std::fscanf(m.out, "DOOR %u\n", &port) != 1 || port == 0) {
    std::fprintf(stderr, "FAIL: miner %zu/%zu did not report a door\n", index, shards);
    std::exit(1);
  }
  m.door = {"127.0.0.1", static_cast<std::uint16_t>(port)};
  return m;
}

inline void await_ready(Miner& m) {
  char line[64];
  if (std::fscanf(m.out, "%15s", line) != 1 || std::strcmp(line, "READY") != 0) {
    std::fprintf(stderr, "FAIL: miner on port %u never became READY\n",
                 static_cast<unsigned>(m.door.port));
    std::exit(1);
  }
}

inline void kill_miner(Miner& m) {
  if (m.pid > 0) {
    ::kill(m.pid, SIGKILL);
    int status = 0;
    ::waitpid(m.pid, &status, 0);
    m.pid = -1;
  }
  if (m.out) {
    std::fclose(m.out);
    m.out = nullptr;
  }
}

inline net::ShardRouterOptions router_options(const std::vector<Miner>& miners,
                                              std::size_t replicas) {
  net::ShardRouterOptions ropts;
  for (const auto& m : miners) ropts.miners.push_back(m.door);
  ropts.replicas = replicas;
  ropts.layout = proto::ShardLayout::kHashMod;
  ropts.seed = kSeed;
  ropts.parties = kParties;
  return ropts;
}

// ---- driver: workload ----------------------------------------------------

/// One pre-encoded kContribution wire per party, perturbed with that
/// party's negotiated space (the same math the party process ran, so the
/// installed adaptor accepts it). Exits with a FAIL line when kSeed no
/// longer spreads the nonces 2/2/2/2 over 4 hash-mod shards.
inline std::vector<std::vector<double>> make_contribution_wires(const Session& s) {
  const auto seeds = proto::logic::derive_session_seeds(kSeed, kParties);
  std::vector<std::vector<double>> wires;
  std::vector<std::size_t> count4(4, 0);
  for (std::size_t i = 0; i < kParties; ++i) {
    rng::Engine eng = seeds.provider_eng[i];
    const auto local = proto::logic::optimize_local(s.shards[i].features_T(),
                                                    s.shards[i].dims(), s.sap, eng);
    const data::Dataset batch = s.pool.slice(i * kBatchRows, (i + 1) * kBatchRows);
    const auto y = local.g.apply(batch.features_T(), eng);
    wires.push_back(proto::encode_contribution(local.nonce, y, batch.labels()));
    ++count4[proto::shard_of_nonce(local.nonce, 4, proto::ShardLayout::kHashMod)];
  }
  for (std::size_t g = 0; g < 4; ++g) {
    if (count4[g] != 2) {
      std::fprintf(stderr,
                   "FAIL: kSeed no longer balances the nonce hash (shard %zu got "
                   "%zu of %zu) — re-tune kSeed\n",
                   g, count4[g], kParties);
      std::exit(1);
    }
  }
  return wires;
}

/// Merged reports for every exact-merge job through `router`, in
/// declaration order.
inline std::vector<std::vector<double>> merged_reports(net::ShardRouter& router) {
  std::vector<std::vector<double>> out;
  for (const char* job : kMergeJobs) out.push_back(router.mine_named(job, job_params(job)).values);
  return out;
}

}  // namespace sap::bench::cluster
