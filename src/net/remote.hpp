// Cross-process deployment of the Space Adaptation Protocol: one miner
// daemon + k party client processes, the door drivers of the role steps in
// protocol/party_logic.hpp (PartyClient runs a provider's, MinerDaemon the
// miner's; both drop mail from a sender the step does not allow). The pool
// is bit-identical to the in-process session's: the same steps run with
// engines derived from the same master seed.
//
// Wiring convention (both sides must agree, normally via identical CLI
// arguments): party ids are providers 0..k-1 (k-1 doubles as the
// coordinator) and the miner answers for id k. All parties derive the
// session secret from the shared seed, standing in for the out-of-band key
// exchange the paper assumes — see DESIGN.md §7 for the threat model of
// this choice over real sockets.
//
// The miner has one door, an epoll reactor (net/reactor.hpp, DESIGN.md
// §10), and two jobs behind it:
//   * the exchange: parties claim their ids at the door, which routes
//     their frames to each other by destination id; the forwarded shards
//     and the adaptor sequence addressed to the miner go to an exchange
//     mailbox that run() feeds to the miner's steps;
//   * serving: contributions (adapted + appended, answered with a
//     kContributionAck receipt), mining requests (served by the
//     MiningEngine, cached/incremental exactly like in-process), cluster
//     partials/slices/snapshots and stats, through ONE dispatch
//     (serve_payload) behind the frame path every serving door shares
//     (door_frame: trace ids and stage timings, link-key envelopes, kError
//     containment — a RouterDaemon runs the same one). It refuses serving
//     traffic until the exchange installed the pool.
// Once the pool is installed the daemon sends each party a serving-started
// notice over its party link. A party holds one connection for its whole
// life: the ServeClient that claimed its index carries its exchange
// messages, then its contributions and mining requests. The daemon exits
// when every party link has closed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/party_logic.hpp"
#include "protocol/session.hpp"

namespace sap::net {

/// Raised client-side when a daemon answers kServeError. Carries the typed
/// code so callers (the shard router above all) can tell a definitive
/// refusal (kBadRequest — retrying a replica cannot help) from a routing or
/// availability problem (kNotOwner / kUnavailable — fail over).
class ServeError : public Error {
 public:
  ServeError(proto::ServeErrorCode code, const std::string& message)
      : Error("serve-error(" + proto::to_string(code) + "): " + message), code_(code) {}
  [[nodiscard]] proto::ServeErrorCode code() const noexcept { return code_; }

 private:
  proto::ServeErrorCode code_;
};

/// Raised client-side when a daemon answers a contribution with the NEGATIVE
/// receipt (epoch 0): the batch itself is bad (unknown nonce, malformed or
/// non-finite rows), so every owner would reject it alike and no failover
/// can help. Not a ServeError — the daemon answered with a receipt, not a
/// typed refusal. A router door relays it as the same negative receipt.
class ContributionRejected : public Error {
 public:
  using Error::Error;
};

// ---- the serving door's frame path ---------------------------------------

/// One decrypted request at a serving door.
struct DoorRequest {
  proto::PayloadKind kind{};
  const std::vector<double>& payload;  ///< the opened envelope
  std::uint64_t trace = 0;             ///< adopted or minted; the reply echoes it
};

/// A daemon's answer to one DoorRequest.
struct DoorReply {
  proto::PayloadKind kind{};
  std::vector<double> wire;  ///< sealed under the (self -> client) link key
  double merge_ms = 0.0;     ///< router-side reassembly: the kMerge trace stage
};

/// A daemon's payload dispatch: answer one request, or throw sap::Error to
/// refuse it with a kError frame.
using DoorDispatch = std::function<DoorReply(const DoorRequest& request)>;

/// The frame path of every serving door: MinerDaemon's and RouterDaemon's
/// reactors both run it, each passing only its payload dispatch. It adopts
/// the request's trace id or mints one (the reply echoes it), opens the
/// request envelope under the (client -> self) link key, seals the reply
/// under (self -> client), and records the queue, decode, serve, merge and
/// write stages in `traces` — stats requests stay untraced, since
/// measurement must not move what it measures. A sap::Error from any step
/// becomes a kError frame, reported to `log` first when it is set.
std::vector<Frame> door_frame(const Frame& frame, proto::PartyId self, std::uint64_t secret,
                              obs::TraceMinter& minter, obs::TraceRing& traces,
                              const DoorDispatch& dispatch,
                              const std::function<void(const std::string&)>& log = {});

/// Order-sensitive FNV-1a digest of a dataset (feature bit patterns +
/// labels) — how two processes compare pools without shipping them.
[[nodiscard]] std::uint64_t dataset_digest(const data::Dataset& ds);

/// Order-INsensitive digest: per-record FNV-1a hashes combined
/// commutatively. Equal multisets of records => equal digests, whatever the
/// append order — the comparison for concurrently contributed pools.
[[nodiscard]] std::uint64_t dataset_multiset_digest(const data::Dataset& ds);

/// The SapOptions preset sap_cli's serving subcommands (`serve`,
/// `contribute`, `party`) and their tests share. Every process of one
/// logical cross-process session must run identical options — keeping the
/// one copy here is part of the bit-identity guarantee between the
/// daemon/party topology and its in-process reference. `optimize_threads`
/// is the one exception: LocalOptimize results are thread-count-invariant
/// (optimizer.hpp), so each process may pick its own worker count.
[[nodiscard]] proto::SapOptions serving_session_options(double noise_sigma,
                                                        std::uint64_t seed,
                                                        std::size_t optimize_threads = 0);

// ---- kept eval prefixes --------------------------------------------------

/// The eval prefixes a member keeps for the routers that read it (DESIGN.md
/// §11, "Eval prefix by handle"). A router sends a kNN partial's query rows
/// once, asking the member to keep them; the member answers with a handle,
/// and the router's later partials over the same rows name the handle
/// instead of carrying them. A handle names one row set for the life of
/// the process: it is the process's instance nonce (rng::entropy_word,
/// drawn once) plus a process-wide counter, at least kFirstPrefixHandle and
/// below 2^53, so a restarted member at the same address never resolves a
/// handle its predecessor issued. At most kCapacity row sets are held, the
/// oldest evicted first. Thread-safe: a door's compute lanes share it.
class PrefixTable {
 public:
  /// Row sets held at once: enough for every router a member serves in a
  /// deployment here (perfbench's router and its rebuild routers, a
  /// cluster bench's reading routers) to keep one prefix each.
  static constexpr std::size_t kCapacity = 8;

  /// Keep `rows`, evicting the oldest set beyond kCapacity; returns their
  /// handle.
  std::uint64_t keep(data::Dataset rows);

  /// The rows kept under `handle`, or null when none are (evicted, or a
  /// handle this process never issued).
  [[nodiscard]] std::shared_ptr<const data::Dataset> find(std::uint64_t handle) const;

  /// Row sets held now.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable Mutex mutex_;
  /// Oldest first.
  std::deque<std::pair<std::uint64_t, std::shared_ptr<const data::Dataset>>> kept_
      SAP_GUARDED_BY(mutex_);
};

// ---- miner daemon --------------------------------------------------------

struct MinerDaemonOptions {
  /// The one door: parties run the exchange and every client is served here.
  SocketAddr listen{"127.0.0.1", 0};
  std::size_t parties = 0;    ///< k (>= 3); must match the party processes
  std::uint64_t seed = 0x5A9; ///< must match the party processes' seed
  /// One absolute deadline for the whole exchange phase: k shards and k
  /// adaptors must arrive within it.
  int exchange_timeout_ms = 30'000;
  /// Optional progress sink (the CLI prints these lines).
  std::function<void(const std::string&)> log;
  /// The door's sharded event loops (>= 1), compute lanes and idle timeout.
  std::size_t reactor_loops = 1;
  std::size_t reactor_compute_threads = 2;
  int reactor_idle_timeout_ms = 60'000;
  /// Cluster membership (PR 8): the pool's total shard count and the global
  /// shard ids THIS miner owns (empty = own all — the classic single-miner
  /// daemon). A contribution whose nonce routes to an unowned shard is
  /// answered with kServeError{kNotOwner} so the router retries the owner.
  std::size_t shards = 1;
  std::vector<std::size_t> owned_shards;
  proto::ShardLayout shard_layout = proto::ShardLayout::kHashMod;
  /// Self-healing rejoin (PR 10): serving doors of live replica peers. When
  /// non-empty, run() resyncs every owned shard right after the exchange
  /// install and BEFORE serving starts: each peer is asked through the
  /// kShardSnapshotRequest door for the shard's ARRIVAL-order rows, and a
  /// snapshot whose epoch is ahead of the local line is installed with the
  /// donor's epoch adopted (install_shard) — so a restarted miner re-enters
  /// rotation with state the router's epoch floors accept. Peers that are
  /// down, don't own the shard, or are behind are skipped; with no usable
  /// peer the miner keeps its exchange-derived state (cold start).
  std::vector<SocketAddr> resync_peers;
};

class MinerDaemon {
 public:
  /// Binds the door; run() does the rest.
  explicit MinerDaemon(MinerDaemonOptions opts);

  /// The door's bound address (ephemeral port resolved) — print this so
  /// parties and serving clients know where to connect.
  [[nodiscard]] SocketAddr local_addr() const { return reactor_->local_addr(); }

  /// A second name for local_addr().
  [[nodiscard]] SocketAddr reactor_addr() const { return local_addr(); }

  /// The door (never null) — stats for the CLI summary and the
  /// connection-scaling bench.
  [[nodiscard]] const Reactor* reactor() const noexcept { return reactor_.get(); }

  /// True once run() has installed the pool and the serving door answers.
  /// Before this, door requests are refused with a kError frame ("not
  /// serving yet") — a TRANSIENT refusal by the DESIGN.md §13 taxonomy, so
  /// retrying clients absorb it like any transport fault. Callers without
  /// a retry budget (tests, probes) poll here instead.
  [[nodiscard]] bool serving() const noexcept {
    return serving_.load(std::memory_order_acquire);
  }

  struct Summary {
    std::size_t pool_records = 0;
    std::uint64_t pool_epoch = 0;
    std::uint64_t pool_digest = 0;
    std::size_t contributions = 0;
    std::size_t requests_served = 0;
  };

  /// Serve one full session: run the miner's steps, install the pool, tell
  /// the parties that serving started, then serve until every party link
  /// has closed. Throws sap::Error if the exchange cannot complete (missing
  /// party, malformed shard, deadline). The door serves from pool
  /// installation until return.
  Summary run();

  /// The serving engine (valid pool only after run() installed it).
  [[nodiscard]] proto::MiningEngine& engine() noexcept { return engine_; }

  /// Live metrics registry — the serving path records into it; the reactor
  /// shares it via ReactorOptions::metrics (DESIGN.md §12).
  [[nodiscard]] obs::Registry& metrics() noexcept { return obs_; }

  /// Recent request traces (bounded ring; ids ride the frame header).
  [[nodiscard]] const obs::TraceRing& traces() const noexcept { return traces_; }

  /// Everything a kStatsRequest is answered with: the registry snapshot
  /// plus collect-time injections (engine cache stats + pool epoch/records
  /// + snapshot refcounts, reactor and compute-pool totals, the daemon's
  /// serving counters, the kept prefixes) — normalized, ready to merge at
  /// a router. Pure
  /// measurement: collecting takes only read views.
  [[nodiscard]] obs::Snapshot stats_snapshot();

 private:
  void note(const std::string& line) const;

  /// The ONE serving dispatch. Returns false for non-serving kinds.
  /// Contribution failures answer inside (negative receipt); a malformed
  /// mining request throws for the caller's per-message containment. Thread-safe: the engine locks
  /// internally, adaptors_/dims_ are frozen before serving_.
  bool serve_payload(proto::PayloadKind kind, std::span<const double> payload,
                     proto::PayloadKind& out_kind, std::vector<double>& out_wire);

  /// Fill (out_kind, out_wire) with a typed kServeError refusal + log it.
  void serve_error(proto::ServeErrorCode code, const std::string& message,
                   proto::PayloadKind& out_kind, std::vector<double>& out_wire) const;

  /// Rejoin resync (DESIGN.md §13): pull every owned shard's snapshot from
  /// the first live peer in opts_.resync_peers that owns it and is ahead of
  /// the local epoch line; install with the donor epoch adopted. Best
  /// effort per shard — runs after the exchange install, before serving_.
  void resync_owned_shards();

  /// Reactor handler. Forwarded shards and adaptor sequences go to the
  /// exchange mailbox until the install (and are noted and dropped after
  /// it); everything else is door_frame over serve_payload, refused until
  /// the pool is installed. Runs on reactor compute lanes.
  std::vector<Frame> serve_frame(const Frame& frame);

  /// The mail a miner step `expects`, from the exchange mailbox. A frame
  /// that does not open, comes from a sender the step does not allow, or
  /// is surplus is noted and dropped; only `deadline` ends the wait.
  std::vector<proto::logic::Mail> take_mail(proto::logic::Step step,
                                            std::vector<proto::logic::Expect> expects,
                                            std::chrono::steady_clock::time_point deadline);

  /// A kData frame from the miner, sealed under the (miner -> to) key.
  [[nodiscard]] Frame sealed(proto::PartyId to, proto::PayloadKind kind,
                             std::span<const double> payload) const;

  MinerDaemonOptions opts_;
  proto::PartyId miner_id_ = 0;
  std::uint64_t secret_ = 0;
  std::size_t dims_ = 0;
  std::vector<std::pair<std::uint64_t, perturb::SpaceAdaptor>> adaptors_;
  proto::MiningEngine engine_;
  std::atomic<bool> serving_{false};  ///< pool installed; the door may serve
  /// Exchange frames addressed to the miner, still sealed; run() opens
  /// them on its own thread. Closed once the exchange has completed.
  Mutex mail_mutex_;
  CondVar mail_cv_;
  std::deque<Frame> mail_ SAP_GUARDED_BY(mail_mutex_);
  bool mail_closed_ SAP_GUARDED_BY(mail_mutex_) = false;
  std::atomic<std::size_t> contributions_{0};
  std::atomic<std::size_t> requests_served_{0};
  mutable Mutex log_mutex_;  ///< note() is called from compute lanes too
  // ---- observability (PR 9): pure measurement, no computation feedback --
  obs::Registry obs_;
  obs::TraceRing traces_;
  obs::TraceMinter minter_;
  /// Hot-path metric slots, registered once in the constructor (lookups
  /// allocate; the record path on these pointers is lock-free).
  obs::Histogram* hist_serve_ms_ = nullptr;      ///< engine.serve_ms
  obs::Histogram* hist_fit_ms_ = nullptr;        ///< engine.fit_ms
  obs::Counter* ctr_ingest_records_ = nullptr;   ///< ingest.records
  obs::Counter* ctr_ingest_rejected_ = nullptr;  ///< ingest.rejected
  obs::Counter* ctr_refused_bad_ = nullptr;      ///< serve.refused.bad_request
  obs::Counter* ctr_refused_owner_ = nullptr;    ///< serve.refused.not_owner
  obs::Counter* ctr_refused_unavail_ = nullptr;  ///< serve.refused.unavailable
  obs::Counter* ctr_prefix_kept_ = nullptr;      ///< serve.prefix.kept
  obs::Counter* ctr_prefix_hits_ = nullptr;      ///< serve.prefix.hits
  obs::Counter* ctr_prefix_misses_ = nullptr;    ///< serve.prefix.misses (kUnknownPrefix)
  obs::Gauge* g_ingest_epoch_ = nullptr;         ///< ingest.epoch (last receipt)
  /// Query rows routers asked this member to keep (serve_payload's
  /// kPartialRequest branch).
  PrefixTable prefixes_;
  /// Last member: destroyed (and its threads joined) before anything the
  /// serve_frame handler touches.
  std::unique_ptr<Reactor> reactor_;
};

// ---- serving client ------------------------------------------------------

/// The one client of a door: synchronous, one socket and an incremental
/// FrameReader, no io thread. A plain client claims an auto-assigned id
/// and sends serving requests to a miner's door or a router's front door.
/// A party claims its index and, over the same connection, also sends and
/// receives the exchange's one-way messages (PartyClient).
class ServeClient {
 public:
  /// A decrypted message as seen by its addressee.
  using Delivery = proto::Transport::Delivery;

  struct Options {
    int timeout_ms = 10'000;  ///< connect, handshake, write-stall and reply deadline
    /// Transport-level retry budget for IDEMPOTENT requests (mine_named,
    /// mine_partial, pool_slice, stats, shard_snapshot): up to this many
    /// reconnect-and-resend attempts after the first try. 0 (default)
    /// preserves the classic fail-fast behavior. Contributions are NEVER
    /// retried here — a lost ack leaves the append outcome unknown, and a
    /// blind resend could double-append silently (the router's replica
    /// logic owns that decision, net/cluster.cpp).
    int retry_attempts = 0;
    /// Backoff base: attempt n sleeps retry_backoff_ms << n, capped at
    /// retry_backoff_cap_ms, plus deterministic jitter in [0, base) drawn
    /// from a sap::rng::Engine with a fixed seed — same request sequence =>
    /// same backoff schedule (sap rng discipline).
    int retry_backoff_ms = 10;
    int retry_backoff_cap_ms = 500;
    /// Total wall-clock budget across all attempts of one request; once
    /// exceeded no further attempt starts (deadline-scoped retries).
    int retry_deadline_ms = 20'000;
  };

  /// Connect to a door and claim `claim`: kClaimAnyParty asks for an
  /// auto-assigned client id, a party passes its index and the Welcome
  /// must grant exactly that id. `seed` and `parties` must match the
  /// daemon (they derive the session secret and the miner id, standing in
  /// for out-of-band keys like every other client in this tree).
  ServeClient(const SocketAddr& addr, std::uint64_t seed, std::size_t parties,
              Options opts, std::uint32_t claim = kClaimAnyParty);
  ServeClient(const SocketAddr& addr, std::uint64_t seed, std::size_t parties)
      : ServeClient(addr, seed, parties, Options{}) {}

  [[nodiscard]] proto::PartyId id() const noexcept { return id_; }

  /// One-way message: seal `payload` under the (id -> to) link key and
  /// write one kData frame; waits for no reply.
  void send(proto::PartyId to, proto::PayloadKind kind, std::span<const double> payload);

  /// The next kData frame, opened under the (from -> id) key. False when
  /// none arrives within `timeout_ms` (0 = only what has already arrived);
  /// throws sap::Error on a kError frame or a closed connection.
  bool receive(Delivery& out, int timeout_ms);

  /// Serve a named job on the miner's pool. A daemon-side refusal raises
  /// ServeError (typed: bad request vs not-owner vs unavailable).
  proto::WireMiningResponse mine_named(const std::string& job,
                                       const proto::JobParams& params = {});

  /// Ship a pre-encoded kContribution payload (encode_contribution wire —
  /// the caller owns perturbing into its negotiated space). Throws
  /// ContributionRejected on a negative receipt (epoch 0) and ServeError on
  /// a typed refusal (kNotOwner means "retry the owning miner", see
  /// net/cluster.hpp).
  proto::DecodedReceipt contribute_wire(const std::vector<double>& wire);

  /// One shard's exact-merge partial for a named job (cluster scatter
  /// phase). `queries` is the canonical eval prefix the merge will score;
  /// `radii` bounds a bounded job's partial, one radius per query (empty:
  /// unbounded); `prefix` is the request's prefix word (proto::kPrefixKeep,
  /// or a handle the door issued, with empty `queries`).
  proto::DecodedPartialResponse mine_partial(std::size_t shard, const std::string& job,
                                             const proto::JobParams& params,
                                             const data::Dataset& queries,
                                             std::span<const double> radii = {},
                                             std::uint64_t prefix = proto::kPrefixInline);

  /// mine_partial over a pre-encoded kPartialRequest payload
  /// (proto::encode_partial_request), for a caller that counts its bytes.
  proto::DecodedPartialResponse mine_partial_wire(std::span<const double> request);

  /// One shard's rows in canonical (nonce, seq) order (cluster gather
  /// phase); max_records 0 = all.
  proto::DecodedPoolSlice pool_slice(std::size_t shard, std::size_t max_records);

  /// One shard's ARRIVAL-order rows + keys at the donor's current epoch
  /// (the kShardSnapshotRequest resync door) — what a rejoining miner
  /// installs verbatim via MiningEngine::install_shard.
  proto::DecodedPoolSlice shard_snapshot(std::size_t shard);

  /// The daemon's live metrics snapshot + recent traces (one
  /// kStatsRequest/kStatsResponse round trip — the stats door).
  proto::DecodedStats stats();

  /// Transport-level retries performed so far (attempts beyond the first).
  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }

  /// Sticky trace id stamped on every subsequent request frame (0 = let
  /// the serving door mint one). Routers use this to propagate the door's
  /// id through shard fan-outs.
  void set_trace(std::uint64_t id) noexcept { trace_ = id; }
  /// The trace id the last kData response carried (the door echoes the
  /// request's id, minting when the request rode untraced).
  [[nodiscard]] std::uint64_t last_trace() const noexcept { return last_trace_; }

  /// Polite goodbye; safe to call repeatedly.
  void bye();

 private:
  /// Send `payload` as `kind`, await the door's kData reply of
  /// `expect_kind` (kError frames raise sap::Error with the daemon's
  /// message). A timeout, a lost connection or an unexpected reply drops
  /// the connection. A dropped one, or one the door closed while it sat
  /// idle, is redialed before the request is written: nothing of it is on
  /// the wire yet, so this is safe even for a contribution. A party's
  /// redial fails, because the door keeps its claim.
  std::vector<double> transact(proto::PayloadKind kind, std::span<const double> payload,
                               proto::PayloadKind expect_kind);
  /// transact() with the Options retry budget applied — idempotent request
  /// kinds only. Transport failures reconnect + resend with exponential
  /// backoff and deterministic jitter until the attempt budget or the
  /// retry deadline runs out; ServeError (a typed daemon answer) is never
  /// retried here — the daemon processed the request.
  std::vector<double> transact_idempotent(proto::PayloadKind kind,
                                          std::span<const double> payload,
                                          proto::PayloadKind expect_kind);
  /// Fresh socket + handshake to the remembered endpoint (same claim).
  void reconnect();
  /// kHello/kWelcome claim over the current socket.
  void handshake();
  /// Close the socket and forget any half-received frame.
  void drop() noexcept;
  /// A kData frame carrying `payload` sealed under the (id -> to) key.
  [[nodiscard]] Frame data_frame(proto::PartyId to, proto::PayloadKind kind,
                                 std::span<const double> payload) const;
  void write_frame(const Frame& frame);
  /// The next frame, or false once `deadline` has passed with none
  /// complete. Throws sap::Error when the connection closes. The view's
  /// body stays valid until the next read_frame() or drop().
  bool read_frame(FrameView& frame, std::chrono::steady_clock::time_point deadline);

  TcpSocket sock_;
  FrameReader reader_;
  std::vector<std::uint8_t> chunk_;  ///< read_frame's socket buffer
  Options opts_;
  SocketAddr addr_;         ///< remembered for reconnect-on-retry
  std::uint32_t claim_ = kClaimAnyParty;  ///< re-sent on every reconnect
  std::uint64_t secret_ = 0;
  proto::PartyId id_ = 0;
  proto::PartyId miner_ = 0;
  std::uint64_t trace_ = 0;       ///< stamped on request frames (0 = unset)
  std::uint64_t last_trace_ = 0;  ///< echoed by the last kData response
  rng::Engine retry_eng_{0};      ///< deterministic backoff jitter stream
  std::size_t retries_ = 0;
  bool said_bye_ = false;
  /// Last completed handshake or reply — how long the connection sat idle.
  std::chrono::steady_clock::time_point last_io_{};
};

// ---- party client --------------------------------------------------------

struct PartyClientOptions {
  SocketAddr connect;
  std::size_t index = 0;    ///< provider index; parties-1 = the coordinator
  std::size_t parties = 0;  ///< k (>= 3)
  /// Protocol options; seed/noise/optimizer settings must match every other
  /// party for the run to be the same logical session.
  proto::SapOptions sap{};
  /// Bounds every wait the party makes: connect + claim, each exchange
  /// wait, each write stall and each request.
  int timeout_ms = 30'000;
};

/// One party process over one door connection, its ServeClient link.
/// Single-threaded: frames peers route to the party during LocalOptimize
/// wait in its socket buffers (DESIGN.md §7).
class PartyClient {
 public:
  /// Connects and claims the party id; `shard` is this provider's private
  /// data (N x d rows, pre-normalized like every Dataset in the protocol).
  PartyClient(data::Dataset shard, PartyClientOptions opts);

  /// Run this provider's steps (and the coordinator's when index == k-1)
  /// over the link; returns its accounting report. A failed exchange
  /// poisons the client: a second call refuses at once, since the party's
  /// stream and its peers have moved on — construct a new client.
  proto::PartyReport run_exchange();

  /// Post-exchange streaming: perturb `batch` (records in this party's
  /// original space) with the negotiated G_i and ship it to the miner's
  /// door. Blocks for the receipt; throws sap::Error when the miner
  /// rejects or the deadline expires.
  proto::SapSession::ContributionReceipt contribute(const data::Dataset& batch);

  /// Serve a named job remotely on the miner's pool, over the party link.
  /// A daemon-side refusal (unknown job / bad params / unavailable shard)
  /// raises ServeError with the typed code.
  proto::WireMiningResponse mine_named(const std::string& job,
                                       const proto::JobParams& params = {});

  /// Polite goodbye (the daemon exits once every party link has closed).
  /// Safe to call multiple times; destroying the client closes the link,
  /// which the door counts the same way.
  void finish();

  /// This party's protocol nonce (valid after run_exchange()).
  [[nodiscard]] std::uint64_t nonce() const noexcept { return provider_.local().nonce; }

 private:
  /// The mail `expects` names, for `what` (a step, in errors). Mail that
  /// arrived before its step waits in the stash (there are no phase
  /// barriers across processes); mail from a sender the step does not
  /// allow, or from no party at all, is dropped. Each wait is bounded by
  /// the options' timeout.
  std::vector<proto::logic::Mail> take(const std::string& what,
                                       std::vector<proto::logic::Expect> expects);

  /// Wait once for the daemon's serving-started notice: serving requests
  /// before it would be refused.
  void await_serving();

  enum class Exchange : std::uint8_t { kNotRun, kDone, kFailed };

  PartyClientOptions opts_;
  proto::logic::Provider provider_;
  std::optional<ServeClient> link_;
  std::deque<proto::logic::Mail> stash_;
  Exchange exchange_ = Exchange::kNotRun;
  bool serving_ = false;
};

}  // namespace sap::net
