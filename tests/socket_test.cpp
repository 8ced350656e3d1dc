// sap::net integration tests — the wire layer and the TCP deployment over
// 127.0.0.1:
//
//   * frame codec: round trips, incremental decoding, strict rejection;
//   * deadlines: dead doors and silent peers fail with sap::Error, fast;
//   * MinerDaemon + k PartyClient drivers in separate threads with real
//     sockets: pooled results bit-identical to SapSession, door-served
//     mining requests equal to in-process serving, the door refusing
//     serving traffic until the exchange installs the pool, and parties
//     rejecting routing notices no exchange plan can produce.
// (tests/cli_test.cpp repeats the distributed topology with genuinely
// separate OS processes through sap_cli.)
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <future>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/frame.hpp"
#include "net/reactor.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "protocol/session.hpp"
#include "rng/rng.hpp"

namespace {

using sap::data::Dataset;
using sap::rng::Engine;
namespace net = sap::net;
namespace proto = sap::proto;

// ---- shared fixtures -----------------------------------------------------

struct StreamSetup {
  std::vector<Dataset> shards;
  Dataset stream;
};

/// Normalized Iris: 100 records shard into the exchange, 50 held back as
/// the Contribute stream.
StreamSetup stream_setup(std::size_t k, std::uint64_t seed) {
  const Dataset raw = sap::data::make_uci("Iris", seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(raw.features());
  const Dataset pool(raw.name(), norm.transform(raw.features()), raw.labels());
  Engine eng(seed ^ 0xBEEF);
  sap::data::PartitionOptions opts;
  StreamSetup setup;
  setup.shards = sap::data::partition(pool.slice(0, 100), k, opts, eng);
  setup.stream = pool.slice(100, 150);
  return setup;
}

proto::SapOptions fast_opts(std::uint64_t seed) {
  auto opts = proto::SapOptions::fast();
  opts.seed = seed;
  opts.compute_satisfaction = false;
  return opts;
}

net::TcpOptions test_tcp() {
  net::TcpOptions tcp;
  tcp.connect_timeout_ms = 10000;
  tcp.receive_timeout_ms = 30000;  // CI-safe; deadline tests shrink it
  return tcp;
}

// ---- frame codec ---------------------------------------------------------

TEST(Frame, RoundTripsThroughIncrementalReader) {
  net::Frame frame;
  frame.type = net::FrameType::kData;
  frame.payload_kind = static_cast<std::uint8_t>(proto::PayloadKind::kContribution);
  frame.from = 3;
  frame.to = 7;
  const std::vector<double> payload{1.5, -2.25, 1e300, 0.0};
  frame.body = net::envelope_body(proto::EncryptedEnvelope(payload, 0xFEED));

  std::vector<std::uint8_t> bytes;
  net::encode_frame(frame, bytes);
  net::Frame second;
  second.type = net::FrameType::kBye;
  net::encode_frame(second, bytes);

  // Feed one byte at a time: the reader must never mis-frame.
  net::FrameReader reader;
  std::vector<net::Frame> out;
  net::Frame decoded;
  for (const std::uint8_t b : bytes) {
    reader.feed(&b, 1);
    while (reader.next(decoded)) out.push_back(decoded);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, net::FrameType::kData);
  EXPECT_EQ(out[0].from, 3u);
  EXPECT_EQ(out[0].to, 7u);
  EXPECT_EQ(out[0].payload_kind, static_cast<std::uint8_t>(proto::PayloadKind::kContribution));
  EXPECT_EQ(net::body_envelope(out[0].body).open(0xFEED), payload);
  EXPECT_EQ(out[1].type, net::FrameType::kBye);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, RejectsHostileInput) {
  net::Frame frame;
  frame.type = net::FrameType::kWelcome;
  frame.body = net::u32_body(5);
  std::vector<std::uint8_t> good;
  net::encode_frame(frame, good);

  net::Frame out;
  {  // bad magic
    auto bytes = good;
    bytes[0] ^= 0xFF;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // wrong version
    auto bytes = good;
    bytes[4] = 9;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // unknown type
    auto bytes = good;
    bytes[5] = 77;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // corrupt checksum
    auto bytes = good;
    bytes.back() ^= 0x01;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // oversized length prefix must be rejected before any allocation
    auto bytes = good;
    bytes[16] = 0xFF;
    bytes[17] = 0xFF;
    bytes[18] = 0xFF;
    bytes[19] = 0x7F;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(out), sap::Error);
  }
  {  // truncation is "need more bytes", never a crash
    net::FrameReader reader;
    reader.feed(good.data(), good.size() - 1);
    EXPECT_FALSE(reader.next(out));
  }
}

/// Byte-at-a-time table CRC-32 (IEEE 802.3, reflected): the reference the
/// slice-by-8 net::crc32 must reproduce.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Frame, Crc32MatchesTheBytewiseReference) {
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(net::crc32(check.data(), check.size()), 0xCBF43926u);

  sap::rng::Engine eng(90);
  std::vector<std::uint8_t> bytes(1031 + 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(eng.uniform_index(256));
  // Every length 0..1031 at every start offset mod 8, fresh and seeded.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1031; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(net::crc32(p, len), crc32_bytewise(p, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(net::crc32(p, len, 0x1234ABCDu), crc32_bytewise(p, len, 0x1234ABCDu))
          << "offset " << offset << " len " << len;
    }
  }
  // Chaining through the seed is the CRC of the concatenation (the frame
  // header and body are checksummed in two calls).
  for (const std::size_t split : {0, 1, 7, 28, 500, 1039}) {
    EXPECT_EQ(net::crc32(bytes.data() + split, bytes.size() - split,
                         net::crc32(bytes.data(), split)),
              net::crc32(bytes.data(), bytes.size()))
        << "split " << split;
  }
}

TEST(Frame, EnvelopeBodyIsByteExact) {
  const std::vector<double> payload{3.14, -0.0, 42.0};
  const proto::EncryptedEnvelope env(payload, 0xABCDEF);
  const auto body = net::envelope_body(env);
  // Wire layout: the checksum then every ciphertext word, little-endian.
  const auto le64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(body[at + i]) << (8 * i);
    return v;
  };
  ASSERT_EQ(body.size(), 8 + 8 * env.ciphertext().size());
  EXPECT_EQ(le64(0), env.checksum());
  for (std::size_t i = 0; i < env.ciphertext().size(); ++i)
    EXPECT_EQ(le64(8 + 8 * i), env.ciphertext()[i]);
  const auto back = net::body_envelope(body);
  EXPECT_EQ(back.checksum(), env.checksum());
  ASSERT_EQ(back.ciphertext().size(), env.ciphertext().size());
  for (std::size_t i = 0; i < env.ciphertext().size(); ++i)
    EXPECT_EQ(back.ciphertext()[i], env.ciphertext()[i]);
  EXPECT_EQ(back.open(0xABCDEF), payload);

  EXPECT_THROW((void)net::body_envelope({}), sap::Error);
  EXPECT_THROW((void)net::body_envelope(std::vector<std::uint8_t>(13, 0)), sap::Error);
}

TEST(Frame, SocketAddrParses) {
  const auto addr = net::SocketAddr::parse("127.0.0.1:8080");
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 8080);
  EXPECT_EQ(net::SocketAddr::parse("localhost:1").port, 1);
  EXPECT_THROW((void)net::SocketAddr::parse("no-port"), sap::Error);
  EXPECT_THROW((void)net::SocketAddr::parse("127.0.0.1:99999"), sap::Error);
  EXPECT_THROW((void)net::SocketAddr::parse("not.an.ip:80"), sap::Error);
  EXPECT_THROW((void)net::SocketAddr::parse(":80"), sap::Error);
}

// ---- deadlines -----------------------------------------------------------

TEST(TcpDeadline, ConnectToDeadPortFails) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  const auto dead = net::TcpListener::listen({"127.0.0.1", 0}).local_addr();
  net::TcpOptions tcp;
  tcp.connect_timeout_ms = 500;
  EXPECT_THROW((void)net::TcpTransport::connect(dead, 1, tcp), sap::Error);
}

/// A door that routes and answers nothing itself.
net::Reactor bare_door() {
  return net::Reactor({}, /*self=*/7,
                      [](const net::Frame&) { return std::vector<net::Frame>{}; });
}

TEST(TcpDeadline, ReceiveTimesOutCleanly) {
  auto door = bare_door();
  net::TcpOptions tcp = test_tcp();
  tcp.receive_timeout_ms = 200;
  auto client = net::TcpTransport::connect(door.local_addr(), 42, tcp);
  const auto id = client->claim_party(net::kClaimAnyParty);
  net::TcpTransport::Delivery out;
  EXPECT_FALSE(client->try_receive(id, out, 100));
  EXPECT_THROW((void)client->receive(id), sap::Error);
}

TEST(TcpDeadline, DuplicateClaimIsRefused) {
  auto door = bare_door();
  auto a = net::TcpTransport::connect(door.local_addr(), 42, test_tcp());
  auto b = net::TcpTransport::connect(door.local_addr(), 42, test_tcp());
  EXPECT_EQ(a->claim_party(0), 0u);
  EXPECT_THROW((void)b->claim_party(0), sap::Error);
}

// ---- daemon + party clients ----------------------------------------------

/// A live daemon whose k parties ran the exchange and stay connected — the
/// open party links keep the daemon serving until finish().
struct ExchangedDaemon {
  std::unique_ptr<net::MinerDaemon> daemon;
  std::future<net::MinerDaemon::Summary> done;
  std::vector<std::unique_ptr<net::PartyClient>> parties;
  std::vector<proto::PartyReport> reports;

  ExchangedDaemon(std::size_t k, std::uint64_t seed, int door_idle_timeout_ms = 60'000) {
    net::MinerDaemonOptions opts;
    opts.listen = {"127.0.0.1", 0};
    opts.parties = k;
    opts.seed = seed;
    opts.exchange_timeout_ms = test_tcp().receive_timeout_ms;
    opts.reactor_idle_timeout_ms = door_idle_timeout_ms;
    daemon = std::make_unique<net::MinerDaemon>(opts);
    done = std::async(std::launch::async, [this] { return daemon->run(); });
  }

  /// Run the exchange, then wait until the serving door answers.
  bool exchange(const std::vector<Dataset>& shards, const proto::SapOptions& sap) {
    parties.resize(shards.size());
    reports.resize(shards.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      threads.emplace_back([&, i] {
        net::PartyClientOptions popts;
        popts.connect = daemon->local_addr();
        popts.index = i;
        popts.parties = shards.size();
        popts.sap = sap;
        popts.tcp = test_tcp();
        parties[i] = std::make_unique<net::PartyClient>(shards[i], popts);
        reports[i] = parties[i]->run_exchange();
      });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < 10'000 && !daemon->serving(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return daemon->serving();
  }

  net::MinerDaemon::Summary finish() {
    for (auto& p : parties) p->finish();
    return done.get();
  }
};

std::uint64_t stats_counter(const sap::obs::Snapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters)
    if (key == name) return value;
  return 0;
}

struct DistributedRun {
  net::MinerDaemon::Summary summary;
  std::vector<proto::PartyReport> reports;
  std::vector<proto::WireMiningResponse> responses;  // from party 0
};

/// Run k party clients (threads, real sockets) against a MinerDaemon.
/// Party 0 additionally streams `batches` sequential contributions and
/// issues one nb-train-accuracy request after each.
DistributedRun run_distributed(std::size_t k, std::uint64_t seed,
                               const std::vector<Dataset>& shards,
                               const std::vector<Dataset>& batches) {
  ExchangedDaemon live(k, seed);
  SAP_REQUIRE(live.exchange(shards, fast_opts(seed)), "daemon never started serving");
  DistributedRun run;
  run.reports = live.reports;
  for (const auto& batch : batches) {
    (void)live.parties[0]->contribute(batch);
    run.responses.push_back(live.parties[0]->mine_named("nb-train-accuracy"));
  }
  run.summary = live.finish();
  return run;
}

TEST(TcpDistributed, ExchangeAndContributeBitIdenticalToSimulated) {
  const std::size_t k = 3;
  const std::uint64_t seed = 1313;
  auto setup = stream_setup(k, seed);
  const std::vector<Dataset> batches{setup.stream.slice(0, 12), setup.stream.slice(12, 30)};

  // Reference: the identical logical session in one process (SapSession),
  // with party 0 contributing the same batches in the same order.
  proto::SapSession reference(setup.shards, fast_opts(seed));
  reference.run_until(proto::SessionPhase::kMine);
  std::vector<std::vector<double>> ref_values;
  for (const auto& batch : batches) {
    (void)reference.contribute(0, batch);
    ref_values.push_back(reference.engine().run({"nb-train-accuracy", {}}).values);
  }
  const auto ref_pool = *reference.engine().pool_view().data;

  const auto run = run_distributed(k, seed, setup.shards, batches);

  // The pooled unified space is bit-identical across the process boundary.
  EXPECT_EQ(run.summary.pool_records, ref_pool.size());
  EXPECT_EQ(run.summary.pool_digest, net::dataset_digest(ref_pool));
  EXPECT_EQ(run.summary.contributions, batches.size());
  EXPECT_EQ(run.summary.pool_epoch, 1u + batches.size());

  // Wire-served job reports equal in-process serving after every append.
  ASSERT_EQ(run.responses.size(), ref_values.size());
  for (std::size_t b = 0; b < ref_values.size(); ++b)
    EXPECT_EQ(run.responses[b].values, ref_values[b]) << "batch " << b;

  // Party-side accounting matches the in-process run exactly.
  const auto ref_result = reference.mine();
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(run.reports[i].local_rho, ref_result.parties[i].local_rho) << i;
    EXPECT_EQ(run.reports[i].bound, ref_result.parties[i].bound) << i;
    EXPECT_EQ(run.reports[i].satisfaction, ref_result.parties[i].satisfaction) << i;
    EXPECT_EQ(run.reports[i].risk_sap, ref_result.parties[i].risk_sap) << i;
  }
}

TEST(TcpDistributed, DaemonSurvivesHostileClientsAndSendsNegativeReceipts) {
  const std::size_t k = 3;
  const std::uint64_t seed = 1919;
  auto setup = stream_setup(k, seed);
  const auto seeds = sap::proto::logic::derive_session_seeds(seed, k);

  ExchangedDaemon live(k, seed);
  ASSERT_TRUE(live.exchange(setup.shards, fast_opts(seed)));
  const proto::PartyId miner = static_cast<proto::PartyId>(k);

  // Hostile client 1: WRONG session secret — its envelopes fail the
  // integrity check at the miner. The daemon must reject per-message, not
  // die.
  {
    auto rogue = net::TcpTransport::connect(live.daemon->local_addr(),
                                            seeds.session_secret ^ 0xBAD, test_tcp());
    const auto rogue_id = rogue->claim_party(net::kClaimAnyParty);
    rogue->send(rogue_id, miner, proto::PayloadKind::kContribution,
                std::vector<double>{1.0, 2.0, 3.0});
    rogue->send_bye();
  }

  // Hostile client 2, at the serving door: correct secret, valid codec, but
  // a nonce the miner never negotiated — must get the NEGATIVE receipt
  // (epoch 0) immediately instead of silence, not a typed refusal.
  {
    net::ServeClient rogue(live.daemon->reactor_addr(), seed, k);
    sap::rng::Engine eng(7);
    const sap::linalg::Matrix y =
        sap::linalg::Matrix::generate(setup.shards[0].dims(), 4, [&] { return eng.normal(); });
    const std::vector<int> labels{0, 1, 0, 1};
    try {
      (void)rogue.contribute_wire(proto::encode_contribution(0xDEADBEEF, y, labels));
      ADD_FAILURE() << "an unknown nonce must get a negative receipt";
    } catch (const net::ServeError& e) {
      ADD_FAILURE() << "expected a negative receipt, got " << e.what();
    } catch (const sap::Error& e) {
      EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos) << e.what();
    }
    rogue.bye();
  }

  // The daemon survived both: honest serving still works end to end.
  const auto receipt = live.parties[0]->contribute(setup.stream.slice(0, 8));
  EXPECT_EQ(receipt.pool_epoch, 2u);
  const auto response = live.parties[0]->mine_named("record-count");
  ASSERT_EQ(response.values.size(), 1u);
  EXPECT_EQ(response.values[0], static_cast<double>(receipt.pool_records));

  const auto summary = live.finish();
  EXPECT_EQ(summary.contributions, 1u);  // the hostile batches never landed
  EXPECT_EQ(summary.pool_epoch, 2u);
}

TEST(TcpDistributed, DoorRefusesServingUntilTheExchangeInstalls) {
  const std::size_t k = 3;
  const std::uint64_t seed = 2121;
  auto setup = stream_setup(k, seed);
  ExchangedDaemon live(k, seed);

  net::ServeClient::Options copts;
  copts.timeout_ms = 5000;
  const auto expect_not_serving = [&](const std::function<void()>& call, const char* what) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      call();
      ADD_FAILURE() << "the door served a " << what << " before the install";
    } catch (const net::ServeError& e) {
      ADD_FAILURE() << what << ": expected the transient refusal, got " << e.what();
    } catch (const sap::Error& e) {
      EXPECT_NE(std::string(e.what()).find("not serving yet"), std::string::npos) << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(copts.timeout_ms))
        << what;
  };

  // Before any party connected: the client gets an auto-assigned id, never
  // a party's, and a fast refusal for every serving kind.
  net::ServeClient early(live.daemon->local_addr(), seed, k, copts);
  EXPECT_GE(early.id(), net::kFirstClientId);
  sap::rng::Engine eng(3);
  const auto y =
      sap::linalg::Matrix::generate(setup.shards[0].dims(), 2, [&] { return eng.normal(); });
  const auto wire = proto::encode_contribution(0xC0FFEE, y, std::vector<int>{0, 1});
  expect_not_serving([&] { (void)early.mine_named("record-count"); }, "mining request");
  expect_not_serving([&] { (void)early.contribute_wire(wire); }, "contribution");

  // The exchange then completes unchanged.
  ASSERT_TRUE(live.exchange(setup.shards, fast_opts(seed)));
  proto::SapSession reference(setup.shards, fast_opts(seed));
  reference.run_until(proto::SessionPhase::kMine);

  // After the install, the same client is served.
  const auto response = early.mine_named("record-count");
  ASSERT_EQ(response.values.size(), 1u);
  EXPECT_EQ(response.values[0], 100.0);
  early.bye();

  const auto summary = live.finish();
  EXPECT_EQ(summary.pool_digest, net::dataset_digest(*reference.engine().pool_view().data));
  EXPECT_EQ(summary.requests_served, 1u);
  EXPECT_EQ(summary.contributions, 0u);
  EXPECT_EQ(summary.pool_epoch, 1u);
}

TEST(TcpDistributed, PartyRejectsARoutingNoticeThePlanCannotProduce) {
  const std::size_t k = 3;
  const std::uint64_t seed = 2727;
  auto setup = stream_setup(k, seed);
  const auto seeds = proto::logic::derive_session_seeds(seed, k);

  // The daemon's door routes; run() is never called.
  net::MinerDaemonOptions opts;
  opts.listen = {"127.0.0.1", 0};
  opts.parties = k;
  opts.seed = seed;
  net::MinerDaemon daemon(opts);
  net::PartyClientOptions popts;
  popts.connect = daemon.local_addr();
  popts.index = 0;
  popts.parties = k;
  popts.sap = fast_opts(seed);
  popts.tcp = test_tcp();
  net::PartyClient party(setup.shards[0], popts);

  // A fake coordinator: a valid target space, then a notice naming
  // receiver k+3, which no exchange plan produces.
  auto coordinator =
      net::TcpTransport::connect(daemon.local_addr(), seeds.session_secret, test_tcp());
  const auto coord = coordinator->claim_party(static_cast<std::uint32_t>(k - 1));
  Engine coord_eng = seeds.coordinator_eng;
  const auto target = proto::logic::make_target_space(setup.shards[0].dims(), coord_eng);
  coordinator->send(coord, 0, proto::PayloadKind::kTargetSpace,
                    proto::encode_target_space(target.rotation(), target.translation()));
  const auto stray = static_cast<proto::PartyId>(k + 3);
  coordinator->send(coord, 0, proto::PayloadKind::kRoutingNotice,
                    proto::encode_routing(stray, 0));
  try {
    (void)party.run_exchange();
    ADD_FAILURE() << "a notice naming receiver k+3 must be rejected";
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("routing notice"), std::string::npos) << e.what();
  }

  // Party 0 never sent its shard: nothing is parked for the stray id, and
  // no adaptor reached the coordinator.
  auto sink = net::TcpTransport::connect(daemon.local_addr(), seeds.session_secret, test_tcp());
  const auto sink_id = sink->claim_party(stray);
  net::TcpTransport::Delivery out;
  EXPECT_FALSE(sink->try_receive(sink_id, out, 300));
  EXPECT_FALSE(coordinator->try_receive(coord, out, 0));
}

TEST(TcpDistributed, NonFiniteContributionGetsANegativeReceiptAtTheDoor) {
  const std::size_t k = 3;
  const std::uint64_t seed = 2323;
  auto setup = stream_setup(k, seed);
  ExchangedDaemon live(k, seed);
  ASSERT_TRUE(live.exchange(setup.shards, fast_opts(seed)));

  // Party 0's side of the math (same derived engine, same LocalOptimize),
  // so the nonce and adaptor are valid and only the NaN is wrong.
  const auto seeds = proto::logic::derive_session_seeds(seed, k);
  Engine eng = seeds.provider_eng[0];
  const auto local = proto::logic::optimize_local(setup.shards[0].features_T(),
                                                  setup.shards[0].dims(), fast_opts(seed), eng);
  const Dataset batch = setup.stream.slice(0, 10);
  const auto y = local.g.apply(batch.features_T(), eng);
  auto poisoned = y;
  poisoned(1, 3) = std::numeric_limits<double>::quiet_NaN();

  net::ServeClient client(live.daemon->reactor_addr(), seed, k);
  const auto rejected_before =
      stats_counter(live.daemon->stats_snapshot(), "ingest.rejected");
  try {
    (void)client.contribute_wire(proto::encode_contribution(local.nonce, poisoned, batch.labels()));
    ADD_FAILURE() << "a NaN feature must be rejected";
  } catch (const net::ServeError& e) {
    ADD_FAILURE() << "expected a negative receipt, got " << e.what();
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos) << e.what();
  }
  EXPECT_EQ(stats_counter(live.daemon->stats_snapshot(), "ingest.rejected"), rejected_before + 1);
  EXPECT_EQ(live.daemon->engine().pool_epoch(), 1u);
  EXPECT_EQ(live.daemon->engine().pool_view().data->size(), 100u);

  // The same batch without the NaN lands.
  const auto receipt =
      client.contribute_wire(proto::encode_contribution(local.nonce, y, batch.labels()));
  EXPECT_EQ(receipt.pool_epoch, 2u);
  client.bye();
  EXPECT_EQ(live.finish().contributions, 1u);
}

TEST(TcpDistributed, PartyRedialsTheDoorAfterIdleEviction) {
  // The serving door evicts idle connections; a party that sat idle past
  // that must still contribute and mine — its client redials a connection
  // the door closed before writing the next request.
  const std::size_t k = 3;
  const std::uint64_t seed = 2525;
  auto setup = stream_setup(k, seed);
  ExchangedDaemon live(k, seed, /*door_idle_timeout_ms=*/200);
  ASSERT_TRUE(live.exchange(setup.shards, fast_opts(seed)));

  auto& party = *live.parties[0];
  EXPECT_EQ(party.contribute(setup.stream.slice(0, 8)).pool_epoch, 2u);
  const auto* door = live.daemon->reactor();
  for (int i = 0; i < 5000 && door->stats().evicted_idle == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(door->stats().evicted_idle, 1u) << "the door never evicted the idle party";
  EXPECT_EQ(door->parties(), k) << "an idle party link was evicted";

  EXPECT_EQ(party.contribute(setup.stream.slice(8, 16)).pool_epoch, 3u);
  const auto response = party.mine_named("record-count");
  ASSERT_EQ(response.values.size(), 1u);
  EXPECT_EQ(response.values[0], 116.0);
  EXPECT_EQ(live.finish().contributions, 2u);
}

TEST(TcpDistributed, ConcurrentContributorsGrowThePoolConsistently) {
  const std::size_t k = 4;
  const std::uint64_t seed = 1717;
  auto setup = stream_setup(k, seed);

  // Every party contributes one batch concurrently: arrival order at the
  // miner is scheduling-dependent, so compare the pool as a record multiset
  // against a reference that appends the same per-party batches in a fixed
  // order.
  std::vector<Dataset> batches;
  for (std::size_t i = 0; i < k; ++i)
    batches.push_back(setup.stream.slice(i * 10, (i + 1) * 10));

  proto::SapSession reference(setup.shards, fast_opts(seed));
  reference.run_until(proto::SessionPhase::kMine);
  for (std::size_t i = 0; i < k; ++i) (void)reference.contribute(i, batches[i]);
  const auto ref_pool = *reference.engine().pool_view().data;

  ExchangedDaemon live(k, seed);
  ASSERT_TRUE(live.exchange(setup.shards, fast_opts(seed)));
  std::vector<std::thread> contributors;
  for (std::size_t i = 0; i < k; ++i) {
    contributors.emplace_back([&, i] {
      const auto receipt = live.parties[i]->contribute(batches[i]);
      EXPECT_GE(receipt.pool_records, 100u + batches[i].size());
    });
  }
  for (auto& t : contributors) t.join();
  const auto summary = live.finish();

  EXPECT_EQ(summary.contributions, k);
  EXPECT_EQ(summary.pool_records, ref_pool.size());
  EXPECT_EQ(net::dataset_multiset_digest(*live.daemon->engine().pool_view().data),
            net::dataset_multiset_digest(ref_pool));
}

}  // namespace
