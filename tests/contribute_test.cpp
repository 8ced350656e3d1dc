// Protocol-level tests for the Contribute phase: streaming party
// contributions into the live unified pool by reusing the space adaptors
// negotiated in the initial exchange (no re-run of LocalOptimize/Exchange).
//
// Every end-to-end test is parameterized over both transport backends: the
// phase must behave identically — same acceptances, same rejections (an
// undeliverable contribution must fail fast on the threaded backend via
// starvation detection, not hang), and bit-identical pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "protocol/session.hpp"

namespace {

using sap::data::Dataset;
using sap::linalg::Matrix;
using sap::rng::Engine;
namespace proto = sap::proto;

/// Normalized Iris pool: the first 100 records become the k provider shards
/// of the initial exchange; the last 50 are held back as the stream that
/// arrives later through Contribute.
struct StreamSetup {
  std::vector<Dataset> shards;
  Dataset stream;
};

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

proto::SapOptions fast_opts(std::uint64_t seed, proto::TransportKind transport) {
  auto opts = proto::SapOptions::fast();
  opts.seed = seed;
  opts.compute_satisfaction = false;
  opts.transport = transport;
  return opts;
}

std::string transport_label(const ::testing::TestParamInfo<proto::TransportKind>& info) {
  return info.param == proto::TransportKind::kSimulated ? "Simulated" : "ThreadedLocal";
}

class Contribute : public ::testing::TestWithParam<proto::TransportKind> {};

TEST_P(Contribute, GrowsThePoolWithoutRedoingTheExchange) {
  auto setup = stream_setup(4, 301);
  proto::SapSession session(std::move(setup.shards), fast_opts(301, GetParam()));
  auto& engine = session.engine();
  EXPECT_EQ(engine.pool_view().data->size(), 100u);
  const std::size_t exchange_messages = session.transport().trace().size();

  const auto receipt = session.contribute(0, setup.stream.slice(0, 20));
  EXPECT_EQ(receipt.pool_epoch, 2u);
  EXPECT_EQ(receipt.pool_records, 120u);
  EXPECT_EQ(engine.pool_view().data->size(), 120u);
  // Exactly ONE new message: the kContribution itself — no new exchange.
  EXPECT_EQ(session.transport().trace().size(), exchange_messages + 1);
  EXPECT_EQ(session.transport().count_received(
                static_cast<proto::PartyId>(session.provider_count()),
                proto::PayloadKind::kContribution),
            1u);

  // Every provider can contribute, the coordinator included.
  const auto second = session.contribute(3, setup.stream.slice(20, 35));
  EXPECT_EQ(second.pool_epoch, 3u);
  EXPECT_EQ(second.pool_records, 135u);

  // Mining serves the grown pool.
  const auto count = engine.run({"record-count", {}});
  EXPECT_EQ(count.values, std::vector<double>{135.0});
  EXPECT_EQ(count.pool_epoch, 3u);
}

TEST_P(Contribute, NoiselessContributionLandsExactlyInTheTargetSpace) {
  // With sigma = 0 the whole pipeline is exact algebra: the appended records
  // must equal the batch mapped straight into the target space G_t — the
  // utility-preservation guarantee of adaptor reuse.
  auto setup = stream_setup(4, 302);
  auto opts = fast_opts(302, GetParam());
  opts.noise_sigma = 0.0;
  proto::SapSession session(std::move(setup.shards), opts);
  const auto result = session.mine();

  const Dataset batch = setup.stream.slice(0, 10);
  (void)session.contribute(1, batch);
  const auto view = session.engine().pool_view();
  ASSERT_EQ(view.data->size(), 110u);
  const Matrix expected = result.target_space.apply_noiseless(batch.features_T());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const auto got = view.data->record(100 + j);
    for (std::size_t i = 0; i < view.data->dims(); ++i)
      EXPECT_NEAR(got[i], expected(i, j), 1e-9) << "record " << j << " dim " << i;
    EXPECT_EQ(view.data->label(100 + j), batch.label(j));
  }
}

TEST_P(Contribute, UnknownContributorIsRejectedAndThePoolUntouched) {
  auto setup = stream_setup(4, 303);
  proto::SapSession session(std::move(setup.shards), fast_opts(303, GetParam()));
  (void)session.engine();

  const Dataset batch = setup.stream.slice(0, 10);
  Engine eng(1);
  const Matrix y = Matrix::generate(batch.dims(), batch.size(), [&] { return eng.uniform(); });
  try {
    (void)session.contribute_raw(0, /*nonce=*/0xDEAD, y, batch.labels());
    FAIL() << "a nonce without a negotiated adaptor must be rejected";
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown party"), std::string::npos);
  }
  EXPECT_EQ(session.engine().pool_view().data->size(), 100u);
  EXPECT_EQ(session.engine().pool_epoch(), 1u);

  // The rejection is not poisoning: a legitimate contribution still lands.
  const auto receipt = session.contribute(2, batch);
  EXPECT_EQ(receipt.pool_records, 110u);
}

TEST_P(Contribute, DimensionMismatchedBatchIsRejected) {
  auto setup = stream_setup(4, 304);
  proto::SapSession session(std::move(setup.shards), fast_opts(304, GetParam()));
  (void)session.engine();

  // Session-side validation rejects a malformed original-space batch...
  sap::data::SyntheticSpec wide;
  wide.name = "wide";
  wide.rows = 10;
  wide.dims = 7;
  const Dataset bad = sap::data::make_synthetic(wide, 5);
  EXPECT_THROW((void)session.contribute(0, bad), sap::Error);

  // ...and the MINER rejects a wire-level batch whose dimensionality does
  // not match the negotiated space, even under a VALID nonce.
  Engine eng(2);
  const Matrix y = Matrix::generate(7, 10, [&] { return eng.uniform(); });
  const std::vector<int> labels(10, 0);
  try {
    (void)session.contribute_raw(0, session.provider_nonce(0), y, labels);
    FAIL() << "dimension-mismatched wire batch must be rejected by the miner";
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("dimension mismatch"), std::string::npos);
  }
  EXPECT_EQ(session.engine().pool_view().data->size(), 100u);
}

TEST_P(Contribute, NonFiniteBatchIsRejectedAndThePoolUntouched) {
  // One NaN would poison every later fit on the pool (NB moments, kNN
  // distances, SVM margins): the miner's decoder rejects the batch like any
  // malformed one, and the pool and epoch stay put.
  auto setup = stream_setup(4, 308);
  proto::SapSession session(std::move(setup.shards), fast_opts(308, GetParam()));
  (void)session.engine();

  Dataset batch = setup.stream.slice(0, 10);
  Matrix x = batch.features();
  x(3, 1) = std::numeric_limits<double>::quiet_NaN();
  const Dataset poisoned("poisoned", std::move(x), batch.labels());
  EXPECT_THROW((void)session.contribute(1, poisoned), sap::Error);
  EXPECT_EQ(session.engine().pool_view().data->size(), 100u);
  EXPECT_EQ(session.engine().pool_epoch(), 1u);

  // Infinity on the wire is rejected the same way.
  Engine eng(3);
  Matrix y = Matrix::generate(batch.dims(), 4, [&] { return eng.uniform(); });
  y(0, 2) = -std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)session.contribute_raw(2, session.provider_nonce(2), y,
                                            std::vector<int>{0, 1, 0, 1}),
               sap::Error);
  EXPECT_EQ(session.engine().pool_epoch(), 1u);

  // Not poisoning: the clean batch still lands.
  const auto receipt = session.contribute(1, batch);
  EXPECT_EQ(receipt.pool_epoch, 2u);
  EXPECT_EQ(receipt.pool_records, 110u);
}

TEST_P(Contribute, DroppedContributionIsDetectedNotHung) {
  // The transport drops the contribution: the miner must fail fast — on the
  // threaded backend via starvation detection (all workers blocked or done,
  // no mail can arrive), not a timeout or a hang — and the pool stays put.
  auto setup = stream_setup(4, 305);
  proto::SapSession session(std::move(setup.shards), fast_opts(305, GetParam()));
  (void)session.engine();

  auto dropped = std::make_shared<std::atomic<bool>>(false);
  session.inject_faults([dropped](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    if (kind != proto::PayloadKind::kContribution) return false;
    return !dropped->exchange(true);
  });
  EXPECT_THROW((void)session.contribute(1, setup.stream.slice(0, 10)), sap::Error);
  EXPECT_TRUE(dropped->load());
  EXPECT_GE(session.transport().dropped_count(), 1u);
  EXPECT_EQ(session.engine().pool_view().data->size(), 100u);

  // Exactly-once drop filter: the retry goes through — service recovered.
  const auto receipt = session.contribute(1, setup.stream.slice(0, 10));
  EXPECT_EQ(receipt.pool_records, 110u);
}

TEST_P(Contribute, RejectedBeforeTheExchangeCompletes) {
  auto setup = stream_setup(4, 306);
  proto::SapSession session(std::move(setup.shards), fast_opts(306, GetParam()));
  // contribute() implicitly completes the phases (like engine()); but a
  // session poisoned mid-exchange must refuse to ingest.
  session.inject_faults([](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kSpaceAdaptor;
  });
  EXPECT_THROW((void)session.contribute(0, setup.stream.slice(0, 10)), sap::Error);
  EXPECT_TRUE(session.failed());
  EXPECT_THROW((void)session.contribute(0, setup.stream.slice(0, 10)), sap::Error);
}

TEST_P(Contribute, InvalidArgumentsRejectedUpFront) {
  auto setup = stream_setup(3, 307);
  proto::SapSession session(std::move(setup.shards), fast_opts(307, GetParam()));
  EXPECT_THROW((void)session.contribute(9, setup.stream.slice(0, 10)), sap::Error);
  EXPECT_THROW((void)session.contribute(0, setup.stream.slice(0, 0)), sap::Error);
  // Nothing ran: the exchange was never started by a failed validation.
  EXPECT_EQ(session.phase(), proto::SessionPhase::kLocalOptimize);
}

INSTANTIATE_TEST_SUITE_P(Backends, Contribute,
                         ::testing::Values(proto::TransportKind::kSimulated,
                                           proto::TransportKind::kThreadedLocal),
                         transport_label);

// ------------------------------------------------------------ replay determinism

TEST(ContributeReplay, IdenticalSequenceYieldsBitIdenticalPoolsAcrossTransports) {
  // Replaying the same contribution sequence over both backends must
  // produce byte-identical pools and epochs — pool mutations are
  // epoch-ordered and independent of delivery scheduling.
  const auto run_replay = [](proto::TransportKind transport) {
    auto setup = stream_setup(4, 308);
    proto::SapSession session(std::move(setup.shards), fast_opts(308, transport));
    (void)session.engine();
    (void)session.contribute(0, setup.stream.slice(0, 15));
    (void)session.contribute(3, setup.stream.slice(15, 30));
    (void)session.contribute(1, setup.stream.slice(30, 50));
    return session.engine().pool_view();
  };
  const auto sim = run_replay(proto::TransportKind::kSimulated);
  const auto threaded = run_replay(proto::TransportKind::kThreadedLocal);
  EXPECT_EQ(sim.epoch, 4u);
  EXPECT_EQ(threaded.epoch, 4u);
  ASSERT_EQ(sim.data->size(), threaded.data->size());
  EXPECT_TRUE(sim.data->features().approx_equal(threaded.data->features(), 0.0));
  EXPECT_EQ(sim.data->labels(), threaded.data->labels());
}

TEST(ContributeReplay, MineReflectsContributionsInItsResult) {
  auto setup = stream_setup(4, 309);
  proto::SapSession session(std::move(setup.shards),
                            fast_opts(309, proto::TransportKind::kSimulated));
  const auto before = session.mine();
  EXPECT_EQ(before.unified.size(), 100u);
  (void)session.contribute(2, setup.stream.slice(0, 30));
  const auto after = session.mine_named("record-count");
  EXPECT_EQ(after.unified.size(), 130u);
}

}  // namespace
