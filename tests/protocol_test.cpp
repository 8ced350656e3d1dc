// Tests for sap::proto: message codecs, the encrypted in-process Transport,
// risk formulas, and the SapSession phase machine's information-flow
// invariants (DESIGN.md §4).
//
// The transport and end-to-end SAP suites are instantiated over every
// in-process TransportKind. SapSession runs LocalOptimize and the per-party
// accounting on a pool with one worker per provider, and each party's
// scoring pool nests inside it: the thread-count tests below pin that
// neither changes the pool, the accounting or the message trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "data/normalize.hpp"
#include "golden.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "linalg/orthogonal.hpp"
#include "protocol/adversary.hpp"
#include "protocol/baseline.hpp"
#include "protocol/message.hpp"
#include "protocol/risk.hpp"
#include "protocol/session.hpp"

namespace {

using sap::data::Dataset;
using sap::linalg::Matrix;
using sap::linalg::Vector;
using sap::rng::Engine;
namespace proto = sap::proto;

/// Normalized pool split into k provider datasets.
std::vector<Dataset> provider_split(const std::string& dataset, std::size_t k,
                                    std::uint64_t seed) {
  const Dataset pool = sap::data::make_uci(dataset, seed);
  sap::data::MinMaxNormalizer norm;
  norm.fit(pool.features());
  const Dataset normalized(pool.name(), norm.transform(pool.features()), pool.labels());
  Engine eng(seed ^ 0xBEEF);
  sap::data::PartitionOptions opts;
  return sap::data::partition(normalized, k, opts, eng);
}

std::string transport_name(proto::TransportKind kind) {
  return kind == proto::TransportKind::kSimulated ? "Simulated" : "Unknown";
}

std::string transport_label(const ::testing::TestParamInfo<proto::TransportKind>& info) {
  return transport_name(info.param);
}

/// FNV-1a over every trace entry's (from, to, kind, wire_bytes): the
/// message order and sizes, without the ciphertext.
std::uint64_t trace_metadata_digest(const std::vector<proto::Message>& trace) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  };
  for (const auto& msg : trace) {
    mix(msg.from);
    mix(msg.to);
    mix(static_cast<std::uint64_t>(msg.kind));
    mix(msg.wire_bytes);
  }
  return h;
}

// ------------------------------------------------------------ envelopes

TEST(Envelope, RoundTripWithCorrectKey) {
  const std::vector<double> plain{1.0, -2.5, 3.25, 0.0};
  const proto::EncryptedEnvelope env(plain, 0xABCD);
  EXPECT_EQ(env.open(0xABCD), plain);
}

TEST(Envelope, WrongKeyDetected) {
  const std::vector<double> plain{1.0, 2.0};
  const proto::EncryptedEnvelope env(plain, 111);
  EXPECT_THROW(env.open(222), sap::Error);
}

TEST(Envelope, CiphertextDiffersFromPlaintext) {
  const std::vector<double> plain{42.0, 43.0, 44.0};
  const proto::EncryptedEnvelope env(plain, 7);
  ASSERT_EQ(env.ciphertext().size(), plain.size());
  // At least one word must differ (overwhelmingly all of them).
  bool any_diff = false;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (env.ciphertext()[i] != std::bit_cast<std::uint64_t>(plain[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------------ codecs

TEST(Codec, DatasetRoundTrip) {
  Engine eng(1);
  Matrix f = Matrix::generate(3, 7, [&] { return eng.normal(); });
  const std::vector<int> labels{0, 1, 2, 0, 1, 2, 0};
  const auto wire = proto::encode_dataset(f, labels);
  const auto back = proto::decode_dataset(wire);
  EXPECT_TRUE(back.features.approx_equal(f, 0.0));
  EXPECT_EQ(back.labels, labels);
}

TEST(Codec, DatasetMalformedRejected) {
  EXPECT_THROW(proto::decode_dataset(std::vector<double>{3.0}), sap::Error);
  EXPECT_THROW(proto::decode_dataset(std::vector<double>{2.0, 2.0, 1.0}), sap::Error);
}

TEST(Codec, TargetSpaceRoundTrip) {
  Engine eng(2);
  const Matrix r = sap::linalg::random_orthogonal(4, eng);
  const Vector t{0.1, -0.2, 0.3, -0.4};
  const auto wire = proto::encode_target_space(r, t);
  const auto back = proto::decode_target_space(wire);
  EXPECT_TRUE(back.r.approx_equal(r, 0.0));
  EXPECT_EQ(back.t, t);
}

TEST(Codec, RoutingRoundTrip) {
  const auto notice = proto::decode_routing(proto::encode_routing(7, 2));
  EXPECT_EQ(notice.receiver, 7u);
  EXPECT_EQ(notice.inbound, 2u);
  EXPECT_THROW(proto::decode_routing(std::vector<double>{1.0}), sap::Error);
  EXPECT_THROW(proto::decode_routing(std::vector<double>{1.0, 2.0, 3.0}), sap::Error);
}

TEST(Codec, PayloadKindNamesAreDistinct) {
  std::set<std::string> names;
  for (auto kind : {proto::PayloadKind::kTargetSpace, proto::PayloadKind::kRoutingNotice,
                    proto::PayloadKind::kPerturbedData, proto::PayloadKind::kForwardedData,
                    proto::PayloadKind::kSpaceAdaptor, proto::PayloadKind::kAdaptorSequence,
                    proto::PayloadKind::kModelReport})
    names.insert(proto::to_string(kind));
  EXPECT_EQ(names.size(), 7u);
}

// ------------------------------------------------------------ transports

/// Conformance of the in-process backend named by the parameter.
class TransportConformance : public ::testing::TestWithParam<proto::TransportKind> {};

TEST_P(TransportConformance, DeliversInOrder) {
  proto::Transport net(1);
  const auto a = net.add_party();
  const auto b = net.add_party();
  net.send(a, b, proto::PayloadKind::kRoutingNotice, std::vector<double>{1.0});
  net.send(a, b, proto::PayloadKind::kRoutingNotice, std::vector<double>{2.0});
  ASSERT_TRUE(net.has_mail(b));
  EXPECT_DOUBLE_EQ(net.receive(b).payload[0], 1.0);
  EXPECT_DOUBLE_EQ(net.receive(b).payload[0], 2.0);
  EXPECT_FALSE(net.has_mail(b));
}

TEST_P(TransportConformance, SelfSendRejected) {
  proto::Transport net(1);
  const auto a = net.add_party();
  EXPECT_THROW(net.send(a, a, proto::PayloadKind::kRoutingNotice, std::vector<double>{1.0}),
               sap::Error);
}

TEST_P(TransportConformance, EmptyInboxThrows) {
  proto::Transport net(1);
  const auto a = net.add_party();
  (void)net.add_party();
  EXPECT_THROW(net.receive(a), sap::Error);
}

TEST_P(TransportConformance, TraceRecordsMetadataAndBytes) {
  proto::Transport net(99);
  const auto a = net.add_party();
  const auto b = net.add_party();
  const std::vector<double> payload(10, 1.0);
  net.send(a, b, proto::PayloadKind::kPerturbedData, payload);
  ASSERT_EQ(net.trace().size(), 1u);
  EXPECT_EQ(net.trace()[0].from, a);
  EXPECT_EQ(net.trace()[0].to, b);
  EXPECT_EQ(net.trace()[0].wire_bytes, 80u);
  EXPECT_EQ(net.total_bytes(), 80u);
  EXPECT_EQ(net.count_received(b, proto::PayloadKind::kPerturbedData), 1u);
  EXPECT_EQ(net.count_received(a, proto::PayloadKind::kPerturbedData), 0u);
}

TEST_P(TransportConformance, LinkBytesAggregatesPerDirectedPair) {
  proto::Transport net(5);
  const auto a = net.add_party();
  const auto b = net.add_party();
  net.send(a, b, proto::PayloadKind::kRoutingNotice, std::vector<double>{1.0});
  net.send(a, b, proto::PayloadKind::kRoutingNotice, std::vector<double>{1.0, 2.0});
  net.send(b, a, proto::PayloadKind::kRoutingNotice, std::vector<double>{1.0});
  const auto bytes = net.link_bytes();
  EXPECT_EQ(bytes.at({a, b}), 24u);
  EXPECT_EQ(bytes.at({b, a}), 8u);
}

TEST_P(TransportConformance, IdenticalSecretYieldsIdenticalCiphertext) {
  // Link keys derive from the session secret alone: same secret + same
  // sends → same ciphertext in the trace.
  proto::Transport first(77);
  proto::Transport second(77);
  for (auto* net : {&first, &second}) {
    const auto a = net->add_party();
    const auto b = net->add_party();
    net->send(a, b, proto::PayloadKind::kPerturbedData, std::vector<double>{1.5, -2.5});
  }
  ASSERT_EQ(first.trace().size(), second.trace().size());
  const auto first_cipher = first.trace()[0].envelope.ciphertext();
  const auto second_cipher = second.trace()[0].envelope.ciphertext();
  ASSERT_EQ(first_cipher.size(), second_cipher.size());
  for (std::size_t i = 0; i < first_cipher.size(); ++i)
    EXPECT_EQ(first_cipher[i], second_cipher[i]);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(proto::TransportKind::kSimulated), transport_label);

// ------------------------------------------------------------ risk formulas

TEST(Risk, Equation1KnownValues) {
  // R = pi (1 - s rho / b): pi=1, s=1, rho=b → 0 (no residual risk).
  proto::RiskInputs in{.rho = 1.0, .bound = 1.0, .satisfaction = 1.0, .identifiability = 1.0};
  EXPECT_NEAR(proto::risk_of_privacy_breach(in), 0.0, 1e-12);
  // Half-satisfied: pi (1 - 0.5) = 0.5 pi.
  in.satisfaction = 0.5;
  in.identifiability = 0.2;
  EXPECT_NEAR(proto::risk_of_privacy_breach(in), 0.2 * 0.5, 1e-12);
}

TEST(Risk, Equation1MonotoneInSatisfactionAndIdentifiability) {
  proto::RiskInputs lo{.rho = 0.8, .bound = 1.0, .satisfaction = 0.9, .identifiability = 0.5};
  proto::RiskInputs hi = lo;
  hi.satisfaction = 0.95;
  EXPECT_LT(proto::risk_of_privacy_breach(hi), proto::risk_of_privacy_breach(lo));
  hi = lo;
  hi.identifiability = 0.9;
  EXPECT_GT(proto::risk_of_privacy_breach(hi), proto::risk_of_privacy_breach(lo));
}

TEST(Risk, Equation2MaxOfLocalAndCollaborationTerms) {
  proto::RiskInputs in{.rho = 0.6, .bound = 1.0, .satisfaction = 0.9, .identifiability = 0.5};
  // local term = 0.4; collab term with k=2: (1 - 0.54)/1 = 0.46 → max = 0.46
  EXPECT_NEAR(proto::sap_risk(in, 2), 0.46, 1e-12);
  // k=10: collab term 0.46/9 ≈ 0.051 → local term dominates.
  EXPECT_NEAR(proto::sap_risk(in, 10), 0.4, 1e-12);
}

TEST(Risk, Equation2ApproachesLocalRiskAsPartiesGrow) {
  proto::RiskInputs in{.rho = 0.7, .bound = 1.0, .satisfaction = 0.8, .identifiability = 1.0};
  const double local = (1.0 - 0.7);
  EXPECT_NEAR(proto::sap_risk(in, 1000), local, 1e-9);
}

TEST(Risk, InvalidInputsThrow) {
  proto::RiskInputs in;
  in.bound = 0.0;
  EXPECT_THROW(proto::risk_of_privacy_breach(in), sap::Error);
  in = {.rho = 2.0, .bound = 1.0, .satisfaction = 1.0, .identifiability = 1.0};
  EXPECT_THROW(proto::risk_of_privacy_breach(in), sap::Error);
  in = {.rho = 0.5, .bound = 1.0, .satisfaction = 1.0, .identifiability = 1.5};
  EXPECT_THROW(proto::risk_of_privacy_breach(in), sap::Error);
  in = {.rho = 0.5, .bound = 1.0, .satisfaction = 1.0, .identifiability = 1.0};
  EXPECT_THROW(proto::sap_risk(in, 1), sap::Error);
}

TEST(MinParties, ResidualToleranceCriterionMatchesHandComputation) {
  // k = 1 + ceil((1 - s0 r) / (1 - s0)); s0=0.95, r=0.9: (1-0.855)/0.05 = 2.9
  // → k = 1 + 3 = 4.
  EXPECT_EQ(proto::min_parties(0.95, 0.9, proto::MinPartiesCriterion::kResidualTolerance), 4u);
  // s0=0.99, r=0.89: (1-0.8811)/0.01 = 11.89 → k = 13.
  EXPECT_EQ(proto::min_parties(0.99, 0.89, proto::MinPartiesCriterion::kResidualTolerance),
            13u);
}

TEST(MinParties, MonotoneIncreasingInS0AndDecreasingInRate) {
  using C = proto::MinPartiesCriterion;
  std::size_t prev = 2;
  for (double s0 : {0.90, 0.92, 0.94, 0.96, 0.98, 0.99}) {
    const auto k = proto::min_parties(s0, 0.9, C::kResidualTolerance);
    EXPECT_GE(k, prev);
    prev = k;
  }
  EXPECT_GE(proto::min_parties(0.95, 0.85, C::kResidualTolerance),
            proto::min_parties(0.95, 0.98, C::kResidualTolerance));
}

TEST(MinParties, NoExtraRiskCriterionDecreasesInS0) {
  using C = proto::MinPartiesCriterion;
  const auto k_low = proto::min_parties(0.90, 0.9, C::kNoExtraRisk);
  const auto k_high = proto::min_parties(0.99, 0.9, C::kNoExtraRisk);
  EXPECT_LE(k_high, k_low);
}

TEST(MinParties, CapRespected) {
  const auto k = proto::min_parties(0.999999, 0.5,
                                    proto::MinPartiesCriterion::kResidualTolerance, 50);
  EXPECT_EQ(k, 51u);  // cap + 1 signals "unsatisfiable below cap"
}

TEST(MinParties, InvalidArgsThrow) {
  using C = proto::MinPartiesCriterion;
  EXPECT_THROW(proto::min_parties(0.0, 0.9, C::kResidualTolerance), sap::Error);
  EXPECT_THROW(proto::min_parties(1.0, 0.9, C::kResidualTolerance), sap::Error);
  EXPECT_THROW(proto::min_parties(0.9, 0.0, C::kResidualTolerance), sap::Error);
  EXPECT_THROW(proto::min_parties(0.9, 1.1, C::kResidualTolerance), sap::Error);
}

// ------------------------------------------------------------ SAP session

/// End-to-end SAP runs over Iris shards with the fast options, on the
/// backend named by the parameter.
class SapRun : public ::testing::TestWithParam<proto::TransportKind> {
 protected:
  static proto::SapOptions fast_opts(std::uint64_t seed, proto::TransportKind transport) {
    auto opts = proto::SapOptions::fast();
    opts.seed = seed;
    opts.transport = transport;
    return opts;
  }

  std::unique_ptr<proto::SapSession> make_session(std::size_t k, std::uint64_t seed) const {
    return std::make_unique<proto::SapSession>(provider_split("Iris", k, seed),
                                               fast_opts(seed, GetParam()));
  }
};

TEST_P(SapRun, UnifiedDatasetPoolsAllRecords) {
  auto session = make_session(4, 1);
  const auto result = session->run();
  EXPECT_EQ(result.unified.size(), 150u);  // Iris row count
  EXPECT_EQ(result.unified.dims(), 4u);
  EXPECT_EQ(result.unified.classes().size(), 3u);
}

TEST_P(SapRun, CoordinatorNeverReceivesData) {
  auto session = make_session(5, 2);
  (void)session->run();
  const auto& net = session->transport();
  const proto::PartyId coordinator = 4;  // k-1 with k=5
  EXPECT_EQ(net.count_received(coordinator, proto::PayloadKind::kPerturbedData), 0u);
  EXPECT_EQ(net.count_received(coordinator, proto::PayloadKind::kForwardedData), 0u);
}

TEST_P(SapRun, MinerReceivesExactlyKDatasetsAndKAdaptors) {
  auto session = make_session(5, 3);
  (void)session->run();
  const auto& net = session->transport();
  const proto::PartyId miner = 5;
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kForwardedData), 5u);
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kAdaptorSequence), 5u);
  // The miner must never see raw provider-to-provider traffic kinds.
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kPerturbedData), 0u);
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kTargetSpace), 0u);
}

TEST_P(SapRun, EveryProviderDatasetReachesMinerViaSomePeer) {
  auto session = make_session(6, 4);
  const auto result = session->run();
  ASSERT_EQ(result.audit_forwarder_of.size(), 6u);
  const proto::PartyId coordinator = 5;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NE(result.audit_forwarder_of[i], coordinator)
        << "coordinator must never forward data";
    EXPECT_LT(result.audit_forwarder_of[i], 5u);
  }
}

TEST_P(SapRun, PartyReportsAreComplete) {
  auto session = make_session(4, 5);
  const auto result = session->run();
  ASSERT_EQ(result.parties.size(), 4u);
  for (const auto& p : result.parties) {
    EXPECT_GT(p.local_rho, 0.0);
    EXPECT_GE(p.bound, p.local_rho);
    EXPECT_GT(p.satisfaction, 0.0);
    EXPECT_NEAR(p.identifiability, 1.0 / 3.0, 1e-12);
    EXPECT_GE(p.risk_breach, 0.0);
    EXPECT_LE(p.risk_breach, 1.0);
    EXPECT_GE(p.risk_sap, 0.0);
    EXPECT_LE(p.risk_sap, 1.0);
  }
}

TEST_P(SapRun, DeterministicForSameSeed) {
  const auto a = make_session(4, 42)->run();
  const auto b = make_session(4, 42)->run();
  EXPECT_TRUE(a.unified.features().approx_equal(b.unified.features(), 0.0));
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  ASSERT_EQ(a.parties.size(), b.parties.size());
  for (std::size_t i = 0; i < a.parties.size(); ++i)
    EXPECT_DOUBLE_EQ(a.parties[i].local_rho, b.parties[i].local_rho);
}

TEST_P(SapRun, DifferentSeedsShuffleAssignments) {
  const auto a = make_session(6, 1)->run();
  const auto b = make_session(6, 99)->run();
  // Forwarder assignments should differ for at least one provider across
  // two independent runs (probability of full coincidence is negligible).
  EXPECT_NE(a.audit_forwarder_of, b.audit_forwarder_of);
}

TEST_P(SapRun, NamedJobRunsAndReportsBroadcast) {
  auto session = make_session(4, 7);
  const auto result = session->mine_named("record-count");
  EXPECT_EQ(session->engine().run({"record-count", {}}).values,
            std::vector<double>{static_cast<double>(result.unified.size())});
  // One model report per provider.
  std::size_t reports = 0;
  for (proto::PartyId p = 0; p < 4; ++p)
    reports += session->transport().count_received(p, proto::PayloadKind::kModelReport);
  EXPECT_EQ(reports, 4u);
}

TEST_P(SapRun, FewerThanThreeProvidersRejected) {
  EXPECT_THROW(proto::SapSession(provider_split("Iris", 2, 1), fast_opts(1, GetParam())),
               sap::Error);
}

TEST_P(SapRun, MismatchedDimensionsRejected) {
  auto parts = provider_split("Iris", 3, 1);
  // Corrupt one provider with a different dimensionality.
  parts[1] = Dataset("bad", Matrix(20, 3, 0.5), std::vector<int>(20, 0));
  EXPECT_THROW(proto::SapSession(std::move(parts), fast_opts(1, GetParam())), sap::Error);
}

// ------------------------------------------------------------ phase machine

TEST_P(SapRun, PhasesAdvanceInDeclaredOrder) {
  auto session = make_session(4, 11);
  using P = proto::SessionPhase;
  const std::vector<P> expected{P::kLocalOptimize, P::kTargetDistribution,
                                P::kPermutationExchange, P::kPerturbAndForward,
                                P::kAdaptorAlignment, P::kMine};
  for (std::size_t i = 0; i + 1 < expected.size(); ++i) {
    EXPECT_EQ(session->phase(), expected[i]);
    session->advance();
  }
  EXPECT_EQ(session->phase(), P::kMine);
  // Terminal: advancing past kMine is a no-op.
  session->advance();
  EXPECT_EQ(session->phase(), P::kMine);
  // The log records every executed phase, in order, with cost snapshots.
  ASSERT_EQ(session->phase_log().size(), expected.size() - 1);
  for (std::size_t i = 0; i + 1 < expected.size(); ++i)
    EXPECT_EQ(session->phase_log()[i].phase, expected[i]);
  EXPECT_GT(session->phase_log().back().messages, 0u);
}

TEST_P(SapRun, PhasesAreIndividuallyObservable) {
  auto session = make_session(4, 12);
  session->run_until(proto::SessionPhase::kPermutationExchange);
  // After target distribution, only control-plane traffic exists.
  const auto& net = session->transport();
  EXPECT_EQ(net.count_received(4, proto::PayloadKind::kForwardedData), 0u);
  EXPECT_GT(net.count_received(0, proto::PayloadKind::kTargetSpace), 0u);
  session->run_until(proto::SessionPhase::kMine);
  EXPECT_EQ(net.count_received(4, proto::PayloadKind::kForwardedData), 4u);
}

TEST_P(SapRun, MultipleJobsWithoutRedoingExchange) {
  auto session = make_session(4, 13);
  session->run_until(proto::SessionPhase::kMine);
  const std::size_t exchange_messages = session->transport().trace().size();

  const auto r1 = session->mine_named("record-count");
  const auto r2 = session->mine_named("class-histogram");
  // Identical pool both times, no exchange traffic re-paid: each named job
  // adds exactly k model-report broadcasts.
  EXPECT_TRUE(r1.unified.features().approx_equal(r2.unified.features(), 0.0));
  EXPECT_EQ(r1.messages, exchange_messages + 4);
  EXPECT_EQ(r2.messages, exchange_messages + 8);
}

TEST_P(SapRun, CustomRegisteredJobIsServed) {
  auto session = make_session(4, 14);
  bool ran = false;
  proto::JobSpec spec;
  spec.name = "my-job";
  spec.run = [&](const Dataset& unified, const proto::JobParams&) {
    ran = true;
    return std::vector<double>{static_cast<double>(unified.dims())};
  };
  session->engine().registry().register_job(std::move(spec));
  const auto names = session->job_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "my-job"), names.end());
  (void)session->mine_named("my-job");
  EXPECT_TRUE(ran);
}

TEST_P(SapRun, UnknownNamedJobRejected) {
  auto session = make_session(4, 15);
  EXPECT_THROW(session->mine_named("no-such-job"), sap::Error);
}

INSTANTIATE_TEST_SUITE_P(Backends, SapRun, ::testing::Values(proto::TransportKind::kSimulated),
                         transport_label);

TEST(SapThreadCounts, UnifiedPoolIsBitIdenticalAcrossThreadCounts) {
  // The party pool runs every provider's LocalOptimize and accounting at
  // once; a serial scoring pool and a 4-thread one nested inside it must
  // give identical unified data, bytes and accounting for the same seed.
  auto opts = proto::SapOptions::fast();
  opts.seed = 1234;
  proto::SapSession serial(provider_split("Wine", 5, 9), opts);
  opts.optimizer.threads = 4;
  opts.mining_threads = 2;
  proto::SapSession threaded(provider_split("Wine", 5, 9), opts);

  const auto a = serial.run();
  const auto b = threaded.run();
  EXPECT_TRUE(a.unified.features().approx_equal(b.unified.features(), 0.0));
  EXPECT_EQ(a.unified.labels(), b.unified.labels());
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.messages, b.messages);
  ASSERT_EQ(a.parties.size(), b.parties.size());
  for (std::size_t i = 0; i < a.parties.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.parties[i].local_rho, b.parties[i].local_rho);
    EXPECT_DOUBLE_EQ(a.parties[i].satisfaction, b.parties[i].satisfaction);
  }
}

TEST(SapGolden, MatchesPinnedDeterministicBaseline) {
  // tests/golden.hpp is the one home of the pinned baseline values; see the
  // header for the re-pinning policy.
  auto opts = proto::SapOptions::fast();
  opts.seed = 4242;
  proto::SapSession session(provider_split("Iris", 3, 4242), opts);
  const auto result = session.run();
  ASSERT_EQ(result.parties.size(), 3u);
  EXPECT_NEAR(result.parties[0].local_rho, sap::testing::kGoldenSessionParty0Rho,
              sap::testing::kGoldenTolerance);
}

TEST(SapGolden, TraceMetadataMatchesPinnedDigest) {
  // Every send and receive runs on the session's thread in provider-index
  // order, so the trace is part of the protocol's observable behaviour. The
  // pin covers metadata only: ciphertext words carry floating-point low
  // bits, which golden.hpp lets differ across compilers.
  const auto trace_at = [](std::size_t optimizer_threads) {
    auto opts = proto::SapOptions::fast();
    opts.seed = 4242;
    opts.optimizer.threads = optimizer_threads;
    proto::SapSession session(provider_split("Iris", 3, 4242), opts);
    (void)session.run();
    return session.transport().trace();
  };
  const auto serial = trace_at(0);
  EXPECT_EQ(trace_metadata_digest(serial), sap::testing::kGoldenSessionTraceDigest);

  // Within one binary the whole trace, ciphertext included, is the same at
  // any scoring pool size.
  const auto threaded = trace_at(8);
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t m = 0; m < serial.size(); ++m) {
    EXPECT_EQ(threaded[m].from, serial[m].from) << "message " << m;
    EXPECT_EQ(threaded[m].to, serial[m].to) << "message " << m;
    EXPECT_EQ(threaded[m].kind, serial[m].kind) << "message " << m;
    EXPECT_EQ(threaded[m].wire_bytes, serial[m].wire_bytes) << "message " << m;
    const auto a = serial[m].envelope.ciphertext();
    const auto b = threaded[m].envelope.ciphertext();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "message " << m;
    EXPECT_EQ(threaded[m].envelope.checksum(), serial[m].envelope.checksum()) << "message " << m;
  }
}

TEST(SapThreadCounts, OptimizerThreadsNeverChangeTheResult) {
  // LocalOptimize's scoring pool (SapOptions::optimizer.threads) is a pure
  // latency knob: the per-candidate seed derivation makes every thread
  // count, nested inside the party pool, produce bit-identical pools and
  // accounting (optimizer.hpp determinism contract).
  sap::proto::SapResult reference;
  bool have_reference = false;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{8}, std::size_t{2}}) {
    auto opts = proto::SapOptions::fast();
    opts.seed = 4242;
    opts.optimizer.threads = threads;
    proto::SapSession session(provider_split("Iris", 3, 4242), opts);
    const auto result = session.run();
    if (!have_reference) {
      reference = result;
      have_reference = true;
      continue;
    }
    EXPECT_TRUE(result.unified.features().approx_equal(reference.unified.features(), 0.0));
    ASSERT_EQ(result.parties.size(), reference.parties.size());
    for (std::size_t i = 0; i < result.parties.size(); ++i) {
      EXPECT_EQ(result.parties[i].local_rho, reference.parties[i].local_rho);
      EXPECT_EQ(result.parties[i].bound, reference.parties[i].bound);
      EXPECT_EQ(result.parties[i].satisfaction, reference.parties[i].satisfaction);
      EXPECT_EQ(result.parties[i].risk_sap, reference.parties[i].risk_sap);
    }
  }
}

// Parameterized end-to-end sweep: the §3 information-flow invariants must
// hold for every (dataset, party count, transport) combination. The dataset
// is a std::string so the printed parameter carries no pointer value.
class SapInvariantSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t, proto::TransportKind>> {};

TEST_P(SapInvariantSweep, InformationFlowInvariantsHold) {
  const auto [dataset, k, transport] = GetParam();
  auto opts = proto::SapOptions::fast();
  opts.seed = 0xABC0 + k;
  opts.compute_satisfaction = false;
  opts.transport = transport;
  auto shards = provider_split(dataset, k, 7 * k + 1);
  std::size_t total_records = 0;
  for (const auto& s : shards) total_records += s.size();

  proto::SapSession session(std::move(shards), opts);
  const auto result = session.run();
  const auto& net = session.transport();
  const auto coordinator = static_cast<proto::PartyId>(k - 1);
  const auto miner = static_cast<proto::PartyId>(k);

  // 1. Unified pool is lossless.
  EXPECT_EQ(result.unified.size(), total_records);
  // 2. Coordinator never receives data.
  EXPECT_EQ(net.count_received(coordinator, proto::PayloadKind::kPerturbedData), 0u);
  EXPECT_EQ(net.count_received(coordinator, proto::PayloadKind::kForwardedData), 0u);
  // 3. Miner receives exactly k shards + k adaptors, and nothing else that
  //    would leak sources.
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kForwardedData), k);
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kAdaptorSequence), k);
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kTargetSpace), 0u);
  EXPECT_EQ(net.count_received(miner, proto::PayloadKind::kSpaceAdaptor), 0u);
  // 4. Forwarders are never the coordinator.
  for (const auto fwd : result.audit_forwarder_of) EXPECT_NE(fwd, coordinator);
  // 5. Identifiability accounting matches the party count.
  for (const auto& p : result.parties)
    EXPECT_NEAR(p.identifiability, 1.0 / static_cast<double>(k - 1), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndParties, SapInvariantSweep,
    ::testing::Combine(::testing::Values("Iris", "Wine", "Diabetes", "Votes"),
                       ::testing::Values(std::size_t{3}, std::size_t{5}, std::size_t{8}),
                       ::testing::Values(proto::TransportKind::kSimulated)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" + std::to_string(std::get<1>(info.param)) + "_" +
             transport_name(std::get<2>(info.param));
    });

TEST(SapIdentifiability, ForwarderChoiceIsNearUniformOverRuns) {
  // Monte-Carlo check of pi_i = 1/(k-1): over many protocol runs, provider
  // 0's data should reach the miner via each of the k-1 non-coordinator
  // peers roughly equally often.
  const std::size_t k = 5;
  std::map<proto::PartyId, int> counts;
  const int runs = 60;
  for (int r = 0; r < runs; ++r) {
    auto opts = proto::SapOptions::fast();
    opts.seed = 1000 + static_cast<std::uint64_t>(r);
    opts.compute_satisfaction = false;  // keep the Monte-Carlo cheap
    proto::SapSession session(provider_split("Iris", k, 77), opts);
    const auto result = session.run();
    ++counts[result.audit_forwarder_of[0]];
  }
  ASSERT_LE(counts.size(), k - 1);
  for (const auto& [forwarder, count] : counts) {
    EXPECT_LT(forwarder, k - 1);
    EXPECT_NEAR(static_cast<double>(count) / runs, 1.0 / (k - 1), 0.18);
  }
}

// ------------------------------------------------------------ single-shot use
//
// Ported from the removed SapProtocol compat wrapper's tests: the one-call
// construct → run() → inspect-the-network workflow the wrapper preserved
// must stay expressible directly on SapSession.

TEST(SapSingleShot, OneCallRunServesJobAndNetworkIsInspectable) {
  auto opts = proto::SapOptions::fast();
  opts.seed = 7;
  proto::SapSession session(provider_split("Iris", 4, 7), opts);
  EXPECT_EQ(session.provider_count(), 4u);
  const auto result = session.mine_named("record-count");
  EXPECT_EQ(result.unified.size(), 150u);
  EXPECT_EQ(session.engine().run({"record-count", {}}).values, std::vector<double>{150.0});
  EXPECT_EQ(session.transport().count_received(0, proto::PayloadKind::kModelReport), 1u);
  EXPECT_EQ(session.transport().count_received(4, proto::PayloadKind::kForwardedData), 4u);

  // A second session over the same inputs reproduces the pool bit for bit
  // (the historical wrapper's fresh-run-per-call semantics).
  proto::SapSession again(provider_split("Iris", 4, 7), opts);
  const auto direct = again.run();
  EXPECT_TRUE(result.unified.features().approx_equal(direct.unified.features(), 0.0));
}

TEST(SapSingleShot, FaultInjectionStillDetected) {
  auto opts = proto::SapOptions::fast();
  opts.seed = 8;
  opts.compute_satisfaction = false;
  proto::SapSession session(provider_split("Iris", 4, 8), opts);
  session.inject_faults([](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kSpaceAdaptor;
  });
  EXPECT_THROW(session.run(), sap::Error);
  EXPECT_GE(session.transport().dropped_count(), 1u);
}

// ------------------------------------------------------------ direct baseline

TEST(DirectBaseline, PoolsAllRecordsWithFullIdentifiability) {
  auto opts = proto::SapOptions::fast();
  opts.seed = 201;
  opts.compute_satisfaction = false;
  proto::DirectSubmissionProtocol protocol(provider_split("Iris", 4, 201), opts);
  const auto result = protocol.run();
  EXPECT_EQ(result.unified.size(), 150u);
  ASSERT_EQ(result.parties.size(), 4u);
  for (const auto& p : result.parties) EXPECT_DOUBLE_EQ(p.identifiability, 1.0);
}

TEST(DirectBaseline, RiskStrictlyAboveSapForSameParties) {
  auto opts = proto::SapOptions::fast();
  opts.seed = 202;
  auto shards_a = provider_split("Iris", 5, 202);
  auto shards_b = shards_a;
  proto::SapSession sap_session(std::move(shards_a), opts);
  proto::DirectSubmissionProtocol direct_protocol(std::move(shards_b), opts);
  const auto sap_result = sap_session.run();
  const auto direct_result = direct_protocol.run();

  double sap_risk_sum = 0.0, direct_risk_sum = 0.0;
  for (const auto& p : sap_result.parties) sap_risk_sum += p.risk_breach;
  for (const auto& p : direct_result.parties) direct_risk_sum += p.risk_breach;
  // pi drops from 1 to 1/(k-1) = 1/4: risk should shrink accordingly.
  EXPECT_LT(sap_risk_sum, direct_risk_sum);
}

TEST(DirectBaseline, CheaperOnTheWireThanSap) {
  auto opts = proto::SapOptions::fast();
  opts.seed = 203;
  opts.compute_satisfaction = false;
  auto shards_a = provider_split("Iris", 4, 203);
  auto shards_b = shards_a;
  proto::SapSession sap_session(std::move(shards_a), opts);
  proto::DirectSubmissionProtocol direct_protocol(std::move(shards_b), opts);
  const auto sap_result = sap_session.run();
  const auto direct_result = direct_protocol.run();
  EXPECT_LT(direct_result.total_bytes, sap_result.total_bytes);
}

TEST(DirectBaseline, TwoProvidersAllowed) {
  // Unlike SAP (which needs an anonymity set), direct submission works with
  // two providers.
  auto opts = proto::SapOptions::fast();
  opts.seed = 204;
  opts.compute_satisfaction = false;
  const Dataset pool = sap::data::make_uci("Iris", 204);
  Engine eng(204);
  sap::data::PartitionOptions popts;
  auto shards = sap::data::partition(pool, 2, popts, eng);
  proto::DirectSubmissionProtocol protocol(std::move(shards), opts);
  EXPECT_EQ(protocol.run().unified.size(), 150u);
}

// ------------------------------------------------------------ failure injection

class SapFaults : public ::testing::TestWithParam<proto::TransportKind> {
 protected:
  std::unique_ptr<proto::SapSession> make_session(std::size_t k, std::uint64_t seed) const {
    auto opts = proto::SapOptions::fast();
    opts.seed = seed;
    opts.compute_satisfaction = false;
    opts.transport = GetParam();
    return std::make_unique<proto::SapSession>(provider_split("Iris", k, seed), opts);
  }
};

TEST_P(SapFaults, DroppedDataMessageIsDetected) {
  // Drop the first perturbed-data message. Every send runs on the
  // session's thread, so a plain flag is enough; it is declared first
  // because the session's drop filter refers to it.
  bool dropped = false;
  auto session = make_session(4, 91);
  session->inject_faults([&dropped](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kPerturbedData && !std::exchange(dropped, true);
  });
  EXPECT_THROW(session->run(), sap::Error);
  EXPECT_GE(session->transport().dropped_count(), 1u);
}

TEST_P(SapFaults, DroppedRoutingNoticeAbortsBeforeExchange) {
  auto session = make_session(4, 92);
  session->inject_faults([](proto::PartyId, proto::PartyId to, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kRoutingNotice && to == 0;
  });
  try {
    session->run();
    FAIL() << "protocol must abort on missing setup messages";
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("setup"), std::string::npos);
  }
  // Crucially: no provider dataset may have reached the miner before the
  // abort (nothing is mined from a half-configured round).
  EXPECT_EQ(session->transport().count_received(4, proto::PayloadKind::kForwardedData), 0u);
}

TEST_P(SapFaults, DroppedAdaptorIsDetected) {
  auto session = make_session(5, 93);
  session->inject_faults([](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kSpaceAdaptor;
  });
  EXPECT_THROW(session->run(), sap::Error);
}

TEST_P(SapFaults, DroppedModelReportIsBenign) {
  // Losing the final broadcast degrades service but must not corrupt the
  // protocol result itself.
  auto session = make_session(4, 94);
  session->inject_faults([](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kModelReport;
  });
  const auto result = session->mine_named("record-count");
  EXPECT_EQ(result.unified.size(), 150u);
  EXPECT_EQ(session->transport().dropped_count(), 4u);
}

TEST_P(SapFaults, FailedSessionIsPoisonedAgainstResumption) {
  // A throw mid-exchange leaves partially-mutated state (queued mail,
  // advanced engines); re-running the session must be refused outright
  // rather than mining a corrupted pool.
  auto session = make_session(4, 96);
  session->inject_faults([](proto::PartyId, proto::PartyId, proto::PayloadKind kind) {
    return kind == proto::PayloadKind::kSpaceAdaptor;
  });
  EXPECT_THROW(session->run(), sap::Error);
  EXPECT_TRUE(session->failed());
  try {
    session->run();
    FAIL() << "poisoned session must refuse to resume";
  } catch (const sap::Error& e) {
    EXPECT_NE(std::string(e.what()).find("new session"), std::string::npos);
  }
}

TEST_P(SapFaults, NoFaultsMeansNoDrops) {
  auto session = make_session(4, 95);
  (void)session->run();
  EXPECT_EQ(session->transport().dropped_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SapFaults,
                         ::testing::Values(proto::TransportKind::kSimulated), transport_label);

// ------------------------------------------------------------ source linking

/// Split each shard: one half is what the miner observes, the other half
/// models the provider's previously published statistics (see adversary.hpp
/// on why profiles must not come from the observed shards themselves).
static double linking_accuracy(sap::data::PartitionKind kind, std::uint64_t seed) {
  const Dataset pool = sap::data::make_uci("Credit_g", seed);
  Engine eng(seed ^ 0xAD);
  sap::data::PartitionOptions popts;
  popts.kind = kind;
  popts.class_alpha = 0.4;
  const auto shards = sap::data::partition(pool, 6, popts, eng);
  std::vector<Dataset> observed, reference;
  for (const auto& shard : shards) {
    auto halves = sap::data::train_test_split(shard, 0.5, eng);
    observed.push_back(std::move(halves.train));
    reference.push_back(std::move(halves.test));
  }
  const auto obs = proto::observe_shards(observed, pool.classes());
  const auto prof = proto::provider_profiles(reference, pool.classes());
  return proto::link_sources(obs, prof).accuracy;
}

TEST(SourceLinking, UniformShardsStayNearBaseline) {
  // Fingerprinting uniform shards via reference profiles should do poorly:
  // all shards look like the pool.
  double acc = 0.0;
  const int reps = 8;
  for (int rep = 0; rep < reps; ++rep)
    acc += linking_accuracy(sap::data::PartitionKind::kUniform, 50 + rep);
  EXPECT_LT(acc / reps, 0.55);
}

TEST(SourceLinking, ClassSkewedShardsAreFarMoreLinkable) {
  double acc_uniform = 0.0, acc_class = 0.0;
  const int reps = 8;
  for (int rep = 0; rep < reps; ++rep) {
    acc_uniform += linking_accuracy(sap::data::PartitionKind::kUniform, 70 + rep);
    acc_class += linking_accuracy(sap::data::PartitionKind::kClass, 70 + rep);
  }
  EXPECT_GT(acc_class / reps, acc_uniform / reps + 0.15);
}

TEST(SourceLinking, PerfectFingerprintsAreFullyLinkable) {
  // Degenerate sanity check: single-class shards with distinct classes are
  // trivially linkable.
  Matrix f(30, 2, 0.5);
  std::vector<int> labels(30);
  for (std::size_t i = 0; i < 30; ++i) labels[i] = static_cast<int>(i / 10);
  const Dataset pool("three-classes", std::move(f), std::move(labels));
  std::vector<Dataset> shards;
  for (int c = 0; c < 3; ++c) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < 30; ++i)
      if (pool.label(i) == c) idx.push_back(i);
    shards.push_back(pool.subset(idx));
  }
  const auto obs = proto::observe_shards(shards, pool.classes());
  const auto prof = proto::provider_profiles(shards, pool.classes());
  const auto result = proto::link_sources(obs, prof);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_NEAR(result.baseline, 0.5, 1e-12);
}

TEST(SourceLinking, InvalidInputsThrow) {
  EXPECT_THROW(proto::link_sources({}, {}), sap::Error);
  std::vector<proto::ShardObservation> one(1);
  std::vector<proto::ProviderProfile> two(2);
  EXPECT_THROW(proto::link_sources(one, two), sap::Error);
}

TEST(SapCost, BytesScaleWithDataNotWithGossip) {
  // Data payloads dominate the wire cost: total bytes should be within a
  // small factor of 2x the raw data volume (each record crosses two hops).
  auto opts = proto::SapOptions::fast();
  opts.compute_satisfaction = false;
  proto::SapSession session(provider_split("Iris", 4, 9), opts);
  const auto result = session.run();
  const std::size_t raw_bytes = 150 * 4 * sizeof(double);
  EXPECT_GT(result.total_bytes, 2 * raw_bytes);       // two data hops
  EXPECT_LT(result.total_bytes, 2 * raw_bytes * 3);   // plus bounded overhead
}

}  // namespace
