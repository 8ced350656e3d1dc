// libsap umbrella header — the full public API in one include.
//
//   #include "sap.hpp"
//
// Module map (see README.md for the architecture overview):
//   sap::common   — error handling, logging, stopwatch, text tables
//   sap::rng      — deterministic xoshiro256++ engine + distributions
//   sap::linalg   — Matrix, decompositions, random orthogonal, Procrustes
//   sap::data     — Dataset, normalizers, partitioners, synthetic UCI suite
//   sap::perturb  — GeometricPerturbation G(X)=RX+Psi+Delta, SpaceAdaptor
//   sap::privacy  — minimum privacy guarantee, FastICA, attack suite
//   sap::opt      — randomized perturbation optimizer, optimality rate
//   sap::ml       — KNN, SVM(RBF)/SMO, perceptron, Gaussian Naive Bayes
//   sap::proto    — the Space Adaptation Protocol, risk model, adversaries
//   sap::obs      — metrics registry, latency histograms, request tracing
//   sap::net      — TCP wire frames, transport, miner daemon / party client,
//                   seeded fault injection (sap::net::fault)
#pragma once

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

#include "rng/rng.hpp"

#include "linalg/decompose.hpp"
#include "linalg/matrix.hpp"
#include "linalg/orthogonal.hpp"
#include "linalg/stats.hpp"

#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

#include "perturb/geometric.hpp"
#include "perturb/space_adaptor.hpp"

#include "privacy/attacks.hpp"
#include "privacy/evaluator.hpp"
#include "privacy/fastica.hpp"
#include "privacy/metric.hpp"

#include "optimize/optimizer.hpp"

#include "classify/classifier.hpp"
#include "classify/knn.hpp"
#include "classify/naive_bayes.hpp"
#include "classify/perceptron.hpp"
#include "classify/svm.hpp"

#include "common/thread_pool.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include "protocol/adversary.hpp"
#include "protocol/baseline.hpp"
#include "protocol/jobs.hpp"
#include "protocol/message.hpp"
#include "protocol/mining_engine.hpp"
#include "protocol/party_logic.hpp"
#include "protocol/risk.hpp"
#include "protocol/session.hpp"
#include "protocol/transport.hpp"

#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
