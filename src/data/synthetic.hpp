// Synthetic stand-ins for the paper's 12 UCI datasets.
//
// The PODC'07 experiments run on UCI ML datasets that are not shipped with
// this repository (no network access in the build environment). Each dataset
// is replaced by a generator matching its published shape: record count,
// dimensionality, number of classes, class priors, and a class-separability
// level calibrated so the clean-data classifier accuracies land near the
// commonly reported figures for that dataset. Geometric perturbation and SAP
// only interact with the data through (a) its column variance structure and
// (b) its class geometry, both of which the generators exercise.
// See DESIGN.md §2 (substitutions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace sap::data {

/// Declarative description of one synthetic dataset.
struct SyntheticSpec {
  std::string name;
  std::size_t rows = 0;
  std::size_t dims = 0;
  std::size_t classes = 2;
  /// Class priors; empty → uniform. Must sum to ~1 when present.
  std::vector<double> priors;
  /// Distance between class mean vectors, in units of within-class spread.
  /// Higher → easier classification problem.
  double class_sep = 1.5;
  /// Fraction of features generated as binary indicators (Votes-style
  /// categorical data) instead of correlated Gaussians.
  double binary_fraction = 0.0;
  /// Rank of the shared low-rank correlation component (0 → independent
  /// features). Correlated features matter: they are what PCA/ICA attacks
  /// exploit.
  std::size_t corr_rank = 2;
};

/// Deterministically generate the dataset described by `spec`.
Dataset make_synthetic(const SyntheticSpec& spec, std::uint64_t seed);

/// Specs for the 12 datasets of the paper's Figures 5/6, in paper order:
/// Breast_w, Credit_a, Credit_g, Diabetes, Ecoli, Hepatitis, Heart,
/// Ionosphere, Iris, Shuttle, Votes, Wine.
/// Shuttle is scaled from 43.5k to 2k records to keep the SVM benches
/// tractable on one core (documented substitution; class structure kept).
const std::vector<SyntheticSpec>& uci_suite();

/// Generate one of the twelve by name (case-sensitive, as in uci_suite()).
/// Throws sap::Error for unknown names.
Dataset make_uci(const std::string& name, std::uint64_t seed);

/// The deterministic streaming-workload prep shared by sap_cli's
/// `contribute`/`party` subcommands and their tests: normalized UCI
/// dataset, shuffled under seed^0xC0B, the LAST batches*batch_records
/// records held back as the contribution stream (batch b =
/// stream.slice(b*m, (b+1)*m)), the rest partitioned into `parties`
/// shards. Every process that calls this with the same arguments derives
/// bit-identical shards and stream — the cross-process topology's
/// bit-identity guarantee depends on there being exactly ONE copy of this
/// sequence. Throws sap::Error when the dataset is too small for the
/// requested batches/parties.
struct StreamWorkload {
  std::vector<Dataset> shards;
  Dataset stream;
};
StreamWorkload make_stream_workload(const std::string& uci_name, std::size_t parties,
                                    std::size_t batches, std::size_t batch_records,
                                    std::uint64_t seed);

}  // namespace sap::data
