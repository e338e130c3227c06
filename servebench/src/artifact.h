#pragma once

#include <cstdint>
#include <string>

#include "data/synthetic.h"

/// \file artifact.h
/// \brief The stored SelNet-ct model the benchmark serves, and its manifest.
///
/// `artifact/face_cos.selm` holds core::SaveModel bytes. Beside it,
/// `artifact/MANIFEST` records how it was made: the corpus spec (so the
/// benchmark can regenerate the corpus for its exact-count oracle), the
/// training workload, seed and epochs, and a checksum of the model bytes
/// that the benchmark verifies at every load.

namespace servebench {

struct Manifest {
  selnet::data::SyntheticSpec corpus;  ///< Regenerated by GenerateMixture.
  std::string metric = "cos";          ///< Distance the model was trained on.
  size_t train_queries = 0;            ///< data::WorkloadSpec::num_queries.
  size_t train_w = 0;                  ///< Thresholds per training query.
  double max_sel_fraction = 0.0;       ///< Top of the training ladder.
  uint64_t workload_seed = 0;
  size_t epochs = 0;
  uint64_t train_seed = 0;
  size_t model_bytes = 0;
  uint64_t fnv1a64 = 0;  ///< Checksum of the model file's bytes.
};

/// FNV-1a 64-bit hash of `bytes`.
uint64_t Fnv1a64(const std::string& bytes);

/// Reads a whole file; false when it cannot be opened or read.
bool ReadFile(const std::string& path, std::string* out);

/// Manifest as `key=value` lines.
std::string FormatManifest(const Manifest& m);

/// Parses FormatManifest output; false (with `*err`) on a missing or
/// malformed key.
bool ParseManifest(const std::string& text, Manifest* m, std::string* err);

}  // namespace servebench
