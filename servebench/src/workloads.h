#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artifact.h"
#include "bench_util.h"
#include "oracle.h"

/// \file workloads.h
/// \brief The three serving workloads and the run that measures one of them.

namespace servebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string artifact_dir;
  std::string commit = "unknown";
};

/// Inputs shared by every workload: the stored artifact and the exact-count
/// oracle over the corpus it was trained on.
struct RunInputs {
  const Options* opt = nullptr;
  const Manifest* manifest = nullptr;
  std::string model_path;
  const ExactOracle* oracle = nullptr;
};

struct RunResult {
  MetricTable metrics;  ///< End-to-end and, in traced runs, per-layer.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  ///< Any entry makes the run incorrect.
  std::string meta;  ///< Workload-specific `key=value` pairs for the meta line.
};

bool IsWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

RunResult RunWorkload(const RunInputs& in);

}  // namespace servebench
