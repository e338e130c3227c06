#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

/// \file oracle.h
/// \brief Exact selectivity by brute force, written independently of the
/// program's own labelling code: for each audited query, the cosine distance
/// to every corpus point, sorted, then one binary search per threshold.

namespace servebench {

/// One audited query: a vector and the thresholds it was served at.
struct AuditQuery {
  const float* x = nullptr;
  std::vector<float> thresholds;
};

class ExactOracle {
 public:
  explicit ExactOracle(selnet::tensor::Matrix corpus);

  /// Exact counts, `out[i][j]` = points within thresholds[j] of query i.
  /// Runs on `threads` std::threads; the result does not depend on it.
  std::vector<std::vector<uint32_t>> Counts(
      const std::vector<AuditQuery>& queries, size_t threads) const;

 private:
  std::vector<float> SortedDistances(const float* q) const;

  selnet::tensor::Matrix corpus_;
  std::vector<float> norms_;
};

}  // namespace servebench
