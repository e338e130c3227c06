#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace servebench {
namespace {

float Dot(const float* a, const float* b, size_t d) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    for (size_t k = 0; k < 8; ++k) acc[k] += a[i + k] * b[i + k];
  }
  float sum = 0.0f;
  for (; i < d; ++i) sum += a[i] * b[i];
  for (float v : acc) sum += v;
  return sum;
}

}  // namespace

ExactOracle::ExactOracle(selnet::tensor::Matrix corpus)
    : corpus_(std::move(corpus)), norms_(corpus_.rows()) {
  for (size_t r = 0; r < corpus_.rows(); ++r) {
    const float* p = corpus_.row(r);
    norms_[r] = std::sqrt(Dot(p, p, corpus_.cols()));
  }
}

std::vector<float> ExactOracle::SortedDistances(const float* q) const {
  const size_t d = corpus_.cols();
  const float qn = std::sqrt(Dot(q, q, d));
  std::vector<float> dist(corpus_.rows());
  for (size_t r = 0; r < corpus_.rows(); ++r) {
    float denom = qn * norms_[r];
    float sim = denom <= 1e-20f ? 0.0f : Dot(q, corpus_.row(r), d) / denom;
    dist[r] = 1.0f - std::clamp(sim, -1.0f, 1.0f);
  }
  std::sort(dist.begin(), dist.end());
  return dist;
}

std::vector<std::vector<uint32_t>> ExactOracle::Counts(
    const std::vector<AuditQuery>& queries, size_t threads) const {
  std::vector<std::vector<uint32_t>> out(queries.size());
  auto work = [&](size_t first) {
    for (size_t i = first; i < queries.size(); i += threads) {
      std::vector<float> dist = SortedDistances(queries[i].x);
      for (float t : queries[i].thresholds) {
        out[i].push_back(static_cast<uint32_t>(
            std::upper_bound(dist.begin(), dist.end(), t) - dist.begin()));
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; ++w) pool.emplace_back(work, w);
  for (auto& th : pool) th.join();
  return out;
}

}  // namespace servebench
