#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

/// \file bench_util.h
/// \brief Small helpers shared by the benchmark's files: clocks, quantiles,
/// counter-based random draws, the Zipf sampler and the metric table.

namespace servebench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty sample.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  return (*v)[std::min(v->size(), std::max<size_t>(rank, 1)) - 1];
}

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// SplitMix64: a counter-based generator, so request i of a stream is a pure
/// function of (seed, i) and callers can draw it from any thread.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The k-th uniform draw in [0, 1) of stream (seed, i).
inline double Unit(uint64_t seed, uint64_t i, uint64_t k) {
  return (Mix64(seed ^ Mix64(i * 64 + k)) >> 11) * 0x1.0p-53;
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(double(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Rank(double u) const {
    size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One reported number: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Name -> metric, printed as a table and as the result JSON.
using MetricTable = std::map<std::string, Metric>;

}  // namespace servebench
