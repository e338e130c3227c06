#include "nn/init.h"

#include <cmath>

namespace selnet::nn {

tensor::Matrix XavierUniform(size_t fan_in, size_t fan_out, util::Rng* rng) {
  if (rng == nullptr) return tensor::Matrix(fan_in, fan_out);
  float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return tensor::Matrix::Uniform(fan_in, fan_out, rng, -limit, limit);
}

tensor::Matrix HeNormal(size_t fan_in, size_t fan_out, util::Rng* rng) {
  if (rng == nullptr) return tensor::Matrix(fan_in, fan_out);
  float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return tensor::Matrix::Gaussian(fan_in, fan_out, rng, stddev);
}

}  // namespace selnet::nn
