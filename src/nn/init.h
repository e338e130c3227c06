#pragma once

#include "tensor/matrix.h"
#include "util/rng.h"

/// \file init.h
/// \brief Weight initialization schemes.
///
/// A null `rng` returns a zero matrix of the same shape and draws nothing:
/// the shape-only path for callers that overwrite every value next (model
/// loading, deep copies).

namespace selnet::nn {

/// \brief Glorot/Xavier uniform: U(-sqrt(6/(fan_in+fan_out)), +...).
tensor::Matrix XavierUniform(size_t fan_in, size_t fan_out, util::Rng* rng);

/// \brief He/Kaiming normal: N(0, sqrt(2/fan_in)); use before ReLU.
tensor::Matrix HeNormal(size_t fan_in, size_t fan_out, util::Rng* rng);

}  // namespace selnet::nn
