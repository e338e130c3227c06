#pragma once

#include <cstdint>

/// \file alloc_hook.h
/// \brief Allocation counter: the benchmark binary replaces the global
/// `operator new` family with versions that count calls while counting is
/// switched on (traced runs only; untraced runs pay one relaxed load).

namespace servebench {

void SetAllocCounting(bool on);
/// Allocations counted so far, on every thread.
uint64_t AllocCount();

}  // namespace servebench
