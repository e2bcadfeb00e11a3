#pragma once

/// @file alloc_count.hpp
/// Per-thread heap allocation counter. alloc_count.cpp replaces the global
/// operator new/delete of the benchmark binary, so every allocation the
/// simulator makes on a thread is counted there. Counting is always on:
/// the untraced and traced runs pay the same (one thread-local add).

#include <cstdint>

namespace suite {

struct AllocCount {
  std::uint64_t calls = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested
};

/// Allocations made by the calling thread since it started.
[[nodiscard]] AllocCount thread_allocs() noexcept;

}  // namespace suite
