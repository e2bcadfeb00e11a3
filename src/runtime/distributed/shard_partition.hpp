#pragma once

/// @file shard_partition.hpp
/// Deterministic shard → worker assignment for distributed campaigns.
///
/// Worker processes split one campaign by *shard*, not by data point:
/// every worker walks the identical point sequence (the sweep loop is
/// deterministic) but simulates only the shards it owns.
/// Ownership is a pure function of (shard, n_workers) — a mod partition:
///
///   owner(shard) = shard % n_workers
///
/// so any worker, restarted any number of times, always recomputes the
/// same slice, and the union over workers 0..n_workers-1 covers every
/// shard exactly once. The partition deliberately does NOT depend on the
/// point id or params hash: per-shard cost is roughly uniform (packets
/// split evenly across shards), and a shard-index stripe keeps each
/// worker's slice interleaved, a predictable comb of shard indices
/// rather than a contiguous block of one point.
///
/// The merged result stays a pure function of (SimConfig, n_shards):
/// workers journal per-shard LinkStats under the same keys a
/// single-process run would, `journal-merge` folds the worker journals
/// back into one canonical journal, and the final publish pass replays it
/// exactly like a resumed single-process campaign.

#include <cstddef>

#include "core/contracts.hpp"

namespace bhss::runtime::distributed {

/// One worker's identity among `n_workers`. Default-constructed = "not
/// distributed": the single process owns every shard.
struct ShardPartition {
  std::size_t worker_id = 0;  ///< in [0, n_workers)
  std::size_t n_workers = 1;  ///< number of workers (>= 1)

  /// True when this process owns `shard` under the mod partition.
  [[nodiscard]] constexpr bool owns(std::size_t shard) const noexcept {
    return n_workers <= 1 || shard % n_workers == worker_id;
  }

  /// True when this identity actually splits work (>= 2 workers).
  [[nodiscard]] constexpr bool distributed() const noexcept { return n_workers > 1; }

  /// Validate the identity (worker_id must be < n_workers).
  void validate() const {
    BHSS_REQUIRE(n_workers >= 1, "ShardPartition: n_workers must be >= 1");
    BHSS_REQUIRE(worker_id < n_workers, "ShardPartition: worker_id must be < n_workers");
  }
};

}  // namespace bhss::runtime::distributed
