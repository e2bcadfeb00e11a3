#pragma once

/// @file campaign.hpp
/// The checkpointed-campaign names of the one runner in
/// parallel_link_runner.hpp. A campaign is `ParallelLinkRunner::run_point`
/// with a CheckpointJournal attached; there is no separate class.

#include "runtime/parallel_link_runner.hpp"

namespace bhss::runtime {

// Campaign code reads better with these names; they are the same types.
using CampaignRunner = ParallelLinkRunner;
using CampaignOptions = RunnerOptions;

}  // namespace bhss::runtime
