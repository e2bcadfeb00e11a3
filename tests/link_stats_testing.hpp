#pragma once

// LinkStats helpers shared by the test suites. Both iterate
// core::kLinkStatsFields, so a new LinkStats field is covered by every
// suite without touching them.

#include <gtest/gtest.h>

#include <cstddef>

#include "core/link_stats.hpp"

namespace bhss::testutil {

/// Every field equal, doubles bit for bit; a mismatch names its field.
inline void expect_identical(const core::LinkStats& a, const core::LinkStats& b) {
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    EXPECT_EQ(f.bits(a), f.bits(b)) << "LinkStats::" << f.name;
  }
}

/// A distinct nonzero value in every field, varied by `salt`. The doubles
/// are not exactly representable, so a lossy round trip would show.
inline core::LinkStats salted_stats(std::size_t salt) {
  core::LinkStats s;
  for (std::size_t row = 0; row < core::kLinkStatsFields.size(); ++row) {
    const core::LinkStatsField& f = core::kLinkStatsFields[row];
    if (f.count != nullptr) {
      s.*f.count = 1000 * salt + row + 1;
    } else {
      s.*f.real = 0.1 * static_cast<double>(row + 1) * static_cast<double>(salt + 1) + 1e-17;
    }
  }
  return s;
}

}  // namespace bhss::testutil
