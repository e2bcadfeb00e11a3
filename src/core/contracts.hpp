#pragma once

/// @file contracts.hpp
/// Runtime contracts for the BHSS libraries.
///
/// The receiver chain (excision / low-pass selection per eqs. (3), (4),
/// (10) of the paper) is numerically fragile: a single NaN, out-of-range
/// span or silent narrowing between `dsp/` -> `sync/` -> `core/` corrupts
/// BER curves without failing any test. These macros make such
/// violations loud at the boundary where they happen.
///
///   BHSS_REQUIRE(cond, msg)       precondition  — always checked
///   BHSS_ENSURE(cond, msg)        postcondition — always checked
///   BHSS_DEBUG_ASSERT(cond, msg)  internal invariant — checked only
///                                 when NDEBUG is not defined (compiles
///                                 out, including the condition
///                                 expression, otherwise)
///
/// A violated contract throws `bhss::contract_violation`, which derives
/// from `std::invalid_argument`, so precondition failures stay catchable
/// by callers (and by tests) exactly as the hand-written `throw
/// std::invalid_argument` checks the contracts replaced.

#include <stdexcept>
#include <string>

namespace bhss {

/// Thrown by every violated contract. Derives from std::invalid_argument
/// so callers that caught the pre-contracts exceptions keep working
/// unchanged.
class contract_violation : public std::invalid_argument {
 public:
  contract_violation(const char* kind, const char* condition, const char* message,
                     const char* file, int line)
      : std::invalid_argument(format(kind, condition, message, file, line)),
        kind_(kind),
        condition_(condition) {}

  /// "REQUIRE", "ENSURE" or "DEBUG_ASSERT".
  [[nodiscard]] const char* kind() const noexcept { return kind_; }

  /// The stringified condition that evaluated to false.
  [[nodiscard]] const char* condition() const noexcept { return condition_; }

 private:
  static std::string format(const char* kind, const char* condition, const char* message,
                            const char* file, int line) {
    std::string s;
    s.reserve(128);
    s += file;
    s += ':';
    s += std::to_string(line);
    s += ": BHSS_";
    s += kind;
    s += " failed: ";
    s += message;
    s += " [";
    s += condition;
    s += ']';
    return s;
  }

  const char* kind_;
  const char* condition_;
};

namespace detail {

/// Central contract-failure handler. Kept out of line of the macro so a
/// violated check costs one predictable branch at the call site.
[[noreturn]] inline void contract_fail(const char* kind, const char* condition,
                                       const char* message, const char* file, int line) {
  throw contract_violation(kind, condition, message, file, line);
}

}  // namespace detail
}  // namespace bhss

#define BHSS_CONTRACT_CHECK_(kind, cond, msg)                                       \
  do {                                                                              \
    if (!(cond)) [[unlikely]] {                                                     \
      ::bhss::detail::contract_fail(kind, #cond, msg, __FILE__, __LINE__);          \
    }                                                                               \
  } while (false)

/// Precondition: validate caller-supplied arguments / state at API entry.
#define BHSS_REQUIRE(cond, msg) BHSS_CONTRACT_CHECK_("REQUIRE", cond, msg)

/// Postcondition: validate results before handing them back.
#define BHSS_ENSURE(cond, msg) BHSS_CONTRACT_CHECK_("ENSURE", cond, msg)

/// Internal invariant, checked in debug builds only. The condition is
/// NOT evaluated when disabled — it must be free of needed side effects.
#ifdef NDEBUG
#define BHSS_DEBUG_ASSERT(cond, msg) static_cast<void>(0)
#else
#define BHSS_DEBUG_ASSERT(cond, msg) BHSS_CONTRACT_CHECK_("DEBUG_ASSERT", cond, msg)
#endif

/// Marks a function as being on the per-sample hot path of the receiver
/// chain (sample generation -> filtering -> sync -> despreading and the
/// Monte-Carlo inner loop driving them). `scripts/bhss_analyze.py`
/// (check h1-hot-path-purity) walks the call graph from every BHSS_HOT
/// root and rejects allocation, mutex locking and I/O anywhere reachable:
/// those operations turn O(1)-per-sample code into latency cliffs and
/// make shard timing (and with it thread-scheduling) load-dependent.
///
/// Under clang the marker is also a real AST attribute so the libclang
/// frontend (and any attribute-aware tooling) can see it; under other
/// compilers it compiles away entirely. Place it on the declaration,
/// before the return type:
///
///   BHSS_HOT cf process(cf in) noexcept;
#if defined(__clang__)
#define BHSS_HOT [[clang::annotate("bhss_hot")]]
#else
#define BHSS_HOT
#endif
