// Tests for the contracts layer (src/core/contracts.hpp): failure modes,
// exception hierarchy, the diagnostic payload, the DEBUG_ASSERT
// evaluation guarantee, and a sample of real library contracts firing
// through the macros.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "phy/spreader.hpp"
#include "sync/costas.hpp"

namespace bhss {
namespace {

// The default build compiles with BHSS_CONTRACT_MODE_THROW; the tests in
// this file are about that mode's guarantees.
static_assert(BHSS_CONTRACT_MODE == BHSS_CONTRACT_MODE_THROW,
              "test_contracts assumes the default THROW contract mode");

TEST(Contracts, PassingCheckIsSilent) {
  EXPECT_NO_THROW(BHSS_REQUIRE(1 + 1 == 2, "arithmetic works"));
  EXPECT_NO_THROW(BHSS_ENSURE(true, "trivially true"));
}

TEST(Contracts, RequireThrowsContractViolation) {
  EXPECT_THROW(BHSS_REQUIRE(false, "boom"), contract_violation);
}

TEST(Contracts, ViolationIsCatchableAsInvalidArgument) {
  // The pre-contracts library threw std::invalid_argument on bad input;
  // contract_violation must stay catchable through that type so existing
  // callers (and ~60 existing tests) keep working.
  EXPECT_THROW(BHSS_REQUIRE(false, "compat"), std::invalid_argument);
  EXPECT_THROW(BHSS_REQUIRE(false, "compat"), std::exception);
}

TEST(Contracts, DiagnosticPayload) {
  try {
    const int x = 3;
    BHSS_REQUIRE(x > 5, "x must exceed five");
    FAIL() << "contract did not fire";
  } catch (const contract_violation& e) {
    EXPECT_STREQ(e.kind(), "REQUIRE");
    EXPECT_STREQ(e.condition(), "x > 5");
    const std::string what = e.what();
    EXPECT_NE(what.find("BHSS_REQUIRE failed"), std::string::npos) << what;
    EXPECT_NE(what.find("x must exceed five"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
  }
}

TEST(Contracts, EnsureReportsItsKind) {
  try {
    BHSS_ENSURE(false, "post");
    FAIL() << "contract did not fire";
  } catch (const contract_violation& e) {
    EXPECT_STREQ(e.kind(), "ENSURE");
  }
}

TEST(Contracts, DebugAssertEvaluationMatchesBuildMode) {
  // BHSS_DEBUG_ASSERT must not evaluate its condition when compiled out —
  // callers are allowed to put moderately expensive scans in it.
  int evaluations = 0;
  auto probe = [&evaluations] {
    ++evaluations;
    return true;
  };
#if BHSS_CONTRACT_DEBUG
  BHSS_DEBUG_ASSERT(probe(), "enabled: condition runs");
  EXPECT_EQ(evaluations, 1);
  EXPECT_THROW(BHSS_DEBUG_ASSERT(evaluations < 0, "enabled: fires"), contract_violation);
#else
  BHSS_DEBUG_ASSERT(probe(), "disabled: condition must not run");
  EXPECT_EQ(evaluations, 0);
  EXPECT_NO_THROW(BHSS_DEBUG_ASSERT(false, "disabled: never fires"));
  static_cast<void>(probe);  // referenced only by the compiled-out macro
#endif
}

// ---------------------------------------------------------------------------
// Real library preconditions, exercised through the public APIs. These used
// to be hand-written `throw std::invalid_argument` sites; they now fire
// through the macros with kind/condition metadata attached.

TEST(LibraryContracts, FftRejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::Fft fft(100), contract_violation);
}

TEST(LibraryContracts, FirFilterRejectsEmptyTaps) {
  EXPECT_THROW(dsp::FirFilter f(dsp::cvec{}), contract_violation);
}

TEST(LibraryContracts, FirFilterRejectsNonFiniteTaps) {
  dsp::cvec taps{{1.0F, 0.0F}, {std::numeric_limits<float>::quiet_NaN(), 0.0F}};
  EXPECT_THROW(dsp::FirFilter f(std::move(taps)), contract_violation);
}

TEST(LibraryContracts, DesignLowpassRejectsBadCutoff) {
  EXPECT_THROW(auto t = dsp::design_lowpass(31, 0.0), contract_violation);
  EXPECT_THROW(auto t = dsp::design_lowpass(31, 0.5), contract_violation);
}

TEST(LibraryContracts, DespreaderRejectsWrongChipCount) {
  phy::Despreader d(0);
  std::vector<float> chips(phy::kChipsPerSymbol - 1, 1.0F);
  EXPECT_THROW(static_cast<void>(d.despread_symbol(chips)), contract_violation);
}

TEST(LibraryContracts, CostasRejectsBadLoopBandwidth) {
  EXPECT_THROW(sync::CostasLoop loop(0.0F), contract_violation);
  EXPECT_THROW(sync::CostasLoop loop(1.5F), contract_violation);
}

TEST(LibraryContracts, ViolationKindSurvivesLibraryBoundary) {
  try {
    dsp::Fft fft(100);
    FAIL() << "contract did not fire";
  } catch (const contract_violation& e) {
    EXPECT_STREQ(e.kind(), "REQUIRE");
    EXPECT_NE(std::strstr(e.condition(), "valid_size"), nullptr) << e.condition();
  }
}

}  // namespace
}  // namespace bhss
