#include "core/pattern_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/theory.hpp"
#include "dsp/utils.hpp"

namespace bhss::core {
namespace {

/// The objective's jammer: rho_j(0), a paper-scale strong jammer.
constexpr double kJammerPower = 100.0;
/// The objective's noise floor sigma_n^2 (the paper uses 0.01).
constexpr double kNoiseVar = 0.01;
/// Dirichlet-style global search draws.
constexpr std::size_t kRandomDraws = 20000;
/// Local perturbation refinement steps.
constexpr std::size_t kRefineSteps = 20000;
/// Seed of the optimiser's shared random source.
constexpr std::uint64_t kSeed = 42;

double evaluate(const std::vector<double>& probs, const std::vector<double>& fracs) {
  // min over jammer bandwidths of E_p[gamma], in dB.
  double worst = std::numeric_limits<double>::infinity();
  for (double bj : fracs) {
    double expectation = 0.0;
    for (std::size_t i = 0; i < fracs.size(); ++i) {
      expectation += probs[i] *
                     theory::snr_improvement_bound(fracs[i] / bj, kJammerPower, kNoiseVar);
    }
    worst = std::min(worst, expectation);
  }
  return dsp::linear_to_db(worst);
}

std::vector<double> normalise(std::vector<double> p) {
  double total = 0.0;
  for (double v : p) total += v;
  for (double& v : p) v /= total;
  return p;
}

}  // namespace

double expected_improvement(const HopPattern& pattern, double bj_frac, double jammer_power,
                            double noise_var) {
  const std::vector<double> fracs = pattern.bands().bandwidth_fracs();
  double expectation = 0.0;
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    expectation += pattern.probabilities()[i] *
                   theory::snr_improvement_bound(fracs[i] / bj_frac, jammer_power, noise_var);
  }
  return expectation;
}

double min_advantage_db(const HopPattern& pattern) {
  return evaluate(pattern.probabilities(), pattern.bands().bandwidth_fracs());
}

HopPattern optimize_max_min_advantage(const BandwidthSet& bands) {
  const std::vector<double> fracs = bands.bandwidth_fracs();
  const std::size_t n = fracs.size();
  SharedRandom rng(kSeed);

  std::vector<double> best(n, 1.0 / static_cast<double>(n));
  double best_score = evaluate(best, fracs);

  // Global phase: exponential(1) draws normalised to the simplex
  // (equivalent to a flat Dirichlet) explore the whole distribution space.
  for (std::size_t it = 0; it < kRandomDraws; ++it) {
    std::vector<double> candidate(n);
    for (double& v : candidate) v = -std::log(std::max(rng.uniform(), 1e-16));
    candidate = normalise(std::move(candidate));
    const double score = evaluate(candidate, fracs);
    if (score > best_score) {
      best_score = score;
      best = std::move(candidate);
    }
  }

  // Local phase: move probability mass between two random levels.
  for (std::size_t it = 0; it < kRefineSteps; ++it) {
    std::vector<double> candidate = best;
    const std::size_t from = rng.uniform_index(n);
    const std::size_t to = rng.uniform_index(n);
    if (from == to) continue;
    const double step = candidate[from] * (0.05 + 0.45 * rng.uniform());
    candidate[from] -= step;
    candidate[to] += step;
    const double score = evaluate(candidate, fracs);
    if (score > best_score) {
      best_score = score;
      best = std::move(candidate);
    }
  }

  return HopPattern::custom(bands, std::move(best));
}

}  // namespace bhss::core
