#pragma once

/// @file calibrate.hpp
/// A fixed reference kernel that measures how fast the machine runs right
/// now. On a shared host the speed a process gets drifts by tens of per
/// cent over minutes (neighbours' load, clock, shared caches), and every
/// wall time drifts with it. Timing this kernel right before and after a
/// data-point run and scaling the run's wall time by reference ÷ measured
/// gives the time the run would take on the machine the reference was
/// taken on. The kernel is the benchmark's own code, so a change to the
/// simulator never changes it.

#include <complex>
#include <cstddef>
#include <map>
#include <vector>

namespace suite {

class Calibrator {
 public:
  /// Scale of the normalised times: a normalised time is what the run
  /// would take where one lane of the kernel takes this long, about its
  /// time on a lightly loaded 4-core 2.1 GHz Xeon VM (AVX2, Release).
  static constexpr double kReferenceSeconds = 0.0075;

  /// Wall seconds for `lanes` threads to run the kernel `lanes` times over.
  /// The work is cut into chunks that the lanes claim from one counter, as
  /// the runner's pool hands out shards, so a lane slowed by its neighbours
  /// leaves its chunks to the others. Inputs are fixed, so every call with
  /// the same `lanes` does the same work; throws if the result ever
  /// changes. The first call also allocates and fills the buffers.
  double seconds(std::size_t lanes);

 private:
  double run_chunk(std::size_t chunk);

  std::vector<std::complex<float>> x_;
  std::vector<std::complex<float>> y_;
  std::vector<std::complex<float>> taps_;
  std::map<std::size_t, double> checksums_;  ///< by lane count
};

/// `wall` scaled to the reference machine, given the kernel time `cal`
/// measured around it.
[[nodiscard]] inline double normalised(double wall, double cal) {
  return wall * Calibrator::kReferenceSeconds / cal;
}

}  // namespace suite
