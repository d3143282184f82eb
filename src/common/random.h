// Deterministic pseudo-random number generation.
//
// The simulator must be reproducible from a single 64-bit seed: every
// experiment row in EXPERIMENTS.md can be regenerated bit-for-bit.  We use
// xoshiro256++ (public-domain algorithm by Blackman & Vigna) seeded through
// splitmix64, which is both faster and of higher quality than std::mt19937
// and — unlike the standard distributions — has a fully specified output
// sequence across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>

namespace bdps {

/// splitmix64 step; used for seeding and for cheap hash-like id mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ engine with distribution helpers.
///
/// All distribution draws consume a deterministic number of engine outputs,
/// except `normal()` (polar method, rejection) and `truncated_normal()`.
class Rng {
 public:
  /// Seeds the four 64-bit words of state via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent stream; used to give each simulation component
  /// (workload, links, ...) its own generator so adding draws to one
  /// component does not perturb another.
  Rng split();

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via the Marsaglia polar method.
  double standard_normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Normal conditioned on the result being >= lo (rejection with an
  /// analytic fallback for far-tail truncation).
  double truncated_normal(double mean, double stddev, double lo);

  /// Exponential with the given mean (inter-arrival times of a Poisson
  /// publishing process).
  double exponential(double mean);

  /// Gamma(shape k, scale theta) via Marsaglia-Tsang squeeze (k >= 1) with
  /// the standard boost for k < 1.
  double gamma(double shape, double scale);

  /// Lognormal with the given *log-space* parameters.
  double lognormal(double log_mean, double log_stddev);

  /// Fisher–Yates shuffle of an index container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const auto j = uniform_index(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  // Cached second output of the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// The streams of one run, split from Rng(seed) in one fixed order:
/// topology, workload, link, belief, then each optional stream in the order
/// it is asked for with next() (run_simulation: random link kills, then the
/// fault timeline, each only when drawn).  run_simulation, build_live_world
/// and LiveNetwork all derive their streams here, so one seed names the
/// same world, fault timeline and send durations in every engine.
class RunStreams {
 public:
  explicit RunStreams(std::uint64_t seed)
      : root_(seed),
        topology(root_.split()),
        workload(root_.split()),
        link(root_.split()),
        belief(root_.split()) {}

  /// The next optional stream.
  Rng next() { return root_.split(); }

 private:
  Rng root_;

 public:
  Rng topology;
  Rng workload;
  Rng link;
  Rng belief;
};

}  // namespace bdps
