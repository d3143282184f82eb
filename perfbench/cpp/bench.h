// Shared plumbing of the benchmark program: the run context, the metric
// report, output checks, clocks and percentiles.
//
// Every workload follows one protocol.  A fixed amount of work (scaled by
// --seconds, never by how fast the host happens to be) runs with tracing
// off and yields the end-to-end metrics; a traced run on the same inputs
// yields the per-layer metrics.  Counts come from deterministic work, so
// they repeat exactly for a seed; times are medians over many calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Size { kFull, kTiny };

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  bool tiny() const { return size == Size::kTiny; }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports: named metrics, the attempted/failed
/// operation tallies behind `correct`, and free-form notes for stderr.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Output check: counts `failures` against the run and records why.
  void fail(std::uint64_t failures, const std::string& why) {
    failed_ += failures;
    errors_.push_back(why);
  }
  /// Configuration check: the run refuses to report a setup that did not
  /// take effect.
  void require(bool ok, const std::string& why) {
    if (!ok) fail(1, "config: " + why);
  }
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<std::string>& notes() const { return notes_; }

  /// Folds a companion run's tallies and messages into this one.
  void absorb_checks(const Report& other, const std::string& prefix) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& e : other.errors_) errors_.push_back(prefix + e);
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// CPU seconds consumed by the whole process (all threads).
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linearly interpolated q-quantile (q in [0, 1]) of a sample; sorts it.
inline double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return percentile(values, 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Tail latency robust to transient host stalls: the samples (in the
/// order they were taken) are cut into kTailBlocks contiguous blocks, and
/// the median of the blocks' q-quantiles is returned.  A stall of the
/// host lifts one block's tail, not the median block's.
inline constexpr std::size_t kTailBlocks = 10;

inline double blocked_percentile(const std::vector<double>& ordered,
                                 double q) {
  std::vector<double> tails;
  const std::size_t n = ordered.size();
  for (std::size_t b = 0; b < kTailBlocks; ++b) {
    std::vector<double> block(
        ordered.begin() + static_cast<std::ptrdiff_t>(b * n / kTailBlocks),
        ordered.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / kTailBlocks));
    if (!block.empty()) tails.push_back(percentile(block, q));
  }
  return median(tails);
}

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Threads currently alive in this process (/proc/self/task).
std::size_t live_thread_count();

/// Hardware threads available to this process.
std::size_t available_cpus();

/// Pins the calling thread to the k-th (mod their count) of the CPUs the
/// process could run on at its first call, and returns that CPU's id.  On
/// the shared host one vCPU can run a memory-heavy workload ~1.45× slower
/// than the others for tens of seconds, so repeats of identical work cycle
/// through the CPUs.
int pin_to_cpu(std::size_t k);

/// Full set-ups per process where set-up is cheap.  setup_s is the fastest:
/// the host's slow spells only ever add time.
inline constexpr int kSetupRepeats = 3;

// ---- Workloads (one translation unit each) ----
void run_sim_storm(const RunContext& ctx, Report& report);
void run_match_churn(const RunContext& ctx, Report& report);
void run_live_trunk(const RunContext& ctx, Report& report);

}  // namespace perfbench
