// perfbench_bin — one workload of the overlay benchmark per invocation.
//
//   perfbench_bin --workload sim_storm|match_churn|live_trunk
//                    --seed N --seconds S --trace 0|1 [--size full|tiny]
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// every metric the run measured (run.py selects the end-to-end or the
// per-layer set named in BENCHMARK.json).  Exits 1 when an output or
// configuration check failed, 2 on a usage error.
//
// A traced run measures the per-layer metrics of the layers its workload
// drives.  Layers a workload bypasses (match_churn has no simulator, no
// reactor and no trunks; sim_storm no reactor or trunks; live_trunk no
// simulator) are filled in by tiny companion runs of the other two
// workloads on the same seed, so every traced run reports the full
// per-layer set.  stderr lists which metrics came from a companion.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <exception>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

std::size_t live_thread_count() {
  std::size_t count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}

std::size_t available_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

int pin_to_cpu(std::size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return -1;
  const int cpu = cpus[k % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

using WorkloadFn = void (*)(const RunContext&, Report&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"sim_storm", run_sim_storm},
    {"match_churn", run_match_churn},
    {"live_trunk", run_live_trunk},
};

/// Fixed reference loop in the benchmark's own code: integer mixing over a
/// small table, independent of the library.  Its wall time tracks how fast
/// the host runs this process right now — diagnostic only, never a claim.
double host_ref_ms() {
  std::vector<std::uint64_t> table(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto start = Clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 4095] += x;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  static volatile std::uint64_t sink;  // Keeps the loop observable.
  for (const std::uint64_t v : table) sink = sink + v;
  return ms;
}

/// Anonymous memory backed by transparent huge pages right now, in MB
/// (/proc/self/smaps_rollup; 0 when unavailable) — diagnostic only.
double anon_huge_mb() {
  std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "AnonHugePages: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

double host_ref_median_ms() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(host_ref_ms());
  return median(samples);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload sim_storm|match_churn|"
               "live_trunk --seed N --seconds S --trace 0|1 "
               "[--size full|tiny]\n");
}

std::string json_escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  RunContext ctx;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      ctx.seconds = std::atof(value.c_str());
      have_seconds = true;
    } else if (key == "--trace") {
      ctx.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") {
        usage();
        return 2;
      }
      ctx.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else {
      usage();
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      !(ctx.seconds > 0.0) || argc % 2 == 0) {
    usage();
    return 2;
  }

  const double ref_start_ms = host_ref_median_ms();
  Report report;
  try {
    workload->run(ctx, report);
    if (ctx.trace) {
      // Companion runs: the layers this workload bypasses, measured at
      // tiny size on the same seed.  Their checks count too.
      for (const Workload& other : kWorkloads) {
        if (&other == workload) continue;
        RunContext companion = ctx;
        companion.size = Size::kTiny;
        companion.seconds = 1.0;
        Report side;
        other.run(companion, side);
        for (const auto& [name, metric] : side.metrics()) {
          if (report.metrics().count(name) != 0) continue;
          report.note(std::string("companion ") + other.name + ": " + name);
          report.set(name, metric.value, metric.unit);
        }
        report.absorb_checks(side, std::string(other.name) + ": ");
      }
    }
  } catch (const std::exception& e) {
    report.fail(1, std::string("exception: ") + e.what());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  report.note("process cpu user " + std::to_string(secs(usage.ru_utime)) +
              " s sys " + std::to_string(secs(usage.ru_stime)) +
              " s, anon huge pages at end " + std::to_string(anon_huge_mb()) +
              " MB");
  const double ref_end_ms = host_ref_median_ms();
  report.set("host.ref_ms", 0.5 * (ref_start_ms + ref_end_ms), "ms");
  report.note("host.ref_ms start " + std::to_string(ref_start_ms) + " end " +
              std::to_string(ref_end_ms));

  for (const auto& [name, metric] : report.metrics()) {
    if (!std::isfinite(metric.value)) {
      report.fail(1, "metric " + name + " is not finite");
    }
  }
  const bool correct = report.failed() == 0 && report.attempted() > 0;

  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d size=%s\n",
               workload->name, static_cast<unsigned long long>(ctx.seed),
               ctx.seconds, ctx.trace ? 1 : 0, ctx.tiny() ? "tiny" : "full");
  for (const std::string& line : report.notes()) {
    std::fprintf(stderr, "  note: %s\n", line.c_str());
  }
  for (const auto& [name, metric] : report.metrics()) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  for (const std::string& line : report.errors()) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", line.c_str());
  }
  std::fprintf(stderr, "  attempted %llu failed %llu -> %s\n",
               static_cast<unsigned long long>(report.attempted()),
               static_cast<unsigned long long>(report.failed()),
               correct ? "correct" : "INCORRECT");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    if (!std::isfinite(metric.value)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + json_escape(name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(metric.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
