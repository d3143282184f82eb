// match_churn — one default MatchFabric (8 hash shards, covering, compile
// tier) holding a Zipf ChurnWorkload population, read and written by one
// thread on a fixed schedule: kPairsPerProbe remove+add pairs, then one
// timed match().  The schedule, not the OS scheduler, fixes how much write
// work precedes each read, so a trade between churn cost and read cost
// (covering compression vs. shard placement) shows up in one number,
// cpu_us_per_msg.
//
// Output check: every check_every-th match result is compared, outside the
// timed region, with a brute-force Filter::matches scan of the live set.
//
// An untraced run sets up and warms up once, then forks kSamples children
// one after another.  Each starts from the identical fabric state, runs the
// same slice of the schedule and reports back; the times are the fastest
// sample's.  Set-up takes seconds, so forking is what makes repeats of the
// timed phase on identical work affordable.
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "matching/program/simd.h"
#include "matching/sharded_index.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using bdps::ChurnWorkload;
using bdps::ChurnWorkloadConfig;
using bdps::Filter;
using bdps::Message;
using bdps::matching::MatchFabric;
using bdps::matching::MatchFabricOptions;
using bdps::matching::MatchScratch;
using bdps::matching::RowId;

constexpr std::size_t kPairsPerProbe = 4;

/// Forked repeats of the timed phase per untraced process.
constexpr std::size_t kSamples = 6;

#ifndef MADV_COLLAPSE
#define MADV_COLLAPSE 25  // Linux 6.1; older kernels reject it harmlessly.
#endif

struct Plan {
  std::size_t subs;
  std::size_t probes;
  std::size_t check_every;
};

Plan plan_for(const RunContext& ctx) {
  const double per_s = ctx.tiny() ? 200.0 : 1200.0;
  const auto probes =
      std::max<std::size_t>(1, static_cast<std::size_t>(per_s * ctx.seconds));
  if (ctx.tiny()) return Plan{2000, probes, 16};
  return Plan{50000, probes, 128};
}

/// The live population: fabric rows and their filters, slot-aligned.
struct Population {
  std::unique_ptr<MatchFabric> fabric;
  std::vector<RowId> rows;
  std::vector<Filter> filters;
};

/// Rows whose filter matches `message`, ascending (the fabric's order).
std::vector<RowId> brute_force(const Population& pop, const Message& message) {
  std::vector<RowId> out;
  for (std::size_t i = 0; i < pop.filters.size(); ++i) {
    if (pop.filters[i].matches(message)) out.push_back(pop.rows[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// What one phase of the churn/match schedule measured.
struct Phase {
  std::vector<double> match_us;
  std::vector<double> pair_us;
  std::vector<double> add_us;
  std::vector<double> remove_us;
  double cpu_s = 0.0;  // Excludes the brute-force checks.
  std::size_t rows_matched = 0;
  std::size_t rows_expected = 0;  // Over checked matches only.
  std::size_t rows_found = 0;     // Expected rows the fabric returned.
  std::size_t checks = 0;
  std::size_t mismatches = 0;
};

/// Runs `probes` rounds of the fixed schedule.  `split_pairs` times add and
/// remove separately (the traced run); otherwise one span covers the pair.
Phase run_phase(Population& pop, ChurnWorkload& workload, bdps::Rng& victims,
                MatchScratch& scratch, std::size_t probes,
                std::size_t check_every, bool split_pairs) {
  Phase phase;
  phase.match_us.reserve(probes);
  phase.pair_us.reserve(probes * kPairsPerProbe);
  double check_cpu_s = 0.0;
  const double cpu_start = process_cpu_s();
  for (std::size_t probe = 0; probe < probes; ++probe) {
    for (std::size_t k = 0; k < kPairsPerProbe; ++k) {
      const auto victim =
          static_cast<std::size_t>(victims.uniform_index(pop.rows.size()));
      Filter filter = workload.next_filter();
      const auto t0 = Clock::now();
      pop.fabric->remove(pop.rows[victim]);
      const auto t1 = Clock::now();
      const RowId row = pop.fabric->add(filter);
      const auto t2 = Clock::now();
      pop.rows[victim] = row;
      pop.filters[victim] = std::move(filter);
      phase.pair_us.push_back(to_us(t2 - t0));
      if (split_pairs) {
        phase.remove_us.push_back(to_us(t1 - t0));
        phase.add_us.push_back(to_us(t2 - t1));
      }
    }
    const Message message = workload.next_message();
    const auto t0 = Clock::now();
    const std::vector<RowId>& result = pop.fabric->match(message, scratch);
    phase.match_us.push_back(to_us(Clock::now() - t0));
    phase.rows_matched += result.size();
    if (probe % check_every == 0) {
      const double check_start = process_cpu_s();
      const std::vector<RowId> expected = brute_force(pop, message);
      ++phase.checks;
      phase.rows_expected += expected.size();
      std::vector<RowId> found;
      std::set_intersection(expected.begin(), expected.end(), result.begin(),
                            result.end(), std::back_inserter(found));
      phase.rows_found += found.size();
      if (expected != result) ++phase.mismatches;
      check_cpu_s += process_cpu_s() - check_start;
    }
  }
  phase.cpu_s = process_cpu_s() - cpu_start - check_cpu_s;
  return phase;
}

/// Gives a forked child its own copy of every resident private writable
/// page, then asks the kernel to back them with huge pages again.  The
/// child's timed phase then takes no copy-on-write faults and runs on a
/// fresh physical layout with huge pages, as a fresh process would.
void own_memory() {
  std::vector<std::string> lines;
  {
    std::ifstream maps("/proc/self/maps");
    for (std::string line; std::getline(maps, line);) lines.push_back(line);
  }
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident;
  for (const std::string& line : lines) {
    unsigned long lo = 0, hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) != 3 ||
        perms[0] != 'r' || perms[1] != 'w' || perms[3] != 'p') {
      continue;
    }
    auto* base = reinterpret_cast<char*>(lo);
    const std::size_t len = hi - lo;
    resident.assign(len / page, 0);
    if (mincore(base, len, resident.data()) != 0) continue;
    for (std::size_t i = 0; i < resident.size(); ++i) {
      if ((resident[i] & 1) == 0) continue;
      volatile char* p = base + i * page;
      *p = *p;
    }
    (void)madvise(base, len, MADV_COLLAPSE);  // Best effort.
  }
}

/// What one forked sample of the timed phase sends back.
struct Sample {
  double cpu_s = 0.0;
  double p50_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t rows_expected = 0;
  std::size_t rows_found = 0;
  std::size_t checks = 0;
  std::size_t mismatches = 0;
};

/// Runs `sample_fn` in a forked child, pinned to CPU `k` (see pin_to_cpu),
/// on its own copy of this process's memory; false when the child did not
/// report back.  The parent's state is left untouched, so every sample
/// starts from the same fabric.
template <typename SampleFn>
bool forked_sample(std::size_t k, const SampleFn& sample_fn, Sample& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      pin_to_cpu(k);
      own_memory();
      const Sample sample = sample_fn();
      if (write(fds[1], &sample, sizeof sample) ==
          static_cast<ssize_t>(sizeof sample)) {
        code = 0;
      }
    } catch (const std::exception&) {
    }
    _exit(code);
  }
  close(fds[1]);
  ssize_t got = 0;
  do {
    got = read(fds[0], &out, sizeof out);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == static_cast<ssize_t>(sizeof out) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

}  // namespace

void run_match_churn(const RunContext& ctx, Report& report) {
  const Plan plan = plan_for(ctx);
  ChurnWorkloadConfig config;
  config.seed = ctx.seed;
  MatchFabricOptions options;  // The defaults are the configuration judged.

  // Set-up: populate a fresh fabric.  It takes seconds, so it runs once
  // per process; run.py averages it over the run's sub-seed processes.
  Population pop;
  auto workload = std::make_unique<ChurnWorkload>(config);
  const auto start = Clock::now();
  pop.fabric = std::make_unique<MatchFabric>(options);
  pop.rows.reserve(plan.subs);
  pop.filters.reserve(plan.subs);
  for (std::size_t i = 0; i < plan.subs; ++i) {
    pop.filters.push_back(workload->next_filter());
    pop.rows.push_back(pop.fabric->add(pop.filters.back()));
  }
  const double setup_s = seconds_since(start);
  report.set("setup_s", setup_s, "s");
  report.set("setup.world_ms", 1000.0 * setup_s, "ms");

  // Warm-up: untimed matches until the compile tier stops growing, so
  // the timed phase sees the steady state whatever ran before it.
  MatchScratch scratch;
  std::size_t warm_batches = 0;
  std::size_t compiled = 0;
  for (; warm_batches < 64; ++warm_batches) {
    for (int i = 0; i < 256; ++i) {
      (void)pop.fabric->match(workload->next_message(), scratch);
    }
    const std::size_t now_compiled = pop.fabric->stats().compiled_roots;
    if (warm_batches >= 1 && now_compiled == compiled) break;
    compiled = now_compiled;
  }
  const MatchFabric::Stats warm = pop.fabric->stats();
  report.note("warm-up batches " + std::to_string(warm_batches + 1) +
              ", compiled roots " + std::to_string(warm.compiled_roots) +
              ", simd kernel " +
              bdps::matching::program::simd::active_kernel_name());
  report.require(warm.active_shards == options.shards,
                 "active_shards " + std::to_string(warm.active_shards) +
                     " != configured " + std::to_string(options.shards));
  report.require(warm.compiled_roots > 0, "no compiled roots after warm-up");

  bdps::Rng victims(ctx.seed ^ 0x5eedULL);
  const auto account = [&report](std::size_t probes, std::size_t checks,
                                 std::size_t mismatches) {
    report.attempt(probes * (kPairsPerProbe + 1));
    if (mismatches > 0) {
      report.fail(mismatches, std::to_string(mismatches) + " of " +
                                  std::to_string(checks) +
                                  " checked matches differ from brute force");
    }
  };

  if (!ctx.trace) {
    const std::size_t probes =
        std::max<std::size_t>(plan.probes / kSamples, 1);
    const auto sample_fn = [&] {
      const Phase p = run_phase(pop, *workload, victims, scratch, probes,
                                plan.check_every, /*split_pairs=*/false);
      std::vector<double> match_ms;
      for (const double us : p.match_us) match_ms.push_back(us / 1000.0);
      return Sample{.cpu_s = p.cpu_s,
                    .p50_ms = percentile(match_ms, 0.50),
                    .peak_rss_mb = peak_rss_mb(),
                    .rows_expected = p.rows_expected,
                    .rows_found = p.rows_found,
                    .checks = p.checks,
                    .mismatches = p.mismatches};
    };
    double cpu_s = 0.0, p50_ms = 0.0, rss_mb = peak_rss_mb();
    std::size_t expected = 0, found = 0, reported = 0;
    std::string samples = "samples' cpu_us_per_msg:";
    for (std::size_t k = 0; k < kSamples; ++k) {
      Sample sample;
      if (!forked_sample(k, sample_fn, sample)) {
        report.fail(1, "sample " + std::to_string(k) + " did not report");
        continue;
      }
      account(probes, sample.checks, sample.mismatches);
      samples += ' ';
      samples += std::to_string(1e6 * sample.cpu_s /
                                static_cast<double>(probes));
      if (reported == 0 || sample.cpu_s < cpu_s) cpu_s = sample.cpu_s;
      if (reported == 0 || sample.p50_ms < p50_ms) p50_ms = sample.p50_ms;
      ++reported;
      rss_mb = std::max(rss_mb, sample.peak_rss_mb);
      expected += sample.rows_expected;
      found += sample.rows_found;
    }
    report.note(samples);
    report.set("cpu_us_per_msg", 1e6 * cpu_s / static_cast<double>(probes),
               "us");
    report.set("latency_p50_ms", p50_ms, "ms");
    report.set("delivery_rate",
               expected == 0 ? 1.0
                             : static_cast<double>(found) /
                                   static_cast<double>(expected),
               "ratio");
    report.set("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Traced run: half the schedule untraced (the overhead baseline), half
  // with add and remove timed separately and fabric counters sampled.
  const std::size_t half = std::max<std::size_t>(plan.probes / 2, 1);
  const Phase base = run_phase(pop, *workload, victims, scratch, half,
                               plan.check_every, /*split_pairs=*/false);
  account(half, base.checks, base.mismatches);
  const MatchFabric::Stats before = pop.fabric->stats();
  const Phase traced = run_phase(pop, *workload, victims, scratch, half,
                                 plan.check_every, /*split_pairs=*/true);
  account(half, traced.checks, traced.mismatches);
  const MatchFabric::Stats after = pop.fabric->stats();

  const auto per = [](double n, double d) { return d > 0.0 ? n / d : 0.0; };
  const double matches = static_cast<double>(half);
  const double pairs = static_cast<double>(half * kPairsPerProbe);
  const double vm = static_cast<double>(after.vm_member_evals -
                                        before.vm_member_evals);
  const double interp = static_cast<double>(after.interp_member_evals -
                                            before.interp_member_evals);
  const double fallback = static_cast<double>(after.vm_fallback_evals -
                                              before.vm_fallback_evals);
  report.set("trace.overhead_frac", per(traced.cpu_s, base.cpu_s) - 1.0,
             "ratio");
  std::vector<double> match_ms;
  for (const double us : traced.match_us) match_ms.push_back(us / 1000.0);
  report.set("latency_p99_ms", blocked_percentile(match_ms, 0.99), "ms");
  report.set("matching.match_us", median(traced.match_us), "us");
  report.set("matching.add_us", mean(traced.add_us), "us");
  report.set("matching.remove_us", mean(traced.remove_us), "us");
  report.set("matching.churn_us_per_pair", mean(traced.pair_us), "us");
  report.set("matching.rows_per_match",
             per(static_cast<double>(traced.rows_matched), matches), "count");
  report.set("matching.index_roots", static_cast<double>(after.index_roots),
             "count");
  report.set("matching.compression", after.compression(), "ratio");
  report.set("matching.compiled_roots",
             static_cast<double>(after.compiled_roots), "count");
  report.set("matching.compile_ms", after.compile_ms, "ms");
  report.set("matching.vm_evals_per_match", per(vm, matches), "count");
  report.set("matching.interp_evals_per_match", per(interp, matches), "count");
  report.set("matching.vm_share", per(vm, vm + interp + fallback), "ratio");
  report.set("matching.rebuilds_per_kpair",
             1000.0 * per(static_cast<double>(after.rebuilds - before.rebuilds),
                          pairs),
             "count");
  report.set("matching.publications_per_kpair",
             1000.0 * per(static_cast<double>(after.publications -
                                              before.publications),
                          pairs),
             "count");
  report.set("matching.active_shards", static_cast<double>(after.active_shards),
             "count");
}

}  // namespace perfbench
