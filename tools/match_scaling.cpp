// Million-subscription matching probe — the numbers behind BENCH_pr8.json.
//
// Sweeps the sharded matching fabric (src/matching/) over subscription
// counts up to 1M+ on the Zipf churn workload, and for each row records:
// build rate, sustained churn throughput (remove+add pairs/s), match
// latency percentiles (p50/p99 over individually timed matches), sustained
// publish/match throughput, and the covering compression ratio.  Reference
// rows run the mutable counting index (message/index.h) on the identical
// corpus; a shard-count sweep and a covering on/off pair at the top scale
// feed the PERF.md sensitivity tables.  A row that blows the wall budget
// stops the escalation (larger rows are marked infeasible, not attempted).
//
//   ./match_scaling [budget_s=180] [max_subs=1000000] [probes=2000]
//                   [churn_ops=20000] [do_sweep=1] [do_ablation=1]
//                   [shard_list=1,2,4,16,32] [extras_subs=<max_subs>]
//
// The stage knobs exist so the expensive extras (covering ablation,
// shard-count sweep) can be re-run or re-scaled without repeating the
// population sweep: `do_sweep=0 extras_subs=100000` runs just the
// sensitivity rows at 100k.
//
// Output: one JSON object per line on stdout (errors JSON-escaped), plus a
// summary table on stderr.  Exits non-zero when a sharded row's fabric is
// not the configuration the row claims: fewer active shards than
// configured, or (with more than one shard) units in fewer than two hash
// shards — the signature of routing that collapsed onto one shard.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/config.h"
#include "matching/program/simd.h"
#include "matching/sharded_index.h"
#include "message/index.h"
#include "workload/generator.h"

using namespace bdps;
using matching::MatchFabric;
using matching::MatchFabricOptions;
using matching::MatchScratch;

namespace {

struct Probe {
  std::size_t subs = 0;
  std::string engine;  // "sharded" or "reference".
  std::size_t shards = 0;
  bool covering = false;
  bool completed = false;
  std::string error;
  double build_ms = 0.0;
  double adds_per_sec = 0.0;
  double churn_per_sec = 0.0;
  double match_p50_us = 0.0;
  double match_p99_us = 0.0;
  double match_per_sec = 0.0;
  double mean_matches = 0.0;  // Rows matched per probe message.
  double compression = 1.0;
  std::size_t index_roots = 0;
  std::size_t equal_members = 0;
  std::size_t covered_members = 0;
  std::size_t rebuilds = 0;
  std::size_t publications = 0;
  // Compile-tier state after the timed probes (sharded rows only).
  std::size_t compile_hits = 0;  // Threshold the row ran with (0 = off).
  std::size_t compiled_roots = 0;
  std::size_t compiles = 0;
  double compile_ms = 0.0;
  std::uint64_t vm_member_evals = 0;
  std::uint64_t interp_member_evals = 0;
  // SIMD batch tier: the dispatched kernel name and batch evaluate calls.
  std::string simd_kernel;
  std::uint64_t vm_batch_evals = 0;
  // Placement (sharded rows only): hash shards new filters fan across and
  // hash shards that hold at least one live unit.
  std::size_t active_shards = 0;
  std::size_t occupied_shards = 0;
  bool misconfigured = false;  // The placement check below failed.
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

ChurnWorkloadConfig corpus_config() {
  ChurnWorkloadConfig config;
  config.seed = 2026;
  return config;
}

/// Times `probes` individual matches through `match_one`, filling the
/// latency/throughput fields of `p`.
template <typename MatchFn>
void time_matches(Probe& p, ChurnWorkload& workload, std::size_t probes,
                  MatchFn&& match_one) {
  std::vector<Message> messages;
  messages.reserve(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    messages.push_back(workload.next_message());
  }
  std::vector<double> micros;
  micros.reserve(probes);
  double total_us = 0.0;
  std::size_t total_matches = 0;
  for (const Message& m : messages) {
    const auto start = Clock::now();
    total_matches += match_one(m);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    micros.push_back(us);
    total_us += us;
  }
  std::sort(micros.begin(), micros.end());
  p.match_p50_us = micros[micros.size() / 2];
  p.match_p99_us = micros[micros.size() - 1 - micros.size() / 100];
  p.match_per_sec =
      total_us > 0.0 ? 1e6 * static_cast<double>(probes) / total_us : 0.0;
  p.mean_matches =
      static_cast<double>(total_matches) / static_cast<double>(probes);
}

/// Why the fabric is not the `shards`-way layout the row claims, or "".
std::string placement_error(const Probe& p, std::size_t shards) {
  if (p.active_shards != shards) {
    return "active_shards " + std::to_string(p.active_shards) +
           " != configured " + std::to_string(shards);
  }
  if (shards > 1 && p.occupied_shards < 2) {
    return "units occupy " + std::to_string(p.occupied_shards) + " of " +
           std::to_string(shards) + " hash shards";
  }
  return "";
}

Probe run_sharded(std::size_t subs, std::size_t shards, bool covering,
                  std::size_t probes, std::size_t churn_ops,
                  std::size_t compile_hits = MatchFabricOptions{}.compile_hot_hits) {
  Probe p;
  p.subs = subs;
  p.engine = "sharded";
  p.shards = shards;
  p.covering = covering;
  p.compile_hits = compile_hits;
  try {
    ChurnWorkload workload(corpus_config());
    MatchFabricOptions options;
    options.shards = shards;
    options.covering = covering;
    options.compile_hot_hits = compile_hits;
    MatchFabric fabric(options);

    const auto build_start = Clock::now();
    std::vector<matching::RowId> live;
    live.reserve(subs);
    for (std::size_t i = 0; i < subs; ++i) {
      live.push_back(fabric.add(workload.next_filter()));
    }
    p.build_ms = ms_since(build_start);
    p.adds_per_sec = p.build_ms > 0.0
                         ? 1000.0 * static_cast<double>(subs) / p.build_ms
                         : 0.0;

    // Steady-state churn at the held population.
    const auto churn_start = Clock::now();
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < churn_ops; ++i) {
      fabric.remove(live[cursor]);
      live[cursor] = fabric.add(workload.next_filter());
      cursor = (cursor + 1) % live.size();
    }
    const double churn_ms = ms_since(churn_start);
    p.churn_per_sec =
        churn_ms > 0.0 ? 1000.0 * static_cast<double>(churn_ops) / churn_ms
                       : 0.0;

    MatchScratch scratch;
    // Warm the compile tier: enough untimed matches for hot roots to cross
    // compile_hot_hits and the reader-volunteer path to build their
    // programs, so the timed probes measure the steady state of the row's
    // configured tier (with compile_hits=0 this is just cache warm-up).
    const std::size_t warmup =
        compile_hits > 0 ? std::max<std::size_t>(4 * compile_hits, 64) : 16;
    for (std::size_t i = 0; i < warmup; ++i) {
      const Message m = workload.next_message();
      (void)fabric.match(m, scratch);
    }

    time_matches(p, workload, probes,
                 [&](const Message& m) { return fabric.match(m, scratch).size(); });

    const MatchFabric::Stats stats = fabric.stats();
    p.compression = stats.compression();
    p.index_roots = stats.index_roots;
    p.equal_members = stats.equal_members;
    p.covered_members = stats.covered_members;
    p.rebuilds = stats.rebuilds;
    p.publications = stats.publications;
    p.compiled_roots = stats.compiled_roots;
    p.compiles = stats.compiles;
    p.compile_ms = stats.compile_ms;
    p.vm_member_evals = stats.vm_member_evals;
    p.interp_member_evals = stats.interp_member_evals;
    p.simd_kernel = matching::program::simd::active_kernel_name();
    p.vm_batch_evals = stats.vm_batch_evals;
    p.active_shards = stats.active_shards;
    for (std::size_t s = 1; s < stats.shard_units.size(); ++s) {
      p.occupied_shards += stats.shard_units[s] > 0 ? 1 : 0;
    }
    p.error = placement_error(p, shards);
    p.misconfigured = !p.error.empty();
    p.completed = !p.misconfigured;
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  return p;
}

Probe run_reference(std::size_t subs, std::size_t probes) {
  Probe p;
  p.subs = subs;
  p.engine = "reference";
  try {
    ChurnWorkload workload(corpus_config());
    SubscriptionIndex index;
    const auto build_start = Clock::now();
    for (std::size_t i = 0; i < subs; ++i) {
      index.add(workload.next_filter());
    }
    index.finalize();
    p.build_ms = ms_since(build_start);
    p.adds_per_sec = p.build_ms > 0.0
                         ? 1000.0 * static_cast<double>(subs) / p.build_ms
                         : 0.0;
    p.index_roots = subs;
    SubscriptionIndex::Scratch scratch;
    time_matches(p, workload, probes,
                 [&](const Message& m) { return index.match(m, scratch).size(); });
    p.completed = true;
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  return p;
}

/// Backslash-escapes quotes/backslashes and strips control characters, so
/// an arbitrary exception message cannot break the JSON output line.
std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

void emit(const Probe& p) {
  const std::string error = escape(p.error);
  std::printf(
      "{\"subs\": %zu, \"engine\": \"%s\", \"shards\": %zu, "
      "\"covering\": %s, \"completed\": %s, \"build_ms\": %.1f, "
      "\"adds_per_sec\": %.0f, \"churn_per_sec\": %.0f, "
      "\"match_p50_us\": %.1f, \"match_p99_us\": %.1f, "
      "\"match_per_sec\": %.0f, \"mean_matches\": %.1f, "
      "\"compression\": %.3f, \"index_roots\": %zu, "
      "\"equal_members\": %zu, \"covered_members\": %zu, "
      "\"rebuilds\": %zu, \"publications\": %zu, "
      "\"compile_hits\": %zu, \"compiled_roots\": %zu, \"compiles\": %zu, "
      "\"compile_ms\": %.2f, \"vm_member_evals\": %llu, "
      "\"interp_member_evals\": %llu, \"simd_kernel\": \"%s\", "
      "\"vm_batch_evals\": %llu, \"active_shards\": %zu, "
      "\"occupied_shards\": %zu%s%s%s}\n",
      p.subs, p.engine.c_str(), p.shards, p.covering ? "true" : "false",
      p.completed ? "true" : "false", p.build_ms, p.adds_per_sec,
      p.churn_per_sec, p.match_p50_us, p.match_p99_us, p.match_per_sec,
      p.mean_matches, p.compression, p.index_roots, p.equal_members,
      p.covered_members, p.rebuilds, p.publications, p.compile_hits,
      p.compiled_roots, p.compiles, p.compile_ms,
      static_cast<unsigned long long>(p.vm_member_evals),
      static_cast<unsigned long long>(p.interp_member_evals),
      p.simd_kernel.c_str(),
      static_cast<unsigned long long>(p.vm_batch_evals), p.active_shards,
      p.occupied_shards, error.empty() ? "" : ", \"error\": \"", error.c_str(),
      error.empty() ? "" : "\"");
  std::fflush(stdout);
  std::fprintf(stderr,
               "%-9s %8zu subs  %2zu shards  cover=%d  hits=%zu  "
               "p50 %7.1f us  p99 %8.1f us  %8.0f match/s  x%.2f  "
               "%zu prog  %s\n",
               p.engine.c_str(), p.subs, p.shards, p.covering ? 1 : 0,
               p.compile_hits, p.match_p50_us, p.match_p99_us, p.match_per_sec,
               p.compression, p.compiled_roots,
               p.completed ? "ok" : p.error.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  const double budget_ms = args.get_double("budget_s", 180.0) * 1000.0;
  const auto max_subs =
      static_cast<std::size_t>(args.get_int("max_subs", 1000000));
  const auto probes = static_cast<std::size_t>(args.get_int("probes", 2000));
  const auto churn_ops =
      static_cast<std::size_t>(args.get_int("churn_ops", 20000));
  const bool do_sweep = args.get_int("do_sweep", 1) != 0;
  const bool do_ablation = args.get_int("do_ablation", 1) != 0;
  const auto extras_subs = static_cast<std::size_t>(
      args.get_int("extras_subs", static_cast<int>(max_subs)));
  std::vector<std::size_t> shard_sweep;
  for (const double s : args.get_double_list("shard_list",
                                             {1.0, 2.0, 4.0, 16.0, 32.0})) {
    if (s >= 1.0) shard_sweep.push_back(static_cast<std::size_t>(s));
  }

  std::fprintf(stderr,
               "match-scaling probe (max %zu subs, %zu probes, %zu churn "
               "ops, budget %.0f s)\n",
               max_subs, probes, churn_ops, budget_ms / 1000.0);

  bool misconfigured = false;
  const auto report = [&misconfigured](const Probe& p) {
    emit(p);
    misconfigured = misconfigured || p.misconfigured;
  };

  // Population sweep, both engines, escalation gated on the wall budget.
  bool alive = true;
  if (do_sweep) {
    std::vector<std::size_t> sweep;
    for (std::size_t n = 10000; n < max_subs; n *= 10) sweep.push_back(n);
    sweep.push_back(max_subs);
    for (const std::size_t subs : sweep) {
      if (!alive) {
        Probe skipped;
        skipped.subs = subs;
        skipped.engine = "sharded";
        skipped.error = "skipped: previous row blew the budget";
        report(skipped);
        continue;
      }
      const auto row_start = Clock::now();
      report(run_reference(subs, probes));
      report(run_sharded(subs, MatchFabricOptions{}.shards,
                         /*covering=*/true, probes, churn_ops));
      if (ms_since(row_start) > budget_ms) alive = false;
    }
  }

  if (alive) {
    if (do_ablation) {
      // Covering ablation: same corpus, merging off.
      report(run_sharded(extras_subs, MatchFabricOptions{}.shards,
                         /*covering=*/false, probes, churn_ops));
      // Compile-tier ablation: same corpus, programs off — the interpret
      // baseline the compiled rows above are compared against (PERF.md
      // compiled-programs table).
      report(run_sharded(extras_subs, MatchFabricOptions{}.shards,
                         /*covering=*/true, probes, churn_ops,
                         /*compile_hits=*/0));
    }
    // Shard-count sensitivity (PERF.md table).
    for (const std::size_t shards : shard_sweep) {
      report(run_sharded(extras_subs, shards, /*covering=*/true, probes,
                         churn_ops));
    }
  }
  if (misconfigured) {
    std::fprintf(stderr, "match-scaling: a sharded row did not run the "
                         "configuration it reports (see its error)\n");
    return 1;
  }
  return 0;
}
