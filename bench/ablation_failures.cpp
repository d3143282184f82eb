// Ablation: link failures — what redundancy buys when the overlay breaks.
//
// Kills k random links (at random instants) during a PSD run and compares
// single-path vs multi-path forwarding under the *same* failure plan.
// Failure injection is where multi-path finally earns its traffic premium:
// single-path strands every subscriber behind a dead link.
//
// Kills compile into the fault timeline, so a run with N > 0 failures must
// apply at least one fault batch; the bench exits 1 when a row's kills did
// not take effect.
#include "bench_util.h"

using namespace bdps;

int main(int argc, char** argv) {
  const auto opt = bdps_bench::BenchOptions::parse(argc, argv);
  bdps_bench::banner("Ablation: random link failures (PSD, rate 6, EB)", opt);
  ThreadPool pool(opt.threads);
  int status = 0;

  TextTable table({"failed links", "1-path rate(%)", "1-path lost",
                   "2-path rate(%)", "2-path lost"});
  for (const int failures : {0, 2, 4, 8, 12}) {
    std::vector<std::string> row = {TextTable::fixed(failures, 0)};
    for (const bool multipath : {false, true}) {
      SimConfig config = paper_base_config(ScenarioKind::kPsd, 6.0,
                                           StrategyKind::kEb, opt.seed);
      opt.apply(config);
      config.random_link_failures = static_cast<std::size_t>(failures);
      config.multipath = multipath;

      Welford rate;
      Welford lost;
      for (std::size_t r = 0; r < opt.replications; ++r) {
        SimConfig replica = config;
        replica.seed = opt.seed + r;
        const SimResult result = run_simulation(replica);
        if (failures > 0 && result.fault_batches == 0) {
          std::cerr << "FATAL: " << failures << " failed links ("
                    << (multipath ? "2" : "1") << "-path, seed "
                    << replica.seed << ") applied no fault batch\n";
          status = 1;
        }
        rate.add(result.delivery_rate);
        lost.add(static_cast<double>(result.lost_copies));
      }
      row.push_back(TextTable::fixed(100.0 * rate.mean(), 2));
      row.push_back(TextTable::fixed(lost.mean(), 0));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  bdps_bench::maybe_write_csv(table,
                              {"failed_links", "single_rate", "single_lost",
                               "multi_rate", "multi_lost"},
                              opt.csv_path);
  (void)pool;
  return status;
}
