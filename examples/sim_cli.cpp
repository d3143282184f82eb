// Config-driven simulation runner: every knob of SimConfig on the command
// line, one result block on stdout.  The Swiss-army knife for exploring the
// system beyond the canned figures.
//
//   ./examples/sim_cli scenario=SSD strategy=EBPC r=0.6 rate=12 minutes=60
//       topology=mesh brokers=48 eps=0.001 multipath=1 online_est=1 seed=9
//
// Run with `help` for the full knob list.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/config.h"
#include "experiment/paper.h"
#include "experiment/runner.h"
#include "topology/dot.h"

using namespace bdps;

namespace {

void print_help() {
  std::printf(
      "sim_cli key=value ...\n"
      "  scenario=PSD|SSD|BOTH      delay model of Sec. 4.1 (default SSD)\n"
      "  strategy=EB|PC|EBPC|FIFO|RL  output-queue scheduler (default EB)\n"
      "  r=0..1                     EBPC weight (default 0.5)\n"
      "  rate=N                     msgs/min/publisher (default 10)\n"
      "  minutes=N                  publish window (default 120)\n"
      "  seed=N                     RNG seed (default 1)\n"
      "  topology=paper|acyclic|mesh|dumbbell|ring|grid|torus|scalefree\n"
      "  brokers=N pubs=N subs=N    generic topology sizes\n"
      "  rows=N cols=N              grid/torus dimensions\n"
      "  config=FILE                read key=value lines from FILE first\n"
      "  dot=FILE                   write the overlay as Graphviz DOT\n"
      "  failures=N                 kill N random links mid-run\n"
      "  shape=normal|gamma|lognormal  true link-rate distribution\n"
      "  size_kb=N                  message size (default 50)\n"
      "  pd=N                       per-broker processing delay ms\n"
      "  eps=F                      purge threshold (default 0.0005; 0=off)\n"
      "  belief_noise=F             broker link-belief error fraction\n"
      "  online_est=0|1             online link estimation\n"
      "  churn=F                    subscriptions inactive for fraction F\n"
      "  serialize_pd=0|1           serialize the processing stage\n"
      "  multipath=0|1              two-path forwarding\n");
}

TopologyKind parse_topology(const std::string& name) {
  if (name == "paper") return TopologyKind::kPaper;
  if (name == "acyclic" || name == "tree") return TopologyKind::kAcyclic;
  if (name == "mesh") return TopologyKind::kRandomMesh;
  if (name == "dumbbell") return TopologyKind::kDumbbell;
  if (name == "ring") return TopologyKind::kRing;
  if (name == "grid" || name == "torus") return TopologyKind::kGrid;
  if (name == "scalefree" || name == "ba") return TopologyKind::kScaleFree;
  throw std::invalid_argument("unknown topology: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  for (const auto& pos : args.positional()) {
    if (pos == "help" || pos == "--help" || pos == "-h") {
      print_help();
      return 0;
    }
  }
  // A config file provides defaults; command-line keys override it.
  if (args.has("config")) {
    std::ifstream in(args.get_string("config", ""));
    if (!in) {
      std::fprintf(stderr, "cannot open config file\n");
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    KeyValueConfig merged = KeyValueConfig::from_text(text.str());
    // Re-apply command-line values on top.
    const KeyValueConfig cli = KeyValueConfig::from_args(argc, argv);
    for (const char* key :
         {"scenario", "strategy", "r", "rate", "minutes", "seed", "topology",
          "brokers", "pubs", "subs", "rows", "cols", "size_kb", "pd", "eps",
          "belief_noise", "online_est", "multipath", "failures", "shape",
          "dot", "churn", "serialize_pd"}) {
      if (cli.has(key)) merged.set(key, cli.get_string(key, ""));
    }
    args = merged;
  }

  SimConfig config = paper_base_config(
      parse_scenario(args.get_string("scenario", "SSD")),
      args.get_double("rate", 10.0),
      parse_strategy(args.get_string("strategy", "EB")),
      static_cast<std::uint64_t>(args.get_int("seed", 1)));
  config.ebpc_weight = args.get_double("r", 0.5);
  config.workload.duration = minutes(args.get_double("minutes", 120.0));
  config.workload.message_size_kb = args.get_double("size_kb", 50.0);
  config.processing_delay = args.get_double("pd", 2.0);
  config.purge.epsilon = args.get_double("eps", 0.0005);
  config.purge.drop_expired = config.purge.epsilon >= 0.0;
  config.belief_noise_frac = args.get_double("belief_noise", 0.0);
  config.online_estimation = args.get_bool("online_est", false);
  config.multipath = args.get_bool("multipath", false);
  config.topology = parse_topology(args.get_string("topology", "paper"));
  config.broker_count =
      static_cast<std::size_t>(args.get_int("brokers", 32));
  config.publisher_count = static_cast<std::size_t>(args.get_int("pubs", 4));
  config.subscriber_count =
      static_cast<std::size_t>(args.get_int("subs", 160));
  config.grid_rows = static_cast<std::size_t>(args.get_int("rows", 4));
  config.grid_cols = static_cast<std::size_t>(args.get_int("cols", 8));
  config.grid_torus = args.get_string("topology", "paper") == "torus";
  config.random_link_failures =
      static_cast<std::size_t>(args.get_int("failures", 0));
  config.workload.churn_fraction = args.get_double("churn", 0.0);
  config.serialize_processing = args.get_bool("serialize_pd", false);
  const std::string shape = args.get_string("shape", "normal");
  if (shape == "gamma") {
    config.true_rate_shape = RateShape::kShiftedGamma;
  } else if (shape == "lognormal") {
    config.true_rate_shape = RateShape::kLognormal;
  }

  const std::string dot_path = args.get_string("dot", "");
  if (!dot_path.empty()) {
    Rng preview_rng(config.seed);
    Rng topo_rng = preview_rng.split();
    const Topology preview = build_topology(topo_rng, config);
    std::ofstream out(dot_path);
    out << to_dot(preview);
    std::printf("overlay written to %s (render with: dot -Tpng %s)\n",
                dot_path.c_str(), dot_path.c_str());
  }

  const SimResult r = run_simulation(config);

  std::printf("config   : %s %s rate=%.1f window=%.0fmin seed=%llu %s%s\n",
              scenario_name(config.workload.scenario).c_str(),
              strategy_name(config.strategy).c_str(),
              config.workload.publishing_rate_per_min,
              config.workload.duration / 60000.0,
              static_cast<unsigned long long>(config.seed),
              config.multipath ? "multipath " : "",
              config.online_estimation ? "online-est " : "");
  std::printf("topology : %s\n", topology_name(config.topology).c_str());
  std::printf("published          %10zu\n", r.published);
  std::printf("receptions         %10zu   (message number)\n", r.receptions);
  std::printf("offered pairs      %10zu\n", r.total_interested);
  std::printf("deliveries         %10zu\n", r.deliveries);
  std::printf("valid deliveries   %10zu\n", r.valid_deliveries);
  std::printf("delivery rate      %10.2f %%\n", 100.0 * r.delivery_rate);
  std::printf("earning            %10.0f   (potential %.0f)\n", r.earning,
              r.potential_earning);
  std::printf("purged             %10zu   (%zu expired, %zu hopeless)\n",
              r.purged_expired + r.purged_hopeless, r.purged_expired,
              r.purged_hopeless);
  if (r.lost_copies > 0) {
    std::printf("lost to failures   %10zu\n", r.lost_copies);
  }
  std::printf("mean valid delay   %10.0f ms\n", r.mean_valid_delay_ms);
  std::printf("drained at         %10.1f s\n", r.end_time / 1000.0);
  return 0;
}
