// brokerd — the distributed broker daemon, and the controller that spawns
// a same-host cluster of them.
//
// Controller mode (the default):
//   ./brokerd shards=4 [config=FILE | key=value ...]
// spawns one daemon process per shard (re-exec'ing this binary), pushes
// the serialized config over the control plane, exchanges trunk ports,
// starts every shard's publish/fault driver, waits for cluster-wide
// quiescence and prints one JSON object with the merged totals — or
// {"error": "..."} (JSON-escaped) on any spawn/bind/protocol failure.
// Inline key=value tokens use format_live_config's vocabulary (seed=7
// topology=scale-free rate_per_min=60 ...); config=FILE loads a file in
// the same format (e.g. one written by format_live_config).
//
// Daemon mode (spawned by the controller, not usually by hand):
//   ./brokerd daemon=1 controller_port=PORT shard=S
// dials the controller, rebuilds the identical world from the config it
// receives, and serves one LiveMode::kSocket shard until kShutdown.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.h"
#include "experiment/cluster.h"

using namespace bdps;

int main(int argc, char** argv) {
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);

  if (args.get_bool("daemon", false)) {
    const int port = args.get_int("controller_port", 0);
    const int shard = args.get_int("shard", -1);
    if (port <= 0 || port > 65535 || shard < 0) {
      std::fprintf(stderr,
                   "brokerd daemon: need controller_port=1..65535 and "
                   "shard=0..\n");
      return 2;
    }
    return run_live_daemon(static_cast<std::uint16_t>(port), shard);
  }

  try {
    LiveRunConfig config;
    const std::string config_path = args.get_string("config", "");
    if (!config_path.empty()) {
      std::ifstream in(config_path);
      if (!in) {
        throw std::runtime_error("cannot read config file: " + config_path);
      }
      std::ostringstream text;
      text << in.rdbuf();
      config = parse_live_config(text.str());
    } else {
      // Inline overrides are the config-file vocabulary, one token per
      // line.
      std::ostringstream text;
      for (int i = 1; i < argc; ++i) text << argv[i] << '\n';
      config = parse_live_config(text.str());
    }
    config.mode = LiveMode::kSocket;
    if (config.shards < 2) config.shards = 4;

    const LiveRunResult result = run_live_cluster(config, argv[0]);
    std::printf(
        "{\"shards\": %zu, \"published\": %zu, \"receptions\": %zu, "
        "\"deliveries\": %zu, \"valid_deliveries\": %zu, \"purged\": %zu, "
        "\"lost\": %zu, \"earning\": %.6f, \"trunk_forwards\": %llu, "
        "\"wall_ms\": %.1f}\n",
        config.shards, result.published, result.receptions, result.deliveries,
        result.valid_deliveries, result.purged, result.lost, result.earning,
        static_cast<unsigned long long>(result.trunk_forwards),
        result.wall_ms);
    return 0;
  } catch (const std::exception& error) {
    std::printf("{\"error\": \"%s\"}\n", json_escape(error.what()).c_str());
    return 1;
  }
}
