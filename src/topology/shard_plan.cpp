#include "topology/shard_plan.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace bdps {

namespace {

std::vector<std::size_t> degree_weights(const Graph& graph) {
  // Superlinear in degree: event load concentrates on hubs faster than
  // degree (high-degree brokers sit on disproportionately many routing
  // paths), so balancing plain degree leaves the hub shard measurably
  // hotter than the rest on scale-free overlays, while a full quadratic
  // overshoots and starves it.  Degree^1.5 was the balance point measured
  // on a dense scale-free overlay's per-shard event-loop CPU; on
  // low-variance shapes (rings/grids) it degenerates to a constant per
  // broker either way.
  std::vector<std::size_t> weights(graph.broker_count());
  for (std::size_t b = 0; b < graph.broker_count(); ++b) {
    const auto degree = static_cast<double>(
        graph.out_edges(static_cast<BrokerId>(b)).size());
    weights[b] = 1 + static_cast<std::size_t>(degree * std::sqrt(degree));
  }
  return weights;
}

std::size_t clamp_shards(const Graph& graph, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("greedy_edge_cut: shard count must be >= 1");
  }
  return std::min(shards, std::max<std::size_t>(1, graph.broker_count()));
}

}  // namespace

std::vector<std::uint32_t> greedy_edge_cut(const Graph& graph,
                                           std::size_t shards) {
  const std::size_t n = graph.broker_count();
  shards = clamp_shards(graph, shards);
  const std::vector<std::size_t> weights = degree_weights(graph);
  std::size_t total = 0;
  for (const std::size_t w : weights) total += w;
  const std::size_t target = (total + shards - 1) / shards;

  constexpr std::uint32_t kUnassigned = ~0u;
  std::vector<std::uint32_t> shard_of(n, kUnassigned);
  // Brokers by descending degree: seed order and the fallback order when a
  // shard's frontier runs dry (disconnected graphs).
  std::vector<BrokerId> by_degree(n);
  for (std::size_t b = 0; b < n; ++b) by_degree[b] = static_cast<BrokerId>(b);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](BrokerId a, BrokerId b) {
                     return weights[static_cast<std::size_t>(a)] >
                            weights[static_cast<std::size_t>(b)];
                   });

  // gain[b] = neighbours of b already inside the shard currently growing.
  std::vector<std::size_t> gain(n, 0);
  std::vector<std::size_t> shard_weight(shards, 0);

  std::size_t seed_cursor = 0;
  const auto next_unassigned = [&]() -> BrokerId {
    while (seed_cursor < n &&
           shard_of[static_cast<std::size_t>(by_degree[seed_cursor])] !=
               kUnassigned) {
      ++seed_cursor;
    }
    return seed_cursor < n ? by_degree[seed_cursor] : kNoBroker;
  };

  for (std::size_t s = 0; s < shards; ++s) {
    // Max-heap of (gain, -degree-rank proxy via broker id) frontier
    // candidates; stale entries are skipped on pop.
    using Candidate = std::pair<std::size_t, BrokerId>;
    std::priority_queue<Candidate> frontier;
    std::fill(gain.begin(), gain.end(), 0);

    const auto assign = [&](BrokerId broker) {
      shard_of[static_cast<std::size_t>(broker)] =
          static_cast<std::uint32_t>(s);
      shard_weight[s] += weights[static_cast<std::size_t>(broker)];
      for (const EdgeId e : graph.out_edges(broker)) {
        const BrokerId to = graph.edge(e).to;
        if (shard_of[static_cast<std::size_t>(to)] != kUnassigned) continue;
        ++gain[static_cast<std::size_t>(to)];
        frontier.push({gain[static_cast<std::size_t>(to)], to});
      }
    };

    const BrokerId seed = next_unassigned();
    if (seed == kNoBroker) break;
    assign(seed);
    // Stop growing once the shard reached its weight target, unless later
    // shards would be left without brokers.
    std::size_t assigned_total = 0;
    for (const std::uint32_t owner : shard_of) {
      assigned_total += owner != kUnassigned;
    }
    while (shard_weight[s] < target &&
           (n - assigned_total) > (shards - s - 1)) {
      BrokerId pick = kNoBroker;
      while (!frontier.empty()) {
        const auto [g, candidate] = frontier.top();
        frontier.pop();
        if (shard_of[static_cast<std::size_t>(candidate)] != kUnassigned) {
          continue;  // Already taken.
        }
        if (g != gain[static_cast<std::size_t>(candidate)]) {
          continue;  // Stale gain; a fresher entry exists.
        }
        pick = candidate;
        break;
      }
      if (pick == kNoBroker) {
        pick = next_unassigned();  // Disconnected component.
        if (pick == kNoBroker) break;
      }
      assign(pick);
      ++assigned_total;
    }
  }
  // Leftovers (possible when the last shards hit their targets early): give
  // each to the lightest shard, preferring shards holding a neighbour.
  for (std::size_t b = 0; b < n; ++b) {
    if (shard_of[b] != kUnassigned) continue;
    std::vector<bool> adjacent(shards, false);
    bool any_adjacent = false;
    for (const EdgeId e : graph.out_edges(static_cast<BrokerId>(b))) {
      const std::size_t to = static_cast<std::size_t>(graph.edge(e).to);
      if (shard_of[to] != kUnassigned) {
        adjacent[shard_of[to]] = true;
        any_adjacent = true;
      }
    }
    std::size_t best = shards;
    for (std::size_t s = 0; s < shards; ++s) {
      if (any_adjacent && !adjacent[s]) continue;
      if (best == shards || shard_weight[s] < shard_weight[best]) best = s;
    }
    shard_of[b] = static_cast<std::uint32_t>(best);
    shard_weight[best] += weights[b];
  }
  return shard_of;
}

}  // namespace bdps
