#include "routing/spt.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

namespace bdps {

std::vector<BrokerId> ShortestPathTree::path_from(BrokerId from) const {
  std::vector<BrokerId> path;
  if (from < 0 || static_cast<std::size_t>(from) >= reachable.size() ||
      !reachable[from]) {
    return path;
  }
  BrokerId current = from;
  path.push_back(current);
  while (current != destination) {
    current = next_hop[current];
    path.push_back(current);
  }
  return path;
}

std::vector<std::vector<EdgeId>> incoming_edges(const Graph& graph) {
  std::vector<std::vector<EdgeId>> incoming(graph.broker_count());
  for (std::size_t b = 0; b < incoming.size(); ++b) {
    for (const EdgeId e : graph.out_edges(static_cast<BrokerId>(b))) {
      incoming[graph.edge(e).to].push_back(e);
    }
  }
  return incoming;
}

ShortestPathTree compute_tree_toward(const Graph& graph,
                                     BrokerId destination) {
  return compute_tree_toward(graph, incoming_edges(graph), destination);
}

ShortestPathTree compute_tree_toward(
    const Graph& graph, const std::vector<std::vector<EdgeId>>& incoming,
    BrokerId destination) {
  const std::size_t n = graph.broker_count();
  ShortestPathTree tree;
  tree.destination = destination;
  tree.next_hop.assign(n, kNoBroker);
  tree.stats.assign(n, PathStats{});
  tree.reachable.assign(n, false);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);

  // Min-heap on (mean path rate, broker id); the id component makes the pop
  // order — and therefore tie resolution — deterministic.
  using HeapItem = std::pair<double, BrokerId>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  dist[destination] = 0.0;
  tree.reachable[destination] = true;
  heap.emplace(0.0, destination);

  std::vector<bool> done(n, false);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[u]) continue;
    done[u] = true;

    for (const EdgeId eid : incoming[u]) {
      const Edge& e = graph.edge(eid);  // e.from -> u
      const BrokerId v = e.from;
      const double candidate = d + e.link.params().mean_ms_per_kb;
      // Strictly-better relaxation only: a finished vertex can never be
      // re-parented, so every suffix of a chosen path stays a chosen path.
      // Ties resolve deterministically through the heap's id ordering.
      if (done[v] || candidate >= dist[v]) continue;
      dist[v] = candidate;
      tree.next_hop[v] = u;
      tree.stats[v] = tree.stats[u].then_link(e.link.params());
      tree.reachable[v] = true;
      heap.emplace(candidate, v);
    }
  }
  return tree;
}

std::vector<BrokerId> repair_tree_toward(
    const Graph& graph, const std::vector<std::vector<EdgeId>>& incoming,
    const EdgeFlags& down, const std::vector<EdgeId>& newly_down,
    const std::vector<EdgeId>& newly_up, ShortestPathTree& tree) {
  SptRepairScratch scratch;
  std::vector<BrokerId> changed;
  repair_tree_toward(graph, incoming, down, newly_down, newly_up, tree,
                     scratch, changed);
  return changed;
}

void repair_tree_toward(const Graph& graph,
                        const std::vector<std::vector<EdgeId>>& incoming,
                        const EdgeFlags& down,
                        const std::vector<EdgeId>& newly_down,
                        const std::vector<EdgeId>& newly_up,
                        ShortestPathTree& tree, SptRepairScratch& scratch,
                        std::vector<BrokerId>& changed) {
  const std::size_t n = graph.broker_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::uint8_t kSevered = 1;
  constexpr std::uint8_t kIntact = 2;

  // The Dijkstra label of a broker is its remaining-path mean: stats are
  // accumulated by the exact additions compute_tree_toward used for dist,
  // so no separate distance array needs to be stored in the tree.
  std::vector<double>& dist = scratch.dist;
  dist.assign(n, kInf);
  for (std::size_t b = 0; b < n; ++b) {
    if (tree.reachable[b]) dist[b] = tree.stats[b].mean_ms_per_kb;
  }

  // ---- Severed region: brokers whose next-hop chain crossed a cut edge,
  // closed over tree children (every descendant routes through its parent).
  // Brokers outside the region keep intact — and still optimal — paths:
  // removals only delete paths, so an untouched label cannot be beaten
  // except through a newly-up edge, which the cascade below handles.
  std::vector<std::uint8_t>& affected = scratch.affected;
  affected.assign(n, 0);
  bool severed = false;
  for (const EdgeId e : newly_down) {
    const Edge& edge = graph.edge(e);
    if (tree.reachable[edge.from] && tree.next_hop[edge.from] == edge.to) {
      affected[edge.from] = kSevered;
      severed = true;
    }
  }
  // A broker is severed iff the first classified broker up its next-hop
  // chain is: each walk classifies every broker it passes, so the pass is
  // linear, and the region comes out ascending.
  std::vector<BrokerId>& region = scratch.region;
  region.clear();
  if (severed) {
    std::vector<BrokerId>& stack = scratch.stack;
    for (std::size_t b = 0; b < n; ++b) {
      BrokerId u = static_cast<BrokerId>(b);
      stack.clear();
      while (affected[u] == 0 && tree.reachable[u] &&
             u != tree.destination) {
        stack.push_back(u);
        u = tree.next_hop[u];
      }
      const std::uint8_t verdict = affected[u] == kSevered ? kSevered : kIntact;
      if (affected[u] == 0) affected[u] = kIntact;
      for (const BrokerId w : stack) affected[w] = verdict;
      if (affected[b] == kSevered) region.push_back(static_cast<BrokerId>(b));
    }
  }

  std::vector<SptRepairScratch::Saved>& saved = scratch.saved;
  saved.clear();
  for (const BrokerId a : region) {
    saved.push_back(SptRepairScratch::Saved{
        tree.next_hop[a], tree.stats[a], tree.reachable[a] != 0});
    dist[a] = kInf;
    tree.next_hop[a] = kNoBroker;
    tree.stats[a] = PathStats{};
    tree.reachable[a] = false;
  }

  // Min-heap on (label, broker id), through the same push_heap/pop_heap
  // calls std::priority_queue makes.
  std::vector<std::pair<double, BrokerId>>& heap = scratch.heap;
  heap.clear();
  const std::greater<> heap_later;

  std::vector<std::uint8_t>& touched = scratch.touched;
  touched.assign(n, 0);
  std::vector<BrokerId>& improved = scratch.improved;  // Moved, not severed.
  improved.clear();

  // Label-correcting relaxation (labels can still improve after a push, so
  // pops carry a staleness check instead of a done set).
  const auto relax = [&](const Edge& edge) {  // edge.from relaxed via edge.to
    const BrokerId v = edge.from;
    const BrokerId parent = edge.to;
    const double candidate =
        dist[parent] + edge.link.params().mean_ms_per_kb;
    if (candidate >= dist[v]) return;
    dist[v] = candidate;
    tree.next_hop[v] = parent;
    tree.stats[v] = tree.stats[parent].then_link(edge.link.params());
    tree.reachable[v] = true;
    if (affected[v] != kSevered && !touched[v]) {
      touched[v] = 1;
      improved.push_back(v);
    }
    heap.emplace_back(candidate, v);
    std::push_heap(heap.begin(), heap.end(), heap_later);
  };

  // Seeds: each severed broker's usable edges into the intact region, plus
  // every restored edge as a potential improvement for its tail.
  for (const BrokerId a : region) {
    for (const EdgeId e : graph.out_edges(a)) {
      if (down.test(e)) continue;
      const Edge& edge = graph.edge(e);
      if (!tree.reachable[edge.to]) continue;
      relax(edge);
    }
  }
  for (const EdgeId e : newly_up) {
    if (down.test(e)) continue;  // Tolerate a same-batch down+up no-op.
    const Edge& edge = graph.edge(e);
    if (!tree.reachable[edge.to]) continue;
    relax(edge);
  }

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_later);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;  // Stale label.
    for (const EdgeId e : incoming[u]) {
      if (down.test(e)) continue;
      relax(graph.edge(e));
    }
  }

  changed.clear();
  for (std::size_t i = 0; i < region.size(); ++i) {
    const BrokerId a = region[i];
    const SptRepairScratch::Saved& s = saved[i];
    if (s.next_hop != tree.next_hop[a] ||
        s.reachable != (tree.reachable[a] != 0) ||
        !(s.stats == tree.stats[a])) {
      changed.push_back(a);
    }
  }
  changed.insert(changed.end(), improved.begin(), improved.end());
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
}

}  // namespace bdps
