#include "sim/faults/timeline.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace bdps {
namespace {

using Window = std::pair<TimeMs, TimeMs>;

/// Sorts and merges possibly-overlapping [down, up) windows in place.
void merge_in_place(std::vector<Window>& windows) {
  std::sort(windows.begin(), windows.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (out > 0 && windows[i].first <= windows[out - 1].second) {
      windows[out - 1].second =
          std::max(windows[out - 1].second, windows[i].second);
    } else {
      windows[out++] = windows[i];
    }
  }
  windows.resize(out);
}

}  // namespace

CompiledFaults CompiledFaults::compile(const FaultPlan& plan,
                                       const Graph& graph) {
  if (!plan.storms.empty() || !plan.flaps.empty()) {
    throw std::invalid_argument(
        "CompiledFaults::compile expects a materialized plan "
        "(call materialize_faults first)");
  }
  CompiledFaults out;

  // ---- Per directed edge: link windows ∪ both endpoints' broker windows.
  std::vector<std::vector<Window>> edge_windows(graph.edge_count());
  std::vector<std::vector<Window>> broker_windows(graph.broker_count());
  for (const BrokerOutage& o : plan.broker_outages) {
    broker_windows[o.broker].emplace_back(o.down_at, o.up_at);
  }
  for (auto& windows : broker_windows) merge_in_place(windows);

  for (const LinkOutage& o : plan.link_outages) {
    for (const auto& [from, to] :
         {std::pair{o.a, o.b}, std::pair{o.b, o.a}}) {
      const EdgeId e = graph.edge_id(from, to);
      if (e == kNoEdge) {
        throw std::invalid_argument(
            "CompiledFaults::compile: plan references nonexistent link");
      }
      edge_windows[e].emplace_back(o.down_at, o.up_at);
    }
  }
  for (EdgeId e = 0; e < static_cast<EdgeId>(graph.edge_count()); ++e) {
    const Edge& edge = graph.edge(e);
    for (const BrokerId endpoint : {edge.from, edge.to}) {
      for (const Window& w : broker_windows[endpoint]) {
        edge_windows[e].push_back(w);
      }
    }
    merge_in_place(edge_windows[e]);
  }

  // ---- Batches: group every transition instant.
  std::map<TimeMs, FaultBatch> batches;
  const auto batch_at = [&](TimeMs at) -> FaultBatch& {
    FaultBatch& batch = batches[at];
    batch.at = at;
    return batch;
  };
  for (BrokerId b = 0; b < static_cast<BrokerId>(graph.broker_count()); ++b) {
    for (const Window& w : broker_windows[b]) {
      batch_at(w.first).brokers_down.push_back(b);
      if (w.second != kNoDeadline) batch_at(w.second).brokers_up.push_back(b);
    }
  }
  for (EdgeId e = 0; e < static_cast<EdgeId>(graph.edge_count()); ++e) {
    for (const Window& w : edge_windows[e]) {
      batch_at(w.first).edges_down.push_back(e);
      if (w.second != kNoDeadline) batch_at(w.second).edges_up.push_back(e);
    }
  }
  out.batches_.reserve(batches.size());
  for (auto& [at, batch] : batches) {
    // Ids are appended in ascending order above; keep the invariant
    // explicit for future editors.
    std::sort(batch.brokers_down.begin(), batch.brokers_down.end());
    std::sort(batch.brokers_up.begin(), batch.brokers_up.end());
    std::sort(batch.edges_down.begin(), batch.edges_down.end());
    std::sort(batch.edges_up.begin(), batch.edges_up.end());
    out.batches_.push_back(std::move(batch));
  }

  // ---- CSR doom tables.
  out.edge_offsets_.assign(graph.edge_count() + 1, 0);
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    out.edge_offsets_[e + 1] =
        out.edge_offsets_[e] +
        static_cast<std::uint32_t>(edge_windows[e].size());
  }
  out.edge_down_times_.reserve(out.edge_offsets_.back());
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    for (const Window& w : edge_windows[e]) {
      out.edge_down_times_.push_back(w.first);
    }
  }
  out.broker_offsets_.assign(graph.broker_count() + 1, 0);
  for (std::size_t b = 0; b < graph.broker_count(); ++b) {
    out.broker_offsets_[b + 1] =
        out.broker_offsets_[b] +
        static_cast<std::uint32_t>(broker_windows[b].size());
  }
  out.broker_down_times_.reserve(out.broker_offsets_.back());
  for (std::size_t b = 0; b < graph.broker_count(); ++b) {
    for (const Window& w : broker_windows[b]) {
      out.broker_down_times_.push_back(w.first);
    }
  }
  return out;
}

bool CompiledFaults::cut_between(const std::vector<std::uint32_t>& offsets,
                                 const std::vector<TimeMs>& times,
                                 std::size_t key, TimeMs after, TimeMs upto) {
  if (key + 1 >= offsets.size()) return false;
  const auto begin = times.begin() + offsets[key];
  const auto end = times.begin() + offsets[key + 1];
  const auto it = std::upper_bound(begin, end, after);
  return it != end && *it <= upto;
}

}  // namespace bdps
