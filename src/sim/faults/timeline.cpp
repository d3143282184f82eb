#include "sim/faults/timeline.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
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
                                       const Graph& graph,
                                       const std::vector<LinkFailure>& kills) {
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

  // ---- Terminal kills: each directed edge's earliest kill instant.
  std::vector<TimeMs> kill_at(graph.edge_count(), kNoDeadline);
  const auto n = static_cast<BrokerId>(graph.broker_count());
  for (const LinkFailure& kill : kills) {
    if (kill.a < 0 || kill.a >= n || kill.b < 0 || kill.b >= n) {
      throw std::invalid_argument(
          "link failure references a broker outside the topology");
    }
    for (const auto& [from, to] :
         {std::pair{kill.a, kill.b}, std::pair{kill.b, kill.a}}) {
      const EdgeId e = graph.edge_id(from, to);
      if (e != kNoEdge) kill_at[e] = std::min(kill_at[e], kill.at);
    }
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
      // A killed edge never comes back: recoveries at or after its kill
      // vanish, so routing repair never sees it up again.
      if (w.second < kill_at[e]) batch_at(w.second).edges_up.push_back(e);
    }
    if (kill_at[e] != kNoDeadline) {
      batch_at(kill_at[e]).edges_killed.push_back(e);
    }
  }
  // Ids were appended in ascending order above (check_invariants pins it).
  out.batches_.reserve(batches.size());
  for (auto& [at, batch] : batches) out.batches_.push_back(std::move(batch));

  // ---- Doom rows, read off the finished batches: each edge's down and
  // kill instants, each broker's crash instants (ascending, as the batches
  // are).  A kill is a down-transition too: it dooms the copy in flight.
  std::vector<std::vector<TimeMs>> edge_rows(graph.edge_count());
  std::vector<std::vector<TimeMs>> broker_rows(graph.broker_count());
  for (const FaultBatch& batch : out.batches_) {
    for (const BrokerId b : batch.brokers_down) {
      broker_rows[b].push_back(batch.at);
    }
    for (const EdgeId e : batch.edges_down) edge_rows[e].push_back(batch.at);
    for (const EdgeId e : batch.edges_killed) {
      if (edge_rows[e].empty() || edge_rows[e].back() != batch.at) {
        edge_rows[e].push_back(batch.at);
      }
    }
  }
  out.edge_downs_ = DoomTable(edge_rows);
  out.broker_downs_ = DoomTable(broker_rows);
#ifndef NDEBUG
  out.check_invariants();
#endif
  return out;
}

void CompiledFaults::check_invariants() const {
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("CompiledFaults: ") + what);
  };
  const auto strictly_ascending = [](const auto& ids) {
    return std::adjacent_find(ids.begin(), ids.end(), [](auto a, auto b) {
             return a >= b;
           }) == ids.end();
  };
  std::vector<TimeMs> killed_at(
      edge_downs_.offsets.empty() ? 0 : edge_downs_.offsets.size() - 1,
      kNoDeadline);
  for (std::size_t i = 0; i < batches_.size(); ++i) {
    const FaultBatch& batch = batches_[i];
    if (i > 0 && !(batches_[i - 1].at < batch.at)) {
      fail("batches not strictly ascending in time");
    }
    if (!strictly_ascending(batch.brokers_down) ||
        !strictly_ascending(batch.brokers_up) ||
        !strictly_ascending(batch.edges_down) ||
        !strictly_ascending(batch.edges_up) ||
        !strictly_ascending(batch.edges_killed)) {
      fail("batch id list not ascending and unique");
    }
    for (const EdgeId e : batch.edges_killed) {
      killed_at[e] = std::min(killed_at[e], batch.at);
    }
    for (const EdgeId e : batch.edges_up) {
      if (killed_at[e] <= batch.at) fail("killed edge comes back up");
    }
  }
  for (const DoomTable* table : {&edge_downs_, &broker_downs_}) {
    for (std::size_t key = 0; key + 1 < table->offsets.size(); ++key) {
      if (!std::is_sorted(table->times.begin() + table->offsets[key],
                          table->times.begin() + table->offsets[key + 1])) {
        fail("doom table row not sorted");
      }
    }
  }
}

CompiledFaults::DoomTable::DoomTable(
    const std::vector<std::vector<TimeMs>>& rows) {
  offsets.reserve(rows.size() + 1);
  offsets.push_back(0);
  for (const std::vector<TimeMs>& row : rows) {
    times.insert(times.end(), row.begin(), row.end());
    offsets.push_back(static_cast<std::uint32_t>(times.size()));
  }
}

bool CompiledFaults::DoomTable::cut_between(std::size_t key, TimeMs after,
                                            TimeMs upto) const {
  if (key + 1 >= offsets.size()) return false;
  const auto begin = times.begin() + offsets[key];
  const auto end = times.begin() + offsets[key + 1];
  const auto it = std::upper_bound(begin, end, after);
  return it != end && *it <= upto;
}

}  // namespace bdps
