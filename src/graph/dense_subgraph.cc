#include "graph/dense_subgraph.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace aida::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// First-strict-min scan over [0, n): the (degree, node) pair of the
/// lowest-id eligible node of minimum degree, or (inf, n) when no node is
/// eligible. `eligible(u)` filters candidates.
template <typename Eligible>
std::pair<double, NodeId> MinDegreeScan(size_t n,
                                        const std::vector<double>& degree,
                                        const Eligible& eligible) {
  double min_degree = kInf;
  NodeId arg = static_cast<NodeId>(n);
  for (size_t u = 0; u < n; ++u) {
    if (!eligible(static_cast<NodeId>(u))) continue;
    if (degree[u] < min_degree) {
      min_degree = degree[u];
      arg = static_cast<NodeId>(u);
    }
  }
  return {min_degree, arg};
}

}  // namespace

DenseSubgraphResult ConstrainedDenseSubgraph(
    const WeightedGraph& graph, const std::vector<bool>& removable,
    const std::vector<std::vector<NodeId>>& groups,
    const DenseSubgraphOptions& options) {
  const size_t n = graph.node_count();
  AIDA_CHECK(removable.size() == n,
             "removable mask (%zu) must match node count (%zu)",
             removable.size(), n);

  std::vector<bool> alive(n, true);
  std::vector<double> degree(n, 0.0);
  for (NodeId u = 0; u < n; ++u) degree[u] = graph.WeightedDegree(u);

  // Group bookkeeping: how many alive members each group has, and which
  // groups each node belongs to.
  std::vector<size_t> group_alive(groups.size(), 0);
  std::vector<std::vector<uint32_t>> node_groups(n);
  for (uint32_t g = 0; g < groups.size(); ++g) {
    for (NodeId u : groups[g]) {
      AIDA_CHECK(u < n && removable[u],
                 "min-degree heap returned node %u that is not removable", u);
      ++group_alive[g];
      node_groups[u].push_back(g);
    }
  }

  size_t alive_removable = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (removable[u]) ++alive_removable;
  }

  DenseSubgraphResult result;

  // Objective of the current subgraph: minimum weighted degree among
  // alive removable nodes divided by their count (paper: "A graph with
  // fewer nodes is preferred, so the minimum weighted degree is divided
  // by the number of nodes in the graph").
  auto objective_now = [&]() {
    if (alive_removable == 0) return 0.0;
    const double min_degree =
        MinDegreeScan(n, degree,
                      [&](NodeId u) { return alive[u] && removable[u]; })
            .first;
    return min_degree / static_cast<double>(alive_removable);
  };

  result.alive = alive;
  result.objective = objective_now();

  auto is_taboo = [&](NodeId u) {
    for (uint32_t g : node_groups[u]) {
      if (group_alive[g] <= 1) return true;
    }
    return false;
  };

  for (;;) {
    // Cancellation is observed inside the solve phase, once per peel
    // iteration: a partial peel is useless, so abort and let the caller
    // degrade to local-only results.
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      result.aborted = true;
      return result;
    }
    // Find the non-taboo alive removable node of minimum weighted degree.
    const NodeId victim =
        MinDegreeScan(n, degree,
                      [&](NodeId u) {
                        return alive[u] && removable[u] && !is_taboo(u);
                      })
            .second;
    if (victim == static_cast<NodeId>(n)) break;  // all remaining are taboo

    alive[victim] = false;
    --alive_removable;
    for (uint32_t g : node_groups[victim]) --group_alive[g];
    for (const Edge& e : graph.Neighbors(victim)) {
      if (alive[e.to]) degree[e.to] -= e.weight;
    }
    ++result.iterations;

    const double objective = objective_now();
    if (objective > result.objective) {
      result.objective = objective;
      result.alive = alive;
    }
  }
  return result;
}

}  // namespace aida::graph
