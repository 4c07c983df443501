#ifndef AIDA_GRAPH_DENSE_SUBGRAPH_H_
#define AIDA_GRAPH_DENSE_SUBGRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"
#include "util/cancellation.h"

namespace aida::graph {

/// Execution knobs of the greedy reduction: cooperative cancellation.
struct DenseSubgraphOptions {
  /// Polled between peel iterations; a tripped token aborts the
  /// reduction (DenseSubgraphResult::aborted). Not owned.
  const util::CancellationToken* cancel = nullptr;
};

/// Result of the constrained greedy densest-subgraph reduction.
struct DenseSubgraphResult {
  /// Per node: whether it survives in the best subgraph found.
  std::vector<bool> alive;
  /// The objective value (minimum weighted degree over removable alive
  /// nodes, divided by their count) of the returned subgraph.
  double objective = 0.0;
  /// Number of removal iterations executed.
  size_t iterations = 0;
  /// True when the reduction observed a tripped CancellationToken and
  /// stopped early: the result is partial and must be discarded.
  bool aborted = false;
};

/// Greedy approximation for the constrained densest-subgraph problem of
/// Section 3.4.2, extending Sozio & Gionis: iteratively remove the
/// removable node of minimum weighted degree, subject to the constraint
/// that every group (the candidate set of one mention) keeps at least one
/// alive member; among all intermediate subgraphs, return the one that
/// maximizes (min weighted degree of removable nodes) / (#removable nodes).
///
/// `removable[u]` marks entity nodes (mention nodes are never removed).
/// `groups[g]` lists the removable nodes that are candidates of group g.
/// A node that belongs to several groups is taboo as soon as it is the last
/// alive member of any of them.
DenseSubgraphResult ConstrainedDenseSubgraph(
    const WeightedGraph& graph, const std::vector<bool>& removable,
    const std::vector<std::vector<NodeId>>& groups,
    const DenseSubgraphOptions& options = {});

}  // namespace aida::graph

#endif  // AIDA_GRAPH_DENSE_SUBGRAPH_H_
