#ifndef AIDA_CORE_GRAPH_DISAMBIGUATOR_H_
#define AIDA_CORE_GRAPH_DISAMBIGUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/mention_entity_graph.h"
#include "util/cancellation.h"

namespace aida::core {

/// Tuning of Algorithm 1 (Section 3.4.2).
struct GraphDisambiguatorOptions {
  /// Pre-pruning keeps this many entity nodes per mention (paper: 5x).
  size_t entities_per_mention_budget = 5;
  /// Exhaustive post-processing is used when the product of remaining
  /// per-mention candidate counts stays below this bound.
  uint64_t max_exhaustive_combinations = 1 << 16;
  /// Iterations of the randomized local search fallback.
  size_t local_search_iterations = 2000;
  uint64_t seed = 0xA1DA;
};

/// Per-call execution context of one solve: cooperative cancellation,
/// polled inside the solver's iteration loops — pre-pruning, greedy
/// peel, exhaustive enumeration, local search — not just at phase
/// boundaries.
struct GraphSolveContext {
  /// Polled every few iterations; a tripped token aborts the solve
  /// (GraphSolution::aborted). Not owned.
  const util::CancellationToken* cancel = nullptr;
};

/// Output of the graph solver: per mention the index of the winning
/// candidate (into the mention's candidate list), or -1 for mentions with
/// no candidates.
struct GraphSolution {
  std::vector<int32_t> chosen_candidate;
  /// Best objective value seen by the greedy phase.
  double objective = 0.0;
  /// Total edge weight of the final configuration.
  double total_weight = 0.0;
  /// Solver work performed: greedy peel steps plus post-processing
  /// assignments (exhaustive) or proposals (local search) evaluated.
  uint64_t iterations = 0;
  /// True when the solve observed a tripped CancellationToken and bailed
  /// out: the solution is partial and must be discarded (the caller
  /// degrades to local-only results).
  bool aborted = false;
};

/// Runs Algorithm 1 on a built mention-entity graph: pre-prunes distant
/// entity nodes by summed squared shortest-path distance to the mentions,
/// greedily peels minimum-weighted-degree entities (keeping one candidate
/// per mention), then resolves remaining choices exhaustively or by
/// randomized local search.
GraphSolution SolveMentionEntityGraph(
    const MentionEntityGraph& meg, const GraphDisambiguatorOptions& options,
    const GraphSolveContext& context = {});

}  // namespace aida::core

#endif  // AIDA_CORE_GRAPH_DISAMBIGUATOR_H_
