#ifndef AIDA_CORE_MENTION_ENTITY_GRAPH_H_
#define AIDA_CORE_MENTION_ENTITY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/relatedness.h"
#include "graph/weighted_graph.h"
#include "util/cancellation.h"

namespace aida::core {

/// Input to graph construction: one entry per mention with its candidates
/// and the pre-combined mention-entity weights (prior/similarity blend
/// after the robustness tests).
struct GraphBuildInput {
  struct MentionEntry {
    /// Not owned.
    const std::vector<Candidate>* candidates = nullptr;
    /// Parallel to `candidates`, in [0, 1].
    std::vector<double> me_weights;
  };
  std::vector<MentionEntry> mentions;
  /// Balance of mention-entity vs entity-entity edge mass (the tuned
  /// gamma split of Section 3.6.1: 0.6 / 0.4).
  double me_scale = 0.6;
  double ee_scale = 0.4;
};

/// The combined graph of Section 3.4.1. Node layout: nodes
/// [0, num_mentions) are mention nodes; the rest are entity nodes. An
/// entity appearing in several mentions' candidate lists becomes a single
/// node; placeholder candidates are always mention-private nodes.
struct MentionEntityGraph {
  std::unique_ptr<graph::WeightedGraph> graph;
  size_t num_mentions = 0;
  /// Per entity node (indexed from 0): the (mention, candidate index)
  /// pairs it serves.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> entity_sources;
  /// Per entity node: a representative candidate (not owned).
  std::vector<const Candidate*> entity_candidates;
  /// Per mention: entity node ids (graph node ids), parallel to the
  /// mention's candidate list.
  std::vector<std::vector<graph::NodeId>> mention_candidate_nodes;
  /// Number of entity-entity relatedness evaluations performed (cache
  /// misses, when the measure is a CachedRelatednessMeasure).
  uint64_t relatedness_computations = 0;
  /// Entity-entity pair values served from a relatedness cache.
  uint64_t relatedness_cache_hits = 0;
  /// True when the build observed its CancellationToken mid-batch and
  /// stopped: the graph is partial and must be discarded (the caller
  /// degrades to local-only results).
  bool aborted = false;

  graph::NodeId EntityNodeId(size_t entity_index) const {
    return static_cast<graph::NodeId>(num_mentions + entity_index);
  }
  size_t EntityIndexOf(graph::NodeId node) const {
    return node - num_mentions;
  }
  size_t entity_node_count() const { return entity_candidates.size(); }
};

/// Per-call execution context of one graph build: cooperative
/// cancellation, polled inside the pair evaluation, not just between
/// phases.
struct GraphBuildContext {
  /// Polled every few dozen pair evaluations; a tripped token aborts the
  /// build (MentionEntityGraph::aborted). Not owned.
  const util::CancellationToken* cancel = nullptr;
};

/// Builds the weighted mention-entity graph: mention-entity edges carry
/// the blended local weights, entity-entity edges carry `relatedness`
/// (restricted to the measure's pair filter when it has one, and to entity
/// pairs serving at least two distinct mentions). Both edge families are
/// normalized to [0,1], rescaled so their averages match (Section 3.4.1),
/// then split by me_scale / ee_scale.
///
/// Entity nodes are deduplicated, so each qualifying pair is evaluated
/// exactly once per document, in enumeration order, and its edge is
/// folded in as soon as its value is known.
MentionEntityGraph BuildMentionEntityGraph(
    const GraphBuildInput& input, const RelatednessMeasure& relatedness,
    const GraphBuildContext& context = {});

}  // namespace aida::core

#endif  // AIDA_CORE_MENTION_ENTITY_GRAPH_H_
