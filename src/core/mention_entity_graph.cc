#include "core/mention_entity_graph.h"

#include <algorithm>
#include <unordered_map>

#include "util/status.h"

namespace aida::core {

namespace {

struct PendingEdge {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  double weight = 0.0;
};

// Reusable per-thread build scratch. Graph construction runs per request
// on the serving hot path; allocating the dedup map and edge vectors
// fresh each time made every request a malloc storm that serialized
// workers on the allocator's shared arenas. Each worker thread instead
// reuses one scratch block sized by the largest document it has seen
// (clear() keeps capacity). Safe because a build never recurses and the
// scratch never escapes the call.
struct BuildScratch {
  std::unordered_map<kb::EntityId, size_t> entity_index;
  std::vector<PendingEdge> me_edges;
  std::vector<PendingEdge> ee_edges;
  std::vector<const Candidate*> all_candidates;

  void Reset() {
    entity_index.clear();
    me_edges.clear();
    ee_edges.clear();
    all_candidates.clear();
  }
};

BuildScratch& ThisThreadScratch() {
  static thread_local BuildScratch scratch;
  return scratch;
}

}  // namespace

MentionEntityGraph BuildMentionEntityGraph(
    const GraphBuildInput& input, const RelatednessMeasure& relatedness,
    const GraphBuildContext& context) {
  MentionEntityGraph meg;
  meg.num_mentions = input.mentions.size();

  BuildScratch& scratch = ThisThreadScratch();
  scratch.Reset();

  // ---- Assign entity nodes (deduplicating in-KB entities) -----------------
  std::unordered_map<kb::EntityId, size_t>& entity_index =
      scratch.entity_index;
  meg.mention_candidate_nodes.resize(meg.num_mentions);
  for (uint32_t m = 0; m < input.mentions.size(); ++m) {
    const auto& entry = input.mentions[m];
    AIDA_CHECK(entry.candidates != nullptr);
    AIDA_CHECK(entry.me_weights.size() == entry.candidates->size());
    for (uint32_t c = 0; c < entry.candidates->size(); ++c) {
      const Candidate& cand = (*entry.candidates)[c];
      size_t index;
      if (!cand.is_placeholder) {
        auto [it, inserted] =
            entity_index.emplace(cand.entity, meg.entity_candidates.size());
        index = it->second;
        if (inserted) {
          meg.entity_candidates.push_back(&cand);
          meg.entity_sources.emplace_back();
        }
      } else {
        // Placeholders are mention-private nodes.
        index = meg.entity_candidates.size();
        meg.entity_candidates.push_back(&cand);
        meg.entity_sources.emplace_back();
      }
      meg.entity_sources[index].emplace_back(m, c);
      meg.mention_candidate_nodes[m].push_back(meg.EntityNodeId(index));
    }
  }

  const size_t total_nodes = meg.num_mentions + meg.entity_candidates.size();

  // ---- Collect mention-entity edges ---------------------------------------
  std::vector<PendingEdge>& me_edges = scratch.me_edges;
  double me_max = 0.0;
  for (uint32_t m = 0; m < input.mentions.size(); ++m) {
    const auto& entry = input.mentions[m];
    for (uint32_t c = 0; c < entry.candidates->size(); ++c) {
      double w = std::max(0.0, entry.me_weights[c]);
      me_edges.push_back({m, meg.mention_candidate_nodes[m][c], w});
      me_max = std::max(me_max, w);
    }
  }

  // ---- Collect entity-entity edges ----------------------------------------
  // Only pairs serving at least two distinct mentions matter: entities that
  // are exclusively candidates of the same single mention are mutually
  // exclusive anyway (Section 4.6.4).
  auto serves_two_mentions = [&](size_t i, size_t j) {
    const auto& si = meg.entity_sources[i];
    const auto& sj = meg.entity_sources[j];
    for (const auto& [mi, ci] : si) {
      for (const auto& [mj, cj] : sj) {
        if (mi != mj) return true;
      }
    }
    return false;
  };

  std::vector<PendingEdge>& ee_edges = scratch.ee_edges;
  double ee_max = 0.0;
  const size_t ec = meg.entity_candidates.size();

  // Entity nodes are deduplicated above, so every (i, j) occurs at most
  // once: each qualifying pair is evaluated exactly once per document, in
  // enumeration order, and its edge folded in right away. Relatedness
  // dominates the build, so the cancellation token is polled every
  // kCancelStride qualifying pairs, not only between phases; a tripped
  // token abandons the build and marks the graph aborted.
  constexpr size_t kCancelStride = 32;
  const util::CancellationToken* cancel = context.cancel;
  size_t evaluated = 0;
  auto add_pair = [&](size_t i, size_t j) {
    if (!serves_two_mentions(i, j)) return;
    if (evaluated++ % kCancelStride == 0 && cancel != nullptr &&
        cancel->cancelled()) {
      meg.aborted = true;
      return;
    }
    bool cache_hit = false;
    double rel = relatedness.RelatednessTracked(
        *meg.entity_candidates[i], *meg.entity_candidates[j], &cache_hit);
    rel *= meg.entity_candidates[i]->weight_scale *
           meg.entity_candidates[j]->weight_scale;
    if (cache_hit) {
      ++meg.relatedness_cache_hits;
    } else {
      ++meg.relatedness_computations;
    }
    if (rel <= 0.0) return;
    ee_edges.push_back({meg.EntityNodeId(i), meg.EntityNodeId(j), rel});
    ee_max = std::max(ee_max, rel);
  };
  if (relatedness.has_pair_filter()) {
    std::vector<const Candidate*>& all = scratch.all_candidates;
    all.assign(meg.entity_candidates.begin(), meg.entity_candidates.end());
    for (const auto& [i, j] : relatedness.FilterPairs(all)) {
      if (meg.aborted) break;
      add_pair(i, j);
    }
  } else {
    for (size_t i = 0; i < ec && !meg.aborted; ++i) {
      for (size_t j = i + 1; j < ec && !meg.aborted; ++j) add_pair(i, j);
    }
  }
  if (meg.aborted) return meg;  // partial; the caller discards it

  // ---- Normalize, balance averages, apply the gamma split -----------------
  if (me_max > 0.0) {
    for (PendingEdge& e : me_edges) e.weight /= me_max;
  }
  if (ee_max > 0.0) {
    for (PendingEdge& e : ee_edges) e.weight /= ee_max;
  }
  double me_avg = 0.0;
  for (const PendingEdge& e : me_edges) me_avg += e.weight;
  if (!me_edges.empty()) me_avg /= static_cast<double>(me_edges.size());
  double ee_avg = 0.0;
  for (const PendingEdge& e : ee_edges) ee_avg += e.weight;
  if (!ee_edges.empty()) ee_avg /= static_cast<double>(ee_edges.size());
  double balance = (ee_avg > 0.0 && me_avg > 0.0) ? me_avg / ee_avg : 1.0;

  meg.graph = std::make_unique<graph::WeightedGraph>(total_nodes);
  for (const PendingEdge& e : me_edges) {
    meg.graph->AddEdge(e.u, e.v, e.weight * input.me_scale);
  }
  for (const PendingEdge& e : ee_edges) {
    meg.graph->AddEdge(e.u, e.v, e.weight * balance * input.ee_scale);
  }
  return meg;
}

}  // namespace aida::core
