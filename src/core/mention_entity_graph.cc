#include "core/mention_entity_graph.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/status.h"

namespace aida::core {

void DocumentEntityTable::Build(
    std::span<const std::vector<Candidate>* const> mentions,
    const RelatednessMeasure& relatedness) {
  size_t total = 0;
  for (const std::vector<Candidate>* cands : mentions) {
    AIDA_CHECK(cands != nullptr);
    total += cands->size();
  }
  size_t capacity = 16;
  while (capacity < 2 * total) capacity *= 2;
  index_.assign(capacity, {kb::kNoEntity, kNoSlot});
  index_shift_ = 64 - std::countr_zero(capacity);

  offsets_.clear();
  slots_.clear();
  entities_.clear();
  for (const std::vector<Candidate>* cands : mentions) {
    offsets_.push_back(slots_.size());
    for (const Candidate& cand : *cands) slots_.push_back(SlotOf(cand));
  }
  offsets_.push_back(slots_.size());
  remembered_.clear();
  projected_ = false;

  filtered_ = relatedness.has_pair_filter();
  const size_t n = entities_.size();
  row_words_ = (n + 63) / 64;
  if (!filtered_) return;
  kept_.assign(n * row_words_, 0);
  for (const auto& [a, b] : relatedness.FilterPairs(entities_)) {
    AIDA_CHECK(a < n && b < n);
    kept_[a * row_words_ + b / 64] |= uint64_t{1} << (b % 64);
    kept_[b * row_words_ + a / 64] |= uint64_t{1} << (a % 64);
  }
}

void DocumentEntityTable::Remember(uint32_t a, uint32_t b, double value) {
  if (entities_[a]->is_placeholder || entities_[b]->is_placeholder) return;
  if (projected_) {
    Store(a, b, value);
  } else {
    remembered_.push_back({a, b, value});
  }
}

void DocumentEntityTable::Project(std::span<const uint32_t> chosen) {
  column_of_slot_.assign(entities_.size(), kNoSlot);
  columns_ = 0;
  for (const uint32_t slot : chosen) {
    if (slot == kNoSlot || column_of_slot_[slot] != kNoSlot) continue;
    column_of_slot_[slot] = static_cast<uint32_t>(columns_++);
  }
  values_.assign(entities_.size() * columns_,
                 std::numeric_limits<double>::quiet_NaN());
  for (const RememberedPair& pair : remembered_) {
    Store(pair.a, pair.b, pair.value);
  }
  projected_ = true;
}

void DocumentEntityTable::Release() {
  if (value_bytes() <= kRetainedValueBytes) return;
  remembered_ = std::vector<RememberedPair>();
  values_ = std::vector<double>();
}

// The measure is bit-symmetric, so one value serves both orientations.
void DocumentEntityTable::Store(uint32_t a, uint32_t b, double value) {
  if (column_of_slot_[b] != kNoSlot) {
    values_[a * columns_ + column_of_slot_[b]] = value;
  }
  if (column_of_slot_[a] != kNoSlot) {
    values_[b * columns_ + column_of_slot_[a]] = value;
  }
}

uint32_t DocumentEntityTable::SlotOf(const Candidate& cand) {
  const uint32_t fresh = static_cast<uint32_t>(entities_.size());
  if (!cand.is_placeholder) {
    // Fibonacci hashing: entity ids are small and dense.
    const size_t mask = index_.size() - 1;
    size_t s = static_cast<size_t>(
        (uint64_t{cand.entity} * 0x9E3779B97F4A7C15ull) >> index_shift_);
    while (index_[s].second != kNoSlot && index_[s].first != cand.entity) {
      s = (s + 1) & mask;
    }
    if (index_[s].second != kNoSlot) return index_[s].second;
    index_[s] = {cand.entity, fresh};
  }
  entities_.push_back(&cand);
  return fresh;
}

namespace {

struct PendingEdge {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  double weight = 0.0;
};

constexpr uint32_t kNoNode = 0xFFFFFFFFu;

// Reusable per-thread build scratch. Graph construction runs per request
// on the serving hot path; allocating the node map and edge vectors
// fresh each time made every request a malloc storm that serialized
// workers on the allocator's shared arenas. Each worker thread instead
// reuses one scratch block sized by the largest document it has seen
// (clear() keeps capacity). Safe because a build never recurses and the
// scratch never escapes the call.
struct BuildScratch {
  // Per table slot: its entity node index, or kNoNode.
  std::vector<uint32_t> node_of_slot;
  // Per entity node: its table slot.
  std::vector<uint32_t> slot_of_node;
  std::vector<PendingEdge> me_edges;
  std::vector<PendingEdge> ee_edges;

  void Reset(size_t slots) {
    node_of_slot.assign(slots, kNoNode);
    slot_of_node.clear();
    me_edges.clear();
    ee_edges.clear();
  }
};

BuildScratch& ThisThreadScratch() {
  static thread_local BuildScratch scratch;
  return scratch;
}

}  // namespace

MentionEntityGraph BuildMentionEntityGraph(
    const GraphBuildInput& input, DocumentEntityTable& entities,
    const RelatednessMeasure& relatedness,
    const GraphBuildContext& context) {
  MentionEntityGraph meg;
  meg.num_mentions = input.mentions.size();

  BuildScratch& scratch = ThisThreadScratch();
  scratch.Reset(entities.size());

  // ---- Assign entity nodes: one per slot, by first occurrence -------------
  // The table gives placeholders private slots, so they stay
  // mention-private nodes.
  std::vector<uint32_t>& node_of_slot = scratch.node_of_slot;
  std::vector<uint32_t>& slot_of_node = scratch.slot_of_node;
  AIDA_CHECK(entities.mention_count() == meg.num_mentions);
  meg.mention_candidate_nodes.resize(meg.num_mentions);
  for (uint32_t m = 0; m < input.mentions.size(); ++m) {
    const auto& entry = input.mentions[m];
    AIDA_CHECK(entry.candidates != nullptr);
    const std::span<const uint32_t> slots = entities.Slots(m);
    AIDA_CHECK(slots.size() == entry.candidates->size());
    AIDA_CHECK(entry.first + entry.me_weights.size() <= slots.size());
    for (uint32_t c = 0; c < entry.me_weights.size(); ++c) {
      const uint32_t slot = slots[entry.first + c];
      uint32_t& index = node_of_slot[slot];
      if (index == kNoNode) {
        index = static_cast<uint32_t>(meg.entity_candidates.size());
        meg.entity_candidates.push_back(&(*entry.candidates)[entry.first + c]);
        meg.entity_sources.emplace_back();
        slot_of_node.push_back(slot);
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
    for (uint32_t c = 0; c < entry.me_weights.size(); ++c) {
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
  // ascending (i, j) order, and its edge folded in right away. Relatedness
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
    entities.Remember(slot_of_node[i], slot_of_node[j], rel);
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
  for (size_t i = 0; i < ec && !meg.aborted; ++i) {
    for (size_t j = i + 1; j < ec && !meg.aborted; ++j) {
      if (entities.Kept(slot_of_node[i], slot_of_node[j])) add_pair(i, j);
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
