#ifndef AIDA_CORE_MENTION_ENTITY_GRAPH_H_
#define AIDA_CORE_MENTION_ENTITY_GRAPH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/relatedness.h"
#include "graph/weighted_graph.h"
#include "util/cancellation.h"

namespace aida::core {

/// The candidate entities of one document, shared by the graph build and
/// Aida's final re-scoring so that both read one coherence model. Each
/// distinct in-KB entity gets one slot and each placeholder candidate a
/// private one, numbered by first occurrence. Under a measure with a pair
/// filter, the table also records which slot pairs the filter keeps;
/// pairs it does not keep are unrelated (Section 4.4.2).
///
/// The table also keeps the document's relatedness values, so that the
/// measure is asked at most once per pair of in-KB slots: the graph build
/// remembers every such pair it evaluates, Project lays those values out
/// against the slots the solver chose, and the re-scoring reads them
/// there. Placeholder pairs are never kept: their models are private to
/// the document, and KORE cannot order two placeholders, so they go to
/// the measure on every call. The values take 16 bytes per remembered
/// pair, as many as the graph build evaluates (about slots² / 2 under a
/// measure without a pair filter), plus slots x chosen columns doubles.
/// Reusable: a warm Build allocates only what FilterPairs returns, and
/// Release bounds what a worker keeps of a large document.
class DocumentEntityTable {
 public:
  /// Marks "no slot", e.g. a mention without a chosen entity.
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  /// The most value storage Release leaves in place for the next
  /// document; more than any news_stream or heavy_kore document needs.
  static constexpr size_t kRetainedValueBytes = 256 * 1024;

  /// Rebuilds the table over one document's candidate lists, one list per
  /// mention (none null), and forgets every remembered value. Under a
  /// measure with a pair filter, calls FilterPairs exactly once, over the
  /// first candidate of every slot.
  void Build(std::span<const std::vector<Candidate>* const> mentions,
             const RelatednessMeasure& relatedness);

  /// The slots of mention `m`'s candidates, parallel to its list.
  std::span<const uint32_t> Slots(size_t m) const {
    return {slots_.data() + offsets_[m], offsets_[m + 1] - offsets_[m]};
  }

  size_t mention_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t size() const { return entities_.size(); }

  /// Whether the relatedness of slots `a` and `b` is worth computing:
  /// always without a pair filter and for one slot (two candidates of the
  /// same in-KB entity), otherwise as FilterPairs decided.
  bool Kept(uint32_t a, uint32_t b) const {
    return !filtered_ || a == b ||
           ((kept_[a * row_words_ + b / 64] >> (b % 64)) & 1) != 0;
  }

  /// Keeps `value`, the measure's raw relatedness of slots `a` and `b`
  /// (before any weight scale), when both slots are in-KB entities; a
  /// no-op for a pair with a placeholder. Before Project the value is
  /// queued; after it, it is stored if either slot was chosen.
  void Remember(uint32_t a, uint32_t b, double value);

  /// Lays the remembered values out for the re-scoring, one column per
  /// distinct slot in `chosen` (one entry per mention, kNoSlot for none).
  /// Its size is slots x chosen columns, never slots x slots.
  void Project(std::span<const uint32_t> chosen);

  /// The remembered relatedness of slot `a` and chosen slot `b`, if any.
  /// Only valid after Project.
  bool Recall(uint32_t a, uint32_t b, double* value) const {
    const uint32_t column = column_of_slot_[b];
    if (column == kNoSlot) return false;
    const double v = values_[a * columns_ + column];
    if (std::isnan(v)) return false;
    *value = v;
    return true;
  }

  /// Ends the document: frees the value storage if it exceeds
  /// kRetainedValueBytes, so that one large document does not stay
  /// resident on the worker that served it.
  void Release();

  /// Bytes reserved for values: the remembered pairs and the projected
  /// array.
  size_t value_bytes() const {
    return remembered_.capacity() * sizeof(RememberedPair) +
           values_.capacity() * sizeof(double);
  }

 private:
  struct RememberedPair {
    uint32_t a;
    uint32_t b;
    double value;
  };

  uint32_t SlotOf(const Candidate& cand);
  void Store(uint32_t a, uint32_t b, double value);

  // Per mention, where its slots start in `slots_`; one extra at the end.
  std::vector<size_t> offsets_;
  std::vector<uint32_t> slots_;
  // Per slot: its first candidate (not owned).
  std::vector<const Candidate*> entities_;
  // Open addressing from in-KB entity id to slot; kNoSlot marks a free
  // cell.
  std::vector<std::pair<kb::EntityId, uint32_t>> index_;
  int index_shift_ = 0;
  bool filtered_ = false;
  // Kept-pair bitmap, one row of `row_words_` words per slot, set in both
  // rows of a pair.
  size_t row_words_ = 0;
  std::vector<uint64_t> kept_;
  // The in-KB pairs remembered before Project, in evaluation order.
  std::vector<RememberedPair> remembered_;
  bool projected_ = false;
  // Per slot: its column in `values_`, or kNoSlot if no mention chose it.
  std::vector<uint32_t> column_of_slot_;
  // Row-major slots x columns_; NaN where nothing is remembered.
  size_t columns_ = 0;
  std::vector<double> values_;
};

/// Input to graph construction: one entry per mention with its candidates
/// and the pre-combined mention-entity weights (prior/similarity blend
/// after the robustness tests).
struct GraphBuildInput {
  struct MentionEntry {
    /// The mention's whole candidate list, as the document's
    /// DocumentEntityTable saw it. Not owned.
    const std::vector<Candidate>* candidates = nullptr;
    /// The graph's candidates are (*candidates)[first, first +
    /// me_weights.size()): the whole list, or the one candidate the
    /// coherence test fixed.
    size_t first = 0;
    /// One per graph candidate, in [0, 1].
    std::vector<double> me_weights;
  };
  std::vector<MentionEntry> mentions;
  /// Balance of mention-entity vs entity-entity edge mass (the tuned
  /// gamma split of Section 3.6.1: 0.6 / 0.4).
  double me_scale = 0.6;
  double ee_scale = 0.4;
};

/// The combined graph of Section 3.4.1. Node layout: nodes
/// [0, num_mentions) are mention nodes; the rest are entity nodes, one per
/// entity-table slot among the graph's candidates, numbered by first
/// occurrence. An entity appearing in several mentions' candidate lists
/// thus becomes a single node; placeholder candidates are always
/// mention-private nodes.
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
/// (restricted to the pairs `entities` keeps, and to entity pairs serving
/// at least two distinct mentions). Both edge families are normalized to
/// [0,1], rescaled so their averages match (Section 3.4.1), then split by
/// me_scale / ee_scale.
///
/// `entities` is the document's table, built with the same measure over
/// the input's candidate lists in mention order; the build makes no
/// FilterPairs call of its own. Entity nodes are deduplicated, so each
/// qualifying pair is evaluated exactly once per document, in ascending
/// node order, and its edge is folded in as soon as its value is known.
/// The build remembers each evaluated value in `entities`
/// (DocumentEntityTable::Remember) for the re-scoring.
MentionEntityGraph BuildMentionEntityGraph(
    const GraphBuildInput& input, DocumentEntityTable& entities,
    const RelatednessMeasure& relatedness,
    const GraphBuildContext& context = {});

}  // namespace aida::core

#endif  // AIDA_CORE_MENTION_ENTITY_GRAPH_H_
