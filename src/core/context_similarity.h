#ifndef AIDA_CORE_CONTEXT_SIMILARITY_H_
#define AIDA_CORE_CONTEXT_SIMILARITY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "util/lifetime.h"

namespace aida::core {

/// Word-position index of one document, used to score candidate keyphrases
/// against the text. Tokens are lowercased, stopwords dropped, and words
/// unknown to the vocabulary ignored.
///
/// The index is flat (DESIGN.md §5j): the sorted distinct words, their
/// positions in CSR form, and a presence bitmap over word ids with the
/// number of set bits before each 64-bit block. `Contains` is one bit
/// test; `Positions` adds one popcount and returns a CSR slice. The
/// bitmap covers word ids up to the largest one present, so it costs at
/// most 12 bytes per 64 vocabulary words. There is no hash map:
/// consumers iterate the index (WordCounts) and fold the results into
/// floating-point sums, so iteration order must be deterministic across
/// platforms and hash seeds (the parallel == serial byte-identical
/// contract, DESIGN.md §5e; enforced by the unordered-iteration lint in
/// tools/static_analysis/).
class DocumentContext {
 public:
  /// Builds the index over `tokens` using `vocab` for word ids.
  DocumentContext(const std::vector<std::string>& tokens,
                  const ExtendedVocabulary& vocab);

  /// Whether `word` occurs anywhere in the document, mention spans
  /// included. False for every id past the largest one present.
  bool Contains(kb::WordId word) const {
    const size_t block = word / 64;
    return block < present_.size() && ((present_[block] >> (word % 64)) & 1);
  }

  /// Ascending positions of `word` in the document; empty if absent,
  /// including for ids interned after the index was built.
  std::span<const size_t> Positions(kb::WordId word) const
      AIDA_LIFETIME_BOUND {
    if (!Contains(word)) return {};
    const size_t row = Row(word);
    return {positions_.data() + offsets_[row],
            offsets_[row + 1] - offsets_[row]};
  }

  /// All distinct indexed words with their occurrence counts, in
  /// ascending word-id order. Used by consumers that iterate the context
  /// rather than probing it (e.g. the type classifier).
  std::vector<std::pair<kb::WordId, size_t>> WordCounts() const;

  size_t token_count() const { return token_count_; }

 private:
  /// Index of present `word` among the distinct words: the set bits
  /// before it.
  size_t Row(kb::WordId word) const {
    const size_t block = word / 64;
    const uint64_t below = (uint64_t{1} << (word % 64)) - 1;
    return rank_[block] +
           static_cast<size_t>(std::popcount(present_[block] & below));
  }

  size_t token_count_ = 0;
  /// Distinct indexed words, ascending.
  std::vector<kb::WordId> words_;
  /// words_[r]'s positions are positions_[offsets_[r], offsets_[r + 1]).
  std::vector<size_t> offsets_;
  /// Every indexed position, grouped by word, ascending within a word.
  std::vector<size_t> positions_;
  /// Bit w % 64 of block w / 64 is set iff word w occurs.
  std::vector<uint64_t> present_;
  /// rank_[b]: set bits in present_[0, b).
  std::vector<uint32_t> rank_;
};

/// Keyphrase-cover mention-entity similarity (Section 3.3.4). For each
/// candidate keyphrase, finds the shortest document window covering the
/// maximal number of the phrase's words (the phrase "cover"), and scores
/// partial matches superlinearly down-weighted:
///
///   score(q) = z * (sum_{w in cover} weight(w) / sum_{w in q} weight(w))^2
///   with z = (#matching words) / (cover length)                  (Eq. 3.4)
///
/// simscore(m, e) = sum over all keyphrases q of e (Eq. 3.6). Words inside
/// the mention span are excluded from matching ("all tokens ... except the
/// mention itself").
class ContextSimilarity {
 public:
  enum class WordWeight {
    /// Entity-specific NPMI weights (AIDA's choice for disambiguation).
    kNpmi,
    /// Collection-wide IDF weights.
    kIdf,
  };

  explicit ContextSimilarity(WordWeight weight_mode = WordWeight::kNpmi);

  /// Scores `model` against the document, ignoring token positions in
  /// [mention_begin, mention_end). A phrase none of whose words occurs in
  /// the document adds exactly zero, so it is skipped on the bitmap
  /// before any weight arithmetic; the other phrases are summed in model
  /// order. Warm calls do not allocate: the window scratch is per thread.
  double Score(const DocumentContext& context, size_t mention_begin,
               size_t mention_end, const CandidateModel& model) const;

 private:
  WordWeight weight_mode_;
};

}  // namespace aida::core

#endif  // AIDA_CORE_CONTEXT_SIMILARITY_H_
