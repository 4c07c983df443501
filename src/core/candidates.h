#ifndef AIDA_CORE_CANDIDATES_H_
#define AIDA_CORE_CANDIDATES_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"
#include "util/lifetime.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aida::core {

/// One weighted keyphrase of a candidate entity, with per-word weights.
/// Word ids live in the KB keyphrase vocabulary, possibly extended by
/// out-of-KB words (emerging-entity models harvest new words).
struct CandidatePhrase {
  std::vector<kb::WordId> words;
  /// Phrase-level MI weight (mu, Eq. 4.1).
  double phrase_weight = 0.0;
  /// Entity-specific keyword NPMI weights (Eq. 3.1), parallel to `words`.
  std::vector<double> word_npmi;
  /// Collection-wide keyword IDF weights (Eq. 3.5), parallel to `words`.
  std::vector<double> word_idf;
};

/// The feature view of one disambiguation candidate: its weighted
/// keyphrases. Emerging-entity placeholders are CandidateModels too — that
/// is the point of the NED-EE design (Section 5.5.2): once a placeholder
/// has a keyphrase model, the NED machinery treats it like any entity.
struct CandidateModel {
  /// kb::kNoEntity for out-of-KB placeholder models.
  kb::EntityId entity = kb::kNoEntity;
  std::vector<CandidatePhrase> phrases;
  /// Sum of phrase weights (the KORE denominator contribution).
  double total_phrase_weight = 0.0;
};

/// One entry of a mention's candidate list.
struct Candidate {
  kb::EntityId entity = kb::kNoEntity;
  /// P(entity | name) from anchor statistics; 0 for placeholders unless a
  /// caller supplies one.
  double prior = 0.0;
  /// Never null.
  std::shared_ptr<const CandidateModel> model;
  /// True for an emerging-entity placeholder injected by NED-EE.
  bool is_placeholder = false;
  /// Multiplier applied to this candidate's similarity and relatedness
  /// contributions — the gamma balance between news-harvested placeholder
  /// models and Wikipedia-derived entity models (Section 5.6).
  double weight_scale = 1.0;
};

/// Builds and caches `CandidateModel`s for in-KB entities from the
/// knowledge base's keyphrase store. Thread-safe: concurrent ModelFor
/// calls are serialized on an internal mutex (model construction is cheap
/// relative to disambiguation).
class CandidateModelStore {
 public:
  /// `kb` must outlive the store.
  explicit CandidateModelStore(const kb::KnowledgeBase* kb);

  /// Returns the (cached) model of `entity`.
  std::shared_ptr<const CandidateModel> ModelFor(kb::EntityId entity) const
      AIDA_EXCLUDES(mutex_);

  const kb::KnowledgeBase& knowledge_base() const { return *kb_; }

 private:
  const kb::KnowledgeBase* kb_;
  mutable util::Mutex mutex_{util::lock_rank::kCandidateStore};
  mutable std::unordered_map<kb::EntityId, std::shared_ptr<const CandidateModel>>
      cache_ AIDA_GUARDED_BY(mutex_);
};

/// Looks up the dictionary candidates of a mention surface string and
/// attaches models; the returned list is ordered by descending prior.
std::vector<Candidate> LookupCandidates(const CandidateModelStore& store,
                                        std::string_view mention_surface);

/// Word-id interner that extends the KB vocabulary with out-of-KB words.
/// Extension ids start at `store->word_count()` and carry caller-provided
/// IDF weights (harvested from the document collection).
class ExtendedVocabulary {
 public:
  /// `store` must be finalized and outlive the vocabulary.
  explicit ExtendedVocabulary(const kb::KeyphraseStore* store);

  /// Finds an existing (KB or extension) word id; kb::kNoWord if unknown.
  /// Does not allocate while no extension word has been interned.
  kb::WordId Find(std::string_view word) const;

  /// Finds or interns; new words get `default_idf` until SetIdf is called.
  kb::WordId GetOrIntern(std::string_view word, double default_idf = 8.0);

  /// Overrides the IDF of an extension word (no-op for KB words, whose IDF
  /// is owned by the store).
  void SetIdf(kb::WordId word, double idf);

  /// IDF of any known word id.
  double Idf(kb::WordId word) const;

  /// Surface text of any known word id (KB or extension). The view
  /// aliases either this vocabulary's extension pool or the underlying
  /// (possibly mmap-backed) keyphrase store, so it must not outlive the
  /// KB snapshot pin.
  std::string_view Text(kb::WordId word) const AIDA_LIFETIME_BOUND;

  size_t size() const;
  const kb::KeyphraseStore& store() const { return *store_; }

 private:
  const kb::KeyphraseStore* store_;
  std::unordered_map<std::string, kb::WordId> extra_ids_;
  std::vector<double> extra_idf_;
  std::vector<std::string> extra_text_;
};

}  // namespace aida::core

#endif  // AIDA_CORE_CANDIDATES_H_
