#ifndef AIDA_CORE_RELATEDNESS_H_
#define AIDA_CORE_RELATEDNESS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "util/function_effects.h"

namespace aida::core {

/// Pair-wise semantic relatedness between candidate entities — the
/// coherence signal of joint disambiguation (Section 3.3.5). Implementations
/// include the link-based Milne-Witten measure (core), and the keyphrase-
/// based KWCS / KPCS / KORE family (kore module), which also works for
/// out-of-KB placeholder candidates.
class RelatednessMeasure {
 public:
  RelatednessMeasure() = default;
  // Copyable despite the atomic comparison counter (the counter value is
  // carried over); needed so concrete measures remain value types.
  RelatednessMeasure(const RelatednessMeasure& other)
      : comparisons_(other.comparisons()) {}
  RelatednessMeasure& operator=(const RelatednessMeasure& other) {
    if (this != &other) {
      comparisons_.store(other.comparisons(), std::memory_order_relaxed);
    }
    return *this;
  }
  virtual ~RelatednessMeasure() = default;

  virtual std::string name() const = 0;

  /// Relatedness in [0, 1]; must be symmetric, bit for bit for two in-KB
  /// candidates: the shared cache and Aida's per-document table
  /// (DocumentEntityTable) keep one value per unordered in-KB pair and
  /// serve it for both orientations.
  virtual double Relatedness(const Candidate& a, const Candidate& b) const = 0;

  /// Like Relatedness(), but additionally reports whether the value was
  /// served from a memoization layer rather than evaluated. Only caching
  /// decorators (CachedRelatednessMeasure) ever report true; the default
  /// forwards to Relatedness(). Callers that keep per-call statistics
  /// (the graph builder, the weighted-degree scorer) use this entry point
  /// so hits and real evaluations are attributed to the right call even
  /// when the measure is shared across threads.
  virtual double RelatednessTracked(const Candidate& a, const Candidate& b,
                                    bool* cache_hit) const {
    if (cache_hit != nullptr) *cache_hit = false;
    return Relatedness(a, b);
  }

  /// True if the measure pre-filters candidate pairs (LSH variants).
  virtual bool has_pair_filter() const { return false; }

  /// Whether a shared RelatednessCache pays for this measure, that is,
  /// whether a cache probe costs less than an evaluation. KbSnapshot
  /// serves a measure that says false without a cache. Decorators that do
  /// not forward this keep the default, and with it the cache.
  virtual bool worth_caching() const { return true; }

  /// Returns index pairs (into `candidates`) worth computing, sorted
  /// ascending and unique, each with first < second; pairs not returned
  /// are unrelated. Only called when has_pair_filter(). Whether a pair is
  /// kept must depend only on its two candidates, not on the rest of
  /// `candidates`, so that one call over a document's distinct entities
  /// (DocumentEntityTable) serves both the graph build and the final
  /// re-scoring. Callers pass each in-KB entity once and treat two
  /// candidates of the same in-KB entity as kept.
  virtual std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const Candidate*>& candidates) const {
    (void)candidates;
    return {};
  }

  /// Number of Relatedness() evaluations since construction or the last
  /// reset; the efficiency experiments (Table 4.4) report this.
  uint64_t comparisons() const {
    return comparisons_.load(std::memory_order_relaxed);
  }
  /// Zeroes the comparison counter. Must NOT be called while a batch run
  /// (BatchDisambiguator::Run) using this measure is in flight: concurrent
  /// Disambiguate calls would lose counts nondeterministically. Reset
  /// between runs, or prefer the per-call DisambiguationStats, which need
  /// no reset at all.
  void ResetComparisons() const {
    comparisons_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Implementations call this once per Relatedness() evaluation.
  void CountComparison() const AIDA_NONBLOCKING {
    comparisons_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<uint64_t> comparisons_{0};
};

/// Wikipedia-link based relatedness of Milne & Witten (Eq. 3.7):
///
///   MW(e,f) = 1 - (log max(|Ie|,|If|) - log |Ie ∩ If|)
///                 / (log N - log min(|Ie|,|If|))
///
/// clipped at 0; placeholders and link-less entities score 0 against
/// everything — the limitation KORE removes.
class MilneWittenRelatedness : public RelatednessMeasure {
 public:
  /// `kb` must outlive the measure.
  explicit MilneWittenRelatedness(const kb::KnowledgeBase* kb);

  std::string name() const override { return "mw"; }
  double Relatedness(const Candidate& a, const Candidate& b) const override;
  /// False: an MW evaluation costs less than a probe of the shared
  /// cache, even a probe that hits (DESIGN.md §5a).
  bool worth_caching() const override { return false; }

  /// Id-based form used by tests and by callers without Candidate wrappers.
  /// AIDA_NONBLOCKING: the concrete scoring kernel — in-link counts plus
  /// pure float math — is where the effect discipline binds; the virtual
  /// Relatedness interface above stays unannotated because user measures
  /// may legitimately block.
  double RelatednessById(kb::EntityId a, kb::EntityId b) const
      AIDA_NONBLOCKING;

 private:
  const kb::KnowledgeBase* kb_;
};

}  // namespace aida::core

#endif  // AIDA_CORE_RELATEDNESS_H_
