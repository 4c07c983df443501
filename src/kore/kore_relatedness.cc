#include "kore/kore_relatedness.h"

#include <algorithm>
#include <vector>

namespace aida::kore {

namespace {

// True if `words[index]` already occurred at an earlier position; phrases
// are treated as word SETS, so duplicates within a phrase count once —
// this keeps the overlap symmetric.
bool IsDuplicateWord(const std::vector<kb::WordId>& words, size_t index) {
  for (size_t i = 0; i < index; ++i) {
    if (words[i] == words[index]) return true;
  }
  return false;
}

// Weighted-Jaccard phrase overlap (Eq. 4.3) with IDF keyword weights.
double PhraseOverlap(const core::CandidatePhrase& p,
                     const core::CandidatePhrase& q) {
  double intersection = 0.0;
  double union_mass = 0.0;
  // Phrases are short (<= ~5 words); quadratic scan beats hashing here.
  for (size_t i = 0; i < p.words.size(); ++i) {
    if (IsDuplicateWord(p.words, i)) continue;
    bool shared = false;
    for (size_t j = 0; j < q.words.size(); ++j) {
      if (p.words[i] == q.words[j]) {
        intersection += std::min(p.word_idf[i], q.word_idf[j]);
        union_mass += std::max(p.word_idf[i], q.word_idf[j]);
        shared = true;
        break;
      }
    }
    if (!shared) union_mass += p.word_idf[i];
  }
  for (size_t j = 0; j < q.words.size(); ++j) {
    if (IsDuplicateWord(q.words, j)) continue;
    bool shared = false;
    for (size_t i = 0; i < p.words.size(); ++i) {
      if (p.words[i] == q.words[j]) {
        shared = true;
        break;
      }
    }
    if (!shared) union_mass += q.word_idf[j];
  }
  if (union_mass <= 0.0) return 0.0;
  return intersection / union_mass;
}

// Word -> phrase postings of one model: an open-addressing table over the
// model's distinct words whose slots head singly linked posting lists.
// Every array is sized by the model's word occurrences, never by word-id
// values, and is reused across Build calls, so a warm build allocates
// nothing. A slot belongs to the current build only while it carries the
// build's stamp, so no build has to clear the table.
class PostingIndex {
 public:
  static constexpr uint32_t kEnd = 0xFFFFFFFFu;

  void Build(const core::CandidateModel& model) {
    size_t occurrences = 0;
    for (const core::CandidatePhrase& phrase : model.phrases) {
      occurrences += phrase.words.size();
    }
    // At most one slot in eight is used: most probes come from the other
    // model's words and miss, and a sparse table ends them at one slot.
    int bits = 4;
    while ((size_t{1} << bits) < 8 * occurrences) ++bits;
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    if (slots_.size() <= mask_) slots_.resize(mask_ + 1);
    if (++stamp_ == 0) {  // wrapped: no earlier build's slot may match
      for (Slot& slot : slots_) slot.stamp = 0;
      stamp_ = 1;
    }
    postings_.clear();
    // Prepending while walking the phrases backwards leaves every list in
    // ascending phrase order — the order the probe must visit them in.
    for (size_t p = model.phrases.size(); p-- > 0;) {
      for (kb::WordId w : model.phrases[p].words) {
        Slot& slot = slots_[Find(w)];
        const uint32_t next = slot.stamp == stamp_ ? slot.head : kEnd;
        slot = {w, static_cast<uint32_t>(postings_.size()), stamp_};
        postings_.push_back({static_cast<uint32_t>(p), next});
      }
    }
  }

  // First posting of `word`, or kEnd when no phrase contains it.
  uint32_t Head(kb::WordId word) const {
    const Slot& slot = slots_[Find(word)];
    return slot.stamp == stamp_ ? slot.head : kEnd;
  }
  uint32_t Phrase(uint32_t posting) const { return postings_[posting].phrase; }
  uint32_t Next(uint32_t posting) const { return postings_[posting].next; }

 private:
  struct Slot {
    kb::WordId word = 0;
    uint32_t head = 0;
    uint32_t stamp = 0;
  };
  struct Posting {
    uint32_t phrase;
    uint32_t next;
  };

  // The slot holding `word` in this build, or the free slot it would take.
  size_t Find(kb::WordId word) const {
    size_t s = (uint64_t{word} * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[s].stamp == stamp_ && slots_[s].word != word) {
      s = (s + 1) & mask_;
    }
    return s;
  }

  int shift_ = 0;
  size_t mask_ = 0;
  uint32_t stamp_ = 0;
  std::vector<Slot> slots_;
  std::vector<Posting> postings_;
};

}  // namespace

double KoreRelatedness::Relatedness(const core::Candidate& a,
                                    const core::Candidate& b) const {
  CountComparison();
  return RelatednessOfModels(*a.model, *b.model);
}

double KoreRelatedness::RelatednessOfModels(const core::CandidateModel& a,
                                            const core::CandidateModel& b) {
  double denom = a.total_phrase_weight + b.total_phrase_weight;
  if (denom <= 0.0) return 0.0;

  // Visit only phrase pairs sharing at least one word: index the smaller
  // side, probe with the larger side's words. On a tie the model with the
  // lower entity id is indexed, so the summation order — and with it
  // every bit of the result — does not depend on argument order.
  const bool a_is_small =
      a.phrases.size() != b.phrases.size()
          ? a.phrases.size() < b.phrases.size()
          : a.entity <= b.entity;
  const core::CandidateModel& small = a_is_small ? a : b;
  const core::CandidateModel& large = a_is_small ? b : a;
  thread_local PostingIndex index;
  index.Build(small);

  // A phrase pair (lp, sp) is scored the first time a shared word reaches
  // it. lp is the outer loop, so "visited" only has to remember the small
  // phrases seen for the current lp: visited[sp] == lp + 1.
  thread_local std::vector<uint32_t> visited;
  visited.assign(small.phrases.size(), 0);

  double numerator = 0.0;
  for (uint32_t lp = 0; lp < large.phrases.size(); ++lp) {
    const core::CandidatePhrase& phrase = large.phrases[lp];
    for (kb::WordId w : phrase.words) {
      for (uint32_t k = index.Head(w); k != PostingIndex::kEnd;
           k = index.Next(k)) {
        const uint32_t sp = index.Phrase(k);
        if (visited[sp] == lp + 1) continue;
        visited[sp] = lp + 1;
        double po = PhraseOverlap(phrase, small.phrases[sp]);
        if (po <= 0.0) continue;
        numerator += po * po *
                     std::min(phrase.phrase_weight,
                              small.phrases[sp].phrase_weight);
      }
    }
  }
  return numerator / denom;
}

}  // namespace aida::kore
