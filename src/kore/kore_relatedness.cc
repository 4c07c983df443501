#include "kore/kore_relatedness.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace aida::kore {

namespace {

// Per-entity inverted index from word id to the phrases containing it,
// used to visit only phrase pairs with at least one shared word.
struct PhraseIndex {
  // word -> indices of phrases containing the word.
  std::unordered_map<kb::WordId, std::vector<uint32_t>> by_word;
  // word -> the entity-side IDF weight of the word.
  std::unordered_map<kb::WordId, double> word_weight;
};

PhraseIndex BuildIndex(const core::CandidateModel& model) {
  PhraseIndex index;
  for (uint32_t p = 0; p < model.phrases.size(); ++p) {
    const core::CandidatePhrase& phrase = model.phrases[p];
    for (size_t i = 0; i < phrase.words.size(); ++i) {
      index.by_word[phrase.words[i]].push_back(p);
      index.word_weight[phrase.words[i]] = phrase.word_idf[i];
    }
  }
  return index;
}

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
  PhraseIndex index = BuildIndex(small);

  double numerator = 0.0;
  std::vector<uint32_t> touched;
  std::unordered_map<uint64_t, bool> visited;  // (large_p, small_p) pairs
  for (uint32_t lp = 0; lp < large.phrases.size(); ++lp) {
    const core::CandidatePhrase& phrase = large.phrases[lp];
    for (kb::WordId w : phrase.words) {
      auto it = index.by_word.find(w);
      if (it == index.by_word.end()) continue;
      for (uint32_t sp : it->second) {
        uint64_t key = (static_cast<uint64_t>(lp) << 32) | sp;
        auto [vit, inserted] = visited.emplace(key, true);
        if (!inserted) continue;
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
