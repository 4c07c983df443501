#include "kore/keyterm_cosine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "hashing/minhash.h"

namespace aida::kore {

namespace {

// Sparse keyword vector: word id -> weight.
std::unordered_map<kb::WordId, double> KeywordVector(
    const core::CandidateModel& model) {
  // Accumulate per-word IDF and mean MI weight of containing phrases.
  std::unordered_map<kb::WordId, double> mi_sum;
  std::unordered_map<kb::WordId, double> mi_count;
  std::unordered_map<kb::WordId, double> idf;
  for (const core::CandidatePhrase& phrase : model.phrases) {
    for (size_t i = 0; i < phrase.words.size(); ++i) {
      kb::WordId w = phrase.words[i];
      mi_sum[w] += phrase.phrase_weight;
      mi_count[w] += 1.0;
      idf[w] = phrase.word_idf[i];
    }
  }
  std::unordered_map<kb::WordId, double> vec;
  for (const auto& [w, sum] : mi_sum) {
    vec[w] = idf[w] * (sum / mi_count[w]);
  }
  return vec;
}

// Sparse phrase vector: order-insensitive phrase hash -> MI weight.
std::unordered_map<uint64_t, double> PhraseVector(
    const core::CandidateModel& model) {
  std::unordered_map<uint64_t, double> vec;
  for (const core::CandidatePhrase& phrase : model.phrases) {
    uint64_t key = 0x9E3779B97F4A7C15ULL;
    // Sum of per-word hashes: identical word multisets collide, which is
    // exactly the identity notion we want for exact phrase matching.
    for (kb::WordId w : phrase.words) {
      key += hashing::MixHash(w, 0x5BD1E995u);
    }
    vec[key] += phrase.phrase_weight;
  }
  return vec;
}

// Iterates the smaller vector; on a tie, `a`'s when `a_is_lower` (its
// entity id is not above `b`'s), as KORE does. The summation order of the
// dot product, and with it every bit of the result, then does not depend
// on argument order.
template <typename Key>
double Cosine(const std::unordered_map<Key, double>& a,
              const std::unordered_map<Key, double>& b, bool a_is_lower) {
  const bool a_is_small =
      a.size() != b.size() ? a.size() < b.size() : a_is_lower;
  const auto& small = a_is_small ? a : b;
  const auto& large = a_is_small ? b : a;
  double dot = 0.0;
  for (const auto& [key, weight] : small) {
    auto it = large.find(key);
    if (it != large.end()) dot += weight * it->second;
  }
  if (dot <= 0.0) return 0.0;
  double norm_a = 0.0;
  for (const auto& [key, weight] : a) norm_a += weight * weight;
  double norm_b = 0.0;
  for (const auto& [key, weight] : b) norm_b += weight * weight;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

}  // namespace

KeytermCosineRelatedness::KeytermCosineRelatedness(Mode mode) : mode_(mode) {}

double KeytermCosineRelatedness::Relatedness(const core::Candidate& a,
                                             const core::Candidate& b) const {
  CountComparison();
  return RelatednessOfModels(*a.model, *b.model);
}

double KeytermCosineRelatedness::RelatednessOfModels(
    const core::CandidateModel& a, const core::CandidateModel& b) const {
  const bool a_is_lower = a.entity <= b.entity;
  if (mode_ == Mode::kKeyword) {
    return Cosine(KeywordVector(a), KeywordVector(b), a_is_lower);
  }
  return Cosine(PhraseVector(a), PhraseVector(b), a_is_lower);
}

}  // namespace aida::kore
