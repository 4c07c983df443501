#include "core/context_similarity.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "text/stopwords.h"
#include "util/string_util.h"

namespace aida::core {

DocumentContext::DocumentContext(const std::vector<std::string>& tokens,
                                 const ExtendedVocabulary& vocab)
    : token_count_(tokens.size()) {
  const text::StopwordList& stopwords = text::DefaultStopwords();
  // (position, word) occurrences in document order.
  std::vector<std::pair<size_t, kb::WordId>> occurrences;
  occurrences.reserve(tokens.size());
  kb::WordId max_word = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.size() <= 1 || stopwords.Contains(token)) continue;
    kb::WordId w = vocab.Find(util::ToLower(token));
    if (w == kb::kNoWord) continue;
    occurrences.emplace_back(i, w);
    max_word = std::max(max_word, w);
  }
  if (occurrences.empty()) return;

  // Presence bitmap up to the largest word present, the rank of each
  // block, and the distinct words in ascending id order.
  present_.assign(max_word / 64 + 1, 0);
  for (const auto& [pos, word] : occurrences) {
    present_[word / 64] |= uint64_t{1} << (word % 64);
  }
  rank_.resize(present_.size());
  words_.reserve(occurrences.size());
  for (size_t block = 0; block < present_.size(); ++block) {
    rank_[block] = static_cast<uint32_t>(words_.size());
    for (uint64_t bits = present_[block]; bits != 0; bits &= bits - 1) {
      words_.push_back(
          static_cast<kb::WordId>(block * 64 + std::countr_zero(bits)));
    }
  }

  // CSR by counting sort. offsets_[r] first counts row r's occurrences,
  // then becomes the end of its slice; filling each slice back to front
  // in reverse document order leaves its start in offsets_[r] and its
  // positions ascending.
  offsets_.assign(words_.size() + 1, 0);
  for (const auto& [pos, word] : occurrences) ++offsets_[Row(word)];
  for (size_t r = 1; r < offsets_.size(); ++r) offsets_[r] += offsets_[r - 1];
  positions_.resize(occurrences.size());
  for (auto it = occurrences.rbegin(); it != occurrences.rend(); ++it) {
    positions_[--offsets_[Row(it->second)]] = it->first;
  }
}

std::vector<std::pair<kb::WordId, size_t>> DocumentContext::WordCounts()
    const {
  std::vector<std::pair<kb::WordId, size_t>> counts;
  counts.reserve(words_.size());
  for (size_t r = 0; r < words_.size(); ++r) {
    counts.emplace_back(words_[r], offsets_[r + 1] - offsets_[r]);
  }
  return counts;
}

ContextSimilarity::ContextSimilarity(WordWeight weight_mode)
    : weight_mode_(weight_mode) {}

double ContextSimilarity::Score(const DocumentContext& context,
                                size_t mention_begin, size_t mention_end,
                                const CandidateModel& model) const {
  // Per-thread scratch, reused across calls: a warm call never allocates.
  thread_local std::vector<std::pair<size_t, uint32_t>>
      occurrences;  // (pos, word slot)
  thread_local std::vector<uint32_t> window_counts;

  double total = 0.0;
  for (const CandidatePhrase& phrase : model.phrases) {
    // A phrase none of whose words occurs anywhere in the document would
    // find no occurrence below and add nothing; most phrases are such.
    // This also skips empty phrases.
    if (std::none_of(phrase.words.begin(), phrase.words.end(),
                     [&](kb::WordId w) { return context.Contains(w); })) {
      continue;
    }
    const size_t len = phrase.words.size();
    const std::vector<double>& weights = weight_mode_ == WordWeight::kNpmi
                                             ? phrase.word_npmi
                                             : phrase.word_idf;

    // Total phrase weight mass.
    double phrase_word_mass = 0.0;
    for (size_t i = 0; i < len; ++i) phrase_word_mass += weights[i];
    if (phrase_word_mass <= 0.0) continue;

    // Occurrences of the phrase's words in the document, outside the
    // mention span. Duplicate words in a phrase share one slot.
    occurrences.clear();
    uint32_t present_slots = 0;
    double matched_mass = 0.0;
    for (size_t i = 0; i < len; ++i) {
      // Skip duplicate words (count each distinct word once).
      bool duplicate = false;
      for (size_t j = 0; j < i; ++j) {
        if (phrase.words[j] == phrase.words[i]) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      bool found = false;
      for (size_t pos : context.Positions(phrase.words[i])) {
        if (pos >= mention_begin && pos < mention_end) continue;
        occurrences.emplace_back(pos, present_slots);
        found = true;
      }
      if (found) {
        ++present_slots;
        matched_mass += weights[i];
      }
    }
    if (present_slots == 0) continue;

    // Shortest window containing all `present_slots` distinct words
    // (the maximal number of phrase words co-locatable in the text).
    std::sort(occurrences.begin(), occurrences.end());
    window_counts.assign(present_slots, 0);
    uint32_t distinct_in_window = 0;
    size_t best_window = std::numeric_limits<size_t>::max();
    size_t left = 0;
    for (size_t right = 0; right < occurrences.size(); ++right) {
      if (window_counts[occurrences[right].second]++ == 0) {
        ++distinct_in_window;
      }
      while (distinct_in_window == present_slots) {
        size_t window =
            occurrences[right].first - occurrences[left].first + 1;
        best_window = std::min(best_window, window);
        if (--window_counts[occurrences[left].second] == 0) {
          --distinct_in_window;
        }
        ++left;
      }
    }
    if (best_window == std::numeric_limits<size_t>::max()) continue;

    double z = static_cast<double>(present_slots) /
               static_cast<double>(best_window);
    double fraction = matched_mass / phrase_word_mass;
    total += z * fraction * fraction;
  }
  return total;
}

}  // namespace aida::core
