#include "core/candidates.h"

#include "util/status.h"

namespace aida::core {

CandidateModelStore::CandidateModelStore(const kb::KnowledgeBase* kb)
    : kb_(kb) {
  AIDA_CHECK(kb_ != nullptr);
}

std::shared_ptr<const CandidateModel> CandidateModelStore::ModelFor(
    kb::EntityId entity) const {
  util::MutexLock lock(&mutex_);
  auto it = cache_.find(entity);
  if (it != cache_.end()) return it->second;

  const kb::KeyphraseStore& store = kb_->keyphrases();
  auto model = std::make_shared<CandidateModel>();
  model->entity = entity;
  const std::span<const kb::PhraseId> phrases = store.EntityPhrases(entity);
  model->phrases.reserve(phrases.size());
  for (kb::PhraseId p : phrases) {
    CandidatePhrase phrase;
    const std::span<const kb::WordId> words = store.PhraseWords(p);
    phrase.words.assign(words.begin(), words.end());
    phrase.phrase_weight = store.PhraseMi(entity, p);
    phrase.word_npmi.reserve(phrase.words.size());
    phrase.word_idf.reserve(phrase.words.size());
    for (kb::WordId w : phrase.words) {
      phrase.word_npmi.push_back(store.KeywordNpmi(entity, w));
      phrase.word_idf.push_back(store.WordIdf(w));
    }
    model->total_phrase_weight += phrase.phrase_weight;
    model->phrases.push_back(std::move(phrase));
  }
  cache_.emplace(entity, model);
  return model;
}

std::vector<Candidate> LookupCandidates(const CandidateModelStore& store,
                                        std::string_view mention_surface) {
  std::vector<Candidate> candidates;
  for (const kb::NameCandidate& nc :
       store.knowledge_base().dictionary().Lookup(mention_surface)) {
    Candidate c;
    c.entity = nc.entity;
    c.prior = nc.prior;
    c.model = store.ModelFor(nc.entity);
    candidates.push_back(std::move(c));
  }
  return candidates;
}

ExtendedVocabulary::ExtendedVocabulary(const kb::KeyphraseStore* store)
    : store_(store) {
  AIDA_CHECK(store_ != nullptr && store_->finalized());
}

kb::WordId ExtendedVocabulary::Find(std::string_view word) const {
  kb::WordId w = store_->FindWord(word);
  if (w != kb::kNoWord || extra_ids_.empty()) return w;
  auto it = extra_ids_.find(std::string(word));
  return it == extra_ids_.end() ? kb::kNoWord : it->second;
}

kb::WordId ExtendedVocabulary::GetOrIntern(std::string_view word,
                                           double default_idf) {
  kb::WordId w = store_->FindWord(word);
  if (w != kb::kNoWord) return w;
  auto [it, inserted] = extra_ids_.emplace(
      std::string(word),
      static_cast<kb::WordId>(store_->word_count() + extra_idf_.size()));
  if (inserted) {
    extra_idf_.push_back(default_idf);
    extra_text_.emplace_back(word);
  }
  return it->second;
}

void ExtendedVocabulary::SetIdf(kb::WordId word, double idf) {
  if (word < store_->word_count()) return;
  size_t index = word - store_->word_count();
  AIDA_CHECK(index < extra_idf_.size());
  extra_idf_[index] = idf;
}

double ExtendedVocabulary::Idf(kb::WordId word) const {
  if (word < store_->word_count()) return store_->WordIdf(word);
  size_t index = word - store_->word_count();
  AIDA_CHECK(index < extra_idf_.size());
  return extra_idf_[index];
}

std::string_view ExtendedVocabulary::Text(kb::WordId word) const {
  if (word < store_->word_count()) return store_->WordText(word);
  size_t index = word - store_->word_count();
  AIDA_CHECK(index < extra_text_.size());
  return extra_text_[index];
}

size_t ExtendedVocabulary::size() const {
  return store_->word_count() + extra_idf_.size();
}

}  // namespace aida::core
