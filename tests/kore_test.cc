#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "kore/keyterm_cosine.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "synth/presets.h"
#include "test_world.h"
#include "util/alloc_probe.h"

namespace aida::kore {
namespace {

using ::aida::testing::TestWorld;

// The reference for KoreRelatedness::RelatednessOfModels: the original
// map-based kernel, which rebuilt a word -> phrases hash index and a
// visited-pair hash set on every call. The production kernel must keep
// its orientation rule, visit order and summation order, so the two agree
// bit for bit.
namespace oracle {

bool IsDuplicateWord(const std::vector<kb::WordId>& words, size_t index) {
  for (size_t i = 0; i < index; ++i) {
    if (words[i] == words[index]) return true;
  }
  return false;
}

double PhraseOverlap(const core::CandidatePhrase& p,
                     const core::CandidatePhrase& q) {
  double intersection = 0.0;
  double union_mass = 0.0;
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

double Kore(const core::CandidateModel& a, const core::CandidateModel& b) {
  double denom = a.total_phrase_weight + b.total_phrase_weight;
  if (denom <= 0.0) return 0.0;
  const bool a_is_small =
      a.phrases.size() != b.phrases.size()
          ? a.phrases.size() < b.phrases.size()
          : a.entity <= b.entity;
  const core::CandidateModel& small = a_is_small ? a : b;
  const core::CandidateModel& large = a_is_small ? b : a;
  std::unordered_map<kb::WordId, std::vector<uint32_t>> by_word;
  for (uint32_t p = 0; p < small.phrases.size(); ++p) {
    for (kb::WordId w : small.phrases[p].words) by_word[w].push_back(p);
  }
  double numerator = 0.0;
  std::unordered_map<uint64_t, bool> visited;
  for (uint32_t lp = 0; lp < large.phrases.size(); ++lp) {
    const core::CandidatePhrase& phrase = large.phrases[lp];
    for (kb::WordId w : phrase.words) {
      auto it = by_word.find(w);
      if (it == by_word.end()) continue;
      for (uint32_t sp : it->second) {
        uint64_t key = (static_cast<uint64_t>(lp) << 32) | sp;
        if (!visited.emplace(key, true).second) continue;
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

}  // namespace oracle

// Appends a phrase of `words` with IDF weights `idf` (parallel) to `model`.
void AddPhrase(core::CandidateModel* model, std::vector<kb::WordId> words,
               std::vector<double> idf, double weight) {
  core::CandidatePhrase phrase;
  phrase.words = std::move(words);
  phrase.word_idf = std::move(idf);
  phrase.word_npmi.assign(phrase.words.size(), 0.5);
  phrase.phrase_weight = weight;
  model->total_phrase_weight += weight;
  model->phrases.push_back(std::move(phrase));
}

class KoreTest : public ::testing::Test {
 protected:
  KoreTest()
      : world_(TestWorld::Get().world),
        models_(world_.knowledge_base.get()) {}

  core::Candidate MakeCandidate(kb::EntityId e) const {
    core::Candidate c;
    c.entity = e;
    c.model = models_.ModelFor(e);
    return c;
  }

  // Finds two same-topic entities and one from a different topic.
  void FindTriple(kb::EntityId* a, kb::EntityId* b, kb::EntityId* c) const {
    *a = 0;
    *b = kb::kNoEntity;
    *c = kb::kNoEntity;
    for (kb::EntityId e = 1; e < world_.knowledge_base->entity_count(); ++e) {
      if (*b == kb::kNoEntity &&
          world_.entity_topic[e] == world_.entity_topic[*a]) {
        *b = e;
      }
      if (*c == kb::kNoEntity &&
          world_.entity_topic[e] != world_.entity_topic[*a]) {
        *c = e;
      }
      if (*b != kb::kNoEntity && *c != kb::kNoEntity) return;
    }
  }

  const synth::World& world_;
  core::CandidateModelStore models_;
};

TEST_F(KoreTest, SameTopicMoreRelated) {
  kb::EntityId a, b, c;
  FindTriple(&a, &b, &c);
  KoreRelatedness kore;
  double same = kore.Relatedness(MakeCandidate(a), MakeCandidate(b));
  double cross = kore.Relatedness(MakeCandidate(a), MakeCandidate(c));
  EXPECT_GT(same, cross);
}

TEST_F(KoreTest, SymmetricAndBounded) {
  KoreRelatedness kore;
  auto check = [&](kb::EntityId e, kb::EntityId f) {
    double ab = kore.Relatedness(MakeCandidate(e), MakeCandidate(f));
    double ba = kore.Relatedness(MakeCandidate(f), MakeCandidate(e));
    // Bit-exact: a RelatednessCache stores one value per unordered pair,
    // so any asymmetry would make cached and uncached runs disagree.
    EXPECT_EQ(ab, ba) << "entities " << e << " and " << f;
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  };
  for (kb::EntityId e = 0; e < 20; ++e) {
    for (kb::EntityId f = e + 1; f < 20; ++f) check(e, f);
  }
  // Models with equal phrase counts are where argument order could pick
  // the indexed side, and with it the summation order.
  const kb::EntityId n = world_.knowledge_base->entity_count();
  std::vector<size_t> phrase_count(n);
  for (kb::EntityId e = 0; e < n; ++e) {
    phrase_count[e] = models_.ModelFor(e)->phrases.size();
  }
  size_t equal_count_pairs = 0;
  for (kb::EntityId e = 0; e < n && equal_count_pairs < 2000; ++e) {
    for (kb::EntityId f = e + 1; f < n; ++f) {
      if (phrase_count[e] != phrase_count[f]) continue;
      check(e, f);
      ++equal_count_pairs;
    }
  }
  EXPECT_GE(equal_count_pairs, 500u);
}

TEST_F(KoreTest, KernelMatchesMapOracleBitForBit) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  size_t compared = 0;
  auto check = [&](const core::CandidateModel& a,
                   const core::CandidateModel& b) {
    const double expected = oracle::Kore(a, b);
    EXPECT_EQ(KoreRelatedness::RelatednessOfModels(a, b), expected)
        << "entities " << a.entity << " and " << b.entity;
    EXPECT_EQ(KoreRelatedness::RelatednessOfModels(b, a), oracle::Kore(b, a))
        << "entities " << b.entity << " and " << a.entity;
    compared += 2;
  };

  // Every candidate pair of the CoNLL-like test documents, whose
  // candidates share many words.
  for (const corpus::Document& doc : TestWorld::Get().corpus) {
    std::vector<kb::EntityId> candidates;
    for (const corpus::GoldMention& mention : doc.mentions) {
      for (const core::Candidate& c :
           core::LookupCandidates(models_, mention.surface)) {
        candidates.push_back(c.entity);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (size_t j = i; j < candidates.size(); ++j) {
        check(*models_.ModelFor(candidates[i]),
              *models_.ModelFor(candidates[j]));
      }
    }
  }

  // Equal phrase counts, where the entity-id tie-break picks the side.
  const kb::EntityId n = world_.knowledge_base->entity_count();
  size_t ties = 0;
  for (kb::EntityId e = 0; e < n && ties < 1000; ++e) {
    for (kb::EntityId f = e + 1; f < n; ++f) {
      if (models_.ModelFor(e)->phrases.size() !=
          models_.ModelFor(f)->phrases.size()) {
        continue;
      }
      check(*models_.ModelFor(e), *models_.ModelFor(f));
      ++ties;
    }
  }
  EXPECT_GE(ties, 500u);

  // Placeholders mixing KB words with out-of-KB words of an extended
  // vocabulary (ids >= word_count()), against each other and entities.
  core::ExtendedVocabulary vocab(&store);
  std::vector<core::CandidateModel> placeholders;
  for (kb::EntityId base = 0; base < 8; ++base) {
    core::CandidateModel model;
    for (const core::CandidatePhrase& phrase :
         models_.ModelFor(base)->phrases) {
      std::vector<kb::WordId> words = phrase.words;
      std::vector<double> idf = phrase.word_idf;
      for (size_t i = 1; i < words.size(); i += 2) {
        words[i] = vocab.GetOrIntern("novel" + std::to_string(words[i] % 7));
        ASSERT_GE(words[i], store.word_count());
        idf[i] = vocab.Idf(words[i]);
      }
      AddPhrase(&model, words, idf, phrase.phrase_weight);
    }
    ASSERT_EQ(model.entity, kb::kNoEntity);
    placeholders.push_back(std::move(model));
  }
  for (const core::CandidateModel& p : placeholders) {
    for (const core::CandidateModel& q : placeholders) check(p, q);
    for (kb::EntityId e = 0; e < 40; ++e) check(p, *models_.ModelFor(e));
  }

  // A phrase with a repeated word, and an empty model.
  const core::CandidateModel& real = *models_.ModelFor(0);
  const core::CandidatePhrase& first = real.phrases.front();
  core::CandidateModel repeated;
  AddPhrase(&repeated, {first.words[0], first.words[0], first.words[0]},
            {first.word_idf[0], first.word_idf[0], first.word_idf[0]}, 0.7);
  AddPhrase(&repeated, first.words, first.word_idf, 0.3);
  const core::CandidateModel empty;
  for (const core::CandidateModel* m :
       std::vector<const core::CandidateModel*>{&repeated, &empty}) {
    check(*m, real);
    check(*m, repeated);
    check(*m, empty);
  }
  EXPECT_GT(KoreRelatedness::RelatednessOfModels(repeated, real), 0.0);

  EXPECT_GE(compared, 10000u);
}

TEST_F(KoreTest, NoWordIdScratchBoundedByModel) {
  // A hand-built model may carry kb::kNoWord; the kernel's scratch must
  // follow the model's size, not the id's value.
  const core::CandidateModel& real = *models_.ModelFor(1);
  const core::CandidatePhrase& first = real.phrases.front();
  core::CandidateModel odd;
  AddPhrase(&odd, {kb::kNoWord, first.words[0]}, {2.0, first.word_idf[0]},
            0.5);
  AddPhrase(&odd, {kb::kNoWord}, {1.0}, 0.25);
  for (const core::CandidateModel* other :
       std::vector<const core::CandidateModel*>{&real, &odd}) {
    util::ScopedAllocationCount probe;
    const double ab = KoreRelatedness::RelatednessOfModels(odd, *other);
    const double ba = KoreRelatedness::RelatednessOfModels(*other, odd);
    const uint64_t bytes = probe.bytes_allocated();
    EXPECT_TRUE(std::isfinite(ab));
    EXPECT_EQ(ab, oracle::Kore(odd, *other));
    EXPECT_EQ(ba, oracle::Kore(*other, odd));
    // A table indexed by word id would need 2^32 slots here.
    if (util::AllocProbeAvailable()) {
      EXPECT_LT(bytes, 1u << 20);
    }
  }
  EXPECT_GT(KoreRelatedness::RelatednessOfModels(odd, odd), 0.0);
}

TEST_F(KoreTest, SelfRelatednessIsHigh) {
  KoreRelatedness kore;
  kb::EntityId a, b, c;
  FindTriple(&a, &b, &c);
  double self = kore.Relatedness(MakeCandidate(a), MakeCandidate(a));
  double other = kore.Relatedness(MakeCandidate(a), MakeCandidate(b));
  EXPECT_GT(self, other);
}

TEST_F(KoreTest, WorksForPlaceholders) {
  // A placeholder model sharing phrases with an entity scores > 0 —
  // the capability MW lacks.
  kb::EntityId a = 0;
  core::Candidate real = MakeCandidate(a);
  core::Candidate placeholder;
  placeholder.is_placeholder = true;
  auto model = std::make_shared<core::CandidateModel>(*real.model);
  model->entity = kb::kNoEntity;
  placeholder.model = model;

  KoreRelatedness kore;
  EXPECT_GT(kore.Relatedness(real, placeholder), 0.0);
  core::MilneWittenRelatedness mw(world_.knowledge_base.get());
  EXPECT_EQ(mw.Relatedness(real, placeholder), 0.0);
}

TEST_F(KoreTest, CountsComparisons) {
  KoreRelatedness kore;
  kore.ResetComparisons();
  kore.Relatedness(MakeCandidate(0), MakeCandidate(1));
  kore.Relatedness(MakeCandidate(0), MakeCandidate(2));
  EXPECT_EQ(kore.comparisons(), 2u);
}

TEST_F(KoreTest, KeytermCosineVariants) {
  kb::EntityId a, b, c;
  FindTriple(&a, &b, &c);
  KeytermCosineRelatedness kwcs(KeytermCosineRelatedness::Mode::kKeyword);
  KeytermCosineRelatedness kpcs(KeytermCosineRelatedness::Mode::kKeyphrase);
  for (const KeytermCosineRelatedness* measure : {&kwcs, &kpcs}) {
    double same = measure->Relatedness(MakeCandidate(a), MakeCandidate(b));
    double cross = measure->Relatedness(MakeCandidate(a), MakeCandidate(c));
    EXPECT_GE(same, cross) << measure->name();
    double self = measure->Relatedness(MakeCandidate(a), MakeCandidate(a));
    EXPECT_NEAR(self, 1.0, 1e-9) << measure->name();
  }
}

TEST_F(KoreTest, LshFiltersPairsButKeepsRelated) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  KoreLshRelatedness good = KoreLshRelatedness::Good(&store);
  KoreLshRelatedness fast = KoreLshRelatedness::Fast(&store);
  ASSERT_TRUE(good.has_pair_filter());

  // Candidate pool: 30 entities.
  std::vector<core::Candidate> pool;
  for (kb::EntityId e = 0; e < 30; ++e) pool.push_back(MakeCandidate(e));
  std::vector<const core::Candidate*> ptrs;
  for (const core::Candidate& c : pool) ptrs.push_back(&c);

  auto good_pairs = good.FilterPairs(ptrs);
  auto fast_pairs = fast.FilterPairs(ptrs);
  size_t all_pairs = 30 * 29 / 2;
  EXPECT_LT(fast_pairs.size(), all_pairs);
  EXPECT_LE(fast_pairs.size(), good_pairs.size() + 5);

  // Strongly related pairs (KORE >= 0.05) should mostly survive the good
  // filter.
  KoreRelatedness exact;
  size_t strong = 0;
  size_t kept = 0;
  std::set<std::pair<uint32_t, uint32_t>> good_set(good_pairs.begin(),
                                                   good_pairs.end());
  for (uint32_t i = 0; i < 30; ++i) {
    for (uint32_t j = i + 1; j < 30; ++j) {
      if (exact.Relatedness(pool[i], pool[j]) >= 0.05) {
        ++strong;
        if (good_set.count({i, j})) ++kept;
      }
    }
  }
  if (strong > 0) {
    EXPECT_GE(static_cast<double>(kept) / strong, 0.7);
  }
}

TEST_F(KoreTest, LshAdmitsPlaceholderPairs) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  KoreLshRelatedness good = KoreLshRelatedness::Good(&store);
  core::Candidate placeholder;
  placeholder.is_placeholder = true;
  placeholder.model = std::make_shared<core::CandidateModel>();
  core::Candidate real = MakeCandidate(0);
  std::vector<const core::Candidate*> ptrs = {&real, &placeholder};
  auto pairs = good.FilterPairs(ptrs);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<uint32_t, uint32_t>(0, 1)));
}


// KORE-LSH seen as a measure without a pair filter: exact KORE for the
// pairs the LSH filter keeps and for two candidates of one in-KB entity,
// 0.0 for every other pair. Aida over the LSH measure must score exactly as
// Aida over this one: the re-scoring skips what the filter drops.
class KeptPairsOnly final : public core::RelatednessMeasure {
 public:
  explicit KeptPairsOnly(const KoreLshRelatedness* lsh) : lsh_(lsh) {}
  std::string name() const override { return "kept-pairs-only"; }
  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    const bool same_entity =
        !a.is_placeholder && !b.is_placeholder && a.entity == b.entity;
    if (!same_entity && lsh_->FilterPairs({&a, &b}).empty()) return 0.0;
    return lsh_->Relatedness(a, b);
  }

 private:
  const KoreLshRelatedness* lsh_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST_F(KoreTest, LshRescoringMatchesKeptPairsOracle) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  const KoreLshRelatedness good = KoreLshRelatedness::Good(&store);
  const KoreLshRelatedness fast = KoreLshRelatedness::Fast(&store);

  // The CoNLL-like test documents, and heavy-shaped ones whose names
  // repeat across mentions.
  std::vector<const corpus::Document*> docs;
  for (const corpus::Document& doc : TestWorld::Get().corpus) {
    docs.push_back(&doc);
  }
  synth::CorpusConfig heavy = synth::ConllPreset().corpus;
  heavy.seed = 994;
  heavy.num_documents = 6;
  heavy.doc_tokens = 500;
  heavy.entities_per_doc = 35;
  heavy.mention_repeat = 1.5;
  const corpus::Corpus heavy_docs =
      synth::CorpusGenerator(&world_, heavy).Generate();
  for (const corpus::Document& doc : heavy_docs) docs.push_back(&doc);

  // Each document twice: with dictionary lookups, and with every third
  // mention's list resolved by the caller and carrying a placeholder (its
  // first candidate's keyphrase model at half weight). Every other such
  // placeholder leads its list, so a mention the coherence test fixes
  // keeps a candidate other than its first.
  auto make_problem = [&](const corpus::Document& doc, bool placeholders) {
    core::DisambiguationProblem problem;
    problem.tokens = &doc.tokens;
    for (size_t m = 0; m < doc.mentions.size(); ++m) {
      const corpus::GoldMention& gm = doc.mentions[m];
      core::ProblemMention pm;
      pm.surface = gm.surface;
      pm.begin_token = gm.begin_token;
      pm.end_token = gm.end_token;
      if (placeholders && m % 3 == 0) {
        pm.candidates = core::LookupCandidates(models_, gm.surface);
        auto model = std::make_shared<core::CandidateModel>(
            pm.candidates.empty() ? *models_.ModelFor(0)
                                  : *pm.candidates.front().model);
        model->entity = kb::kNoEntity;
        core::Candidate placeholder;
        placeholder.model = std::move(model);
        placeholder.is_placeholder = true;
        placeholder.weight_scale = 0.5;
        pm.candidates.insert(m % 2 == 0 ? pm.candidates.begin()
                                        : pm.candidates.end(),
                             std::move(placeholder));
        pm.candidates_resolved = true;
      }
      problem.mentions.push_back(std::move(pm));
    }
    return problem;
  };

  size_t placeholder_mentions = 0;
  size_t repeated_entities = 0;
  for (const KoreLshRelatedness* lsh : {&good, &fast}) {
    const KeptPairsOnly oracle(lsh);
    const core::Aida filtered(&models_, lsh, core::AidaOptions());
    const core::Aida unfiltered(&models_, &oracle, core::AidaOptions());
    uint64_t filtered_lookups = 0;
    uint64_t unfiltered_lookups = 0;
    for (size_t d = 0; d < docs.size(); ++d) {
      for (const bool placeholders : {false, true}) {
        SCOPED_TRACE(lsh->name() + " document " + std::to_string(d) +
                     (placeholders ? " with placeholders" : ""));
        const core::DisambiguationProblem problem =
            make_problem(*docs[d], placeholders);
        const core::DisambiguationResult got =
            filtered.Disambiguate(problem, {});
        const core::DisambiguationResult want =
            unfiltered.Disambiguate(problem, {});
        ASSERT_EQ(got.mentions.size(), want.mentions.size());
        for (size_t m = 0; m < got.mentions.size(); ++m) {
          const core::MentionResult& g = got.mentions[m];
          const core::MentionResult& w = want.mentions[m];
          EXPECT_EQ(g.entity, w.entity) << "mention " << m;
          EXPECT_EQ(g.chose_placeholder, w.chose_placeholder);
          EXPECT_EQ(Bits(g.score), Bits(w.score)) << "mention " << m;
          ASSERT_EQ(g.candidate_scores.size(), w.candidate_scores.size());
          for (size_t c = 0; c < g.candidate_scores.size(); ++c) {
            EXPECT_EQ(Bits(g.candidate_scores[c]),
                      Bits(w.candidate_scores[c]))
                << "mention " << m << " candidate " << c;
          }
          if (lsh == &good && placeholders) {
            placeholder_mentions += std::count(
                g.candidate_is_placeholder.begin(),
                g.candidate_is_placeholder.end(), true);
          }
        }
        EXPECT_EQ(got.stats.graph_iterations, want.stats.graph_iterations);
        filtered_lookups += got.stats.relatedness_computations;
        unfiltered_lookups += want.stats.relatedness_computations;

        // Candidates whose entity another mention chose: the pairs the
        // same-entity rule keeps.
        if (lsh != &good || placeholders) continue;
        for (size_t m = 0; m < got.mentions.size(); ++m) {
          for (const kb::EntityId e : got.mentions[m].candidate_entities) {
            for (size_t other = 0; other < got.mentions.size(); ++other) {
              repeated_entities += other != m && e != kb::kNoEntity &&
                                   got.mentions[other].entity == e;
            }
          }
        }
      }
    }
    // The filter drops a good share of the pairs.
    EXPECT_LT(4 * filtered_lookups, 3 * unfiltered_lookups) << lsh->name();
  }
  EXPECT_GE(placeholder_mentions, 100u);
  EXPECT_GE(repeated_entities, 100u);
}

}  // namespace
}  // namespace aida::kore
