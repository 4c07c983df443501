#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/mention_entity_graph.h"
#include "kore/keyterm_cosine.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
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

  // The CoNLL-like test documents, and heavy-shaped ones whose names
  // repeat across mentions.
  std::vector<const corpus::Document*> RescoringDocuments() {
    if (heavy_docs_.empty()) {
      synth::CorpusConfig heavy = synth::ConllPreset().corpus;
      heavy.seed = 994;
      heavy.num_documents = 6;
      heavy.doc_tokens = 500;
      heavy.entities_per_doc = 35;
      heavy.mention_repeat = 1.5;
      heavy_docs_ = synth::CorpusGenerator(&world_, heavy).Generate();
    }
    std::vector<const corpus::Document*> docs;
    for (const corpus::Document& doc : TestWorld::Get().corpus) {
      docs.push_back(&doc);
    }
    for (const corpus::Document& doc : heavy_docs_) docs.push_back(&doc);
    return docs;
  }

  // `doc` with dictionary lookups, or with every third mention's list
  // resolved by the caller and carrying a placeholder (its first
  // candidate's keyphrase model at half weight). Every other such
  // placeholder leads its list, so a mention the coherence test fixes
  // keeps a candidate other than its first. The in-KB candidates of a
  // resolved list carry `kb_weight_scale`.
  core::DisambiguationProblem MakeProblem(const corpus::Document& doc,
                                          bool placeholders,
                                          double kb_weight_scale = 1.0) const {
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
        for (core::Candidate& cand : pm.candidates) {
          cand.weight_scale = kb_weight_scale;
        }
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
  }

  const synth::World& world_;
  core::CandidateModelStore models_;
  corpus::Corpus heavy_docs_;
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

  // Each document twice: with dictionary lookups, and with caller-resolved
  // lists that carry placeholders.
  const std::vector<const corpus::Document*> docs = RescoringDocuments();

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
            MakeProblem(*docs[d], placeholders);
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

// Every relatedness measure in src/ gives the same bits in both argument
// orders for in-KB pairs: the snapshot cache and Aida's per-document table
// keep one value per unordered pair and serve it for both. Pairs of equal
// size (phrase count for KORE, keyword or phrase vector size for the
// cosines) are where argument order could pick the iterated side.
TEST(RelatednessSymmetryTest, EveryMeasureIsBitSymmetricOnInKbPairs) {
  const synth::World world =
      synth::WorldGenerator(synth::ConllPreset().world).Generate();
  const kb::KnowledgeBase& kb = *world.knowledge_base;
  core::CandidateModelStore models(&kb);
  const core::MilneWittenRelatedness mw(&kb);
  const KoreRelatedness kore;
  const KoreLshRelatedness lsh_g = KoreLshRelatedness::Good(&kb.keyphrases());
  const KoreLshRelatedness lsh_f = KoreLshRelatedness::Fast(&kb.keyphrases());
  const KeytermCosineRelatedness kwcs(KeytermCosineRelatedness::Mode::kKeyword);
  const KeytermCosineRelatedness kpcs(
      KeytermCosineRelatedness::Mode::kKeyphrase);

  constexpr kb::EntityId kEntities = 450;  // 100,925 pairs
  ASSERT_GE(kb.entity_count(), kEntities);
  std::vector<core::Candidate> cands(kEntities);
  // Per entity: its phrase count, distinct keywords and distinct phrases
  // (as word multisets), the sizes each measure compares.
  std::vector<size_t> phrases(kEntities);
  std::vector<size_t> keywords(kEntities);
  std::vector<size_t> phrase_keys(kEntities);
  for (kb::EntityId e = 0; e < kEntities; ++e) {
    cands[e].entity = e;
    cands[e].model = models.ModelFor(e);
    std::set<kb::WordId> words;
    std::set<std::multiset<kb::WordId>> keys;
    for (const core::CandidatePhrase& phrase : cands[e].model->phrases) {
      words.insert(phrase.words.begin(), phrase.words.end());
      keys.emplace(phrase.words.begin(), phrase.words.end());
    }
    phrases[e] = cands[e].model->phrases.size();
    keywords[e] = words.size();
    phrase_keys[e] = keys.size();
  }

  const struct {
    const core::RelatednessMeasure* measure;
    const std::vector<size_t>* sizes;
  } cases[] = {{&mw, nullptr},       {&kore, &phrases},
               {&lsh_g, &phrases},   {&lsh_f, &phrases},
               {&kwcs, &keywords},   {&kpcs, &phrase_keys}};
  for (const auto& [measure, sizes] : cases) {
    SCOPED_TRACE(measure->name());
    size_t pairs = 0;
    size_t ties = 0;
    for (kb::EntityId e = 0; e < kEntities; ++e) {
      for (kb::EntityId f = e + 1; f < kEntities; ++f) {
        EXPECT_EQ(Bits(measure->Relatedness(cands[e], cands[f])),
                  Bits(measure->Relatedness(cands[f], cands[e])))
            << "entities " << e << " and " << f;
        ++pairs;
        ties += sizes != nullptr && (*sizes)[e] == (*sizes)[f];
      }
    }
    EXPECT_GE(pairs, 100000u);
    if (sizes != nullptr) {
      EXPECT_GE(ties, 20u);
    }
  }
}

// Exact KORE, except that a pair with a placeholder scores by operand
// order: halved when the in-KB candidate comes first. In-KB pairs stay
// symmetric, as the interface requires; placeholder pairs are as
// unordered as KORE is for two placeholders. A re-scoring that reused a
// placeholder pair's value from the graph build would read the other
// orientation.
class PlaceholderOrderSensitive final : public core::RelatednessMeasure {
 public:
  std::string name() const override { return "placeholder-order"; }
  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    const double value = kore_.Relatedness(a, b);
    return !a.is_placeholder && b.is_placeholder ? 0.5 * value : value;
  }

 private:
  KoreRelatedness kore_;
};

// Aida's candidate scores as the re-scoring computed them before it kept
// the document's relatedness values: one call of the measure per kept
// (candidate, chosen entity) pair, with the candidate first and the other
// mentions in order. The local weights come from `local`, a run without
// coherence; the chosen candidates from `full`.
std::vector<std::vector<double>> RescoreOracle(
    const core::CandidateModelStore& models,
    const core::RelatednessMeasure& measure,
    const core::DisambiguationProblem& problem,
    const core::DisambiguationResult& local,
    const core::DisambiguationResult& full) {
  const core::AidaOptions options;
  const size_t n = problem.mentions.size();
  std::vector<std::vector<core::Candidate>> lists(n);
  std::vector<const std::vector<core::Candidate>*> list_ptrs(n);
  for (size_t m = 0; m < n; ++m) {
    const core::ProblemMention& pm = problem.mentions[m];
    lists[m] = pm.candidates_resolved
                   ? pm.candidates
                   : core::LookupCandidates(models, pm.surface);
    list_ptrs[m] = &lists[m];
  }
  core::DocumentEntityTable table;
  table.Build(list_ptrs, measure);

  // The chosen candidate of each mention, or -1.
  std::vector<int> chosen(n, -1);
  for (size_t m = 0; m < n; ++m) {
    const core::MentionResult& r = full.mentions[m];
    if (!r.chose_placeholder && r.entity == kb::kNoEntity) continue;
    for (size_t c = 0; c < lists[m].size(); ++c) {
      const core::Candidate& cand = lists[m][c];
      if (r.chose_placeholder ? cand.is_placeholder
                              : !cand.is_placeholder &&
                                    cand.entity == r.entity) {
        chosen[m] = static_cast<int>(c);
        break;
      }
    }
  }

  std::vector<std::vector<double>> scores(n);
  for (size_t m = 0; m < n; ++m) {
    const std::span<const uint32_t> slots = table.Slots(m);
    for (size_t c = 0; c < lists[m].size(); ++c) {
      const core::Candidate& cand = lists[m][c];
      double coherence = 0.0;
      for (size_t other = 0; other < n; ++other) {
        if (other == m || chosen[other] < 0) continue;
        const size_t o = static_cast<size_t>(chosen[other]);
        if (!table.Kept(slots[c], table.Slots(other)[o])) continue;
        const core::Candidate& pick = lists[other][o];
        coherence += cand.weight_scale * pick.weight_scale *
                     measure.Relatedness(cand, pick);
      }
      scores[m].push_back(
          options.me_scale * local.mentions[m].candidate_scores[c] +
          options.ee_scale * coherence /
              std::max<double>(1.0, static_cast<double>(n)));
    }
  }
  return scores;
}

// The re-scoring reads relatedness values the graph build already had
// from the measure. Every score must keep the bits of asking the measure
// once per kept pair, under every measure in src/ and under one whose
// placeholder pairs depend on operand order. The inputs carry
// placeholders, lists a fixed mention keeps a non-first candidate of,
// in-KB weight scales other than 1, and entities several mentions share.
TEST_F(KoreTest, RescoringMatchesPerPairMeasureOracle) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  const core::MilneWittenRelatedness mw(world_.knowledge_base.get());
  const KoreRelatedness kore;
  const KoreLshRelatedness lsh_g = KoreLshRelatedness::Good(&store);
  const KoreLshRelatedness lsh_f = KoreLshRelatedness::Fast(&store);
  const KeytermCosineRelatedness kwcs(KeytermCosineRelatedness::Mode::kKeyword);
  const KeytermCosineRelatedness kpcs(
      KeytermCosineRelatedness::Mode::kKeyphrase);
  const PlaceholderOrderSensitive ordered;

  core::AidaOptions local_options;
  local_options.use_coherence = false;
  const std::vector<const corpus::Document*> docs = RescoringDocuments();
  const size_t test_docs = TestWorld::Get().corpus.size();
  size_t compared = 0;
  for (const core::RelatednessMeasure* measure :
       std::initializer_list<const core::RelatednessMeasure*>{
           &mw, &kore, &lsh_g, &lsh_f, &kwcs, &kpcs, &ordered}) {
    const core::Aida full_aida(&models_, measure, core::AidaOptions());
    const core::Aida local_aida(&models_, measure, local_options);
    // The cosines build hash maps per call: the heavy documents would take
    // seconds under them.
    const bool cosine = measure == &kwcs || measure == &kpcs;
    const size_t num_docs = cosine ? test_docs : docs.size();
    for (size_t d = 0; d < num_docs; ++d) {
      for (const bool placeholders : {false, true}) {
        SCOPED_TRACE(measure->name() + " document " + std::to_string(d) +
                     (placeholders ? " with placeholders" : ""));
        const core::DisambiguationProblem problem =
            MakeProblem(*docs[d], placeholders, /*kb_weight_scale=*/0.75);
        const core::DisambiguationResult full =
            full_aida.Disambiguate(problem, {});
        const core::DisambiguationResult local =
            local_aida.Disambiguate(problem, {});
        const std::vector<std::vector<double>> want =
            RescoreOracle(models_, *measure, problem, local, full);
        ASSERT_EQ(full.mentions.size(), want.size());
        for (size_t m = 0; m < want.size(); ++m) {
          const core::MentionResult& got = full.mentions[m];
          ASSERT_EQ(got.candidate_scores.size(), want[m].size());
          int chosen = -1;
          for (size_t c = 0; c < want[m].size(); ++c) {
            EXPECT_EQ(Bits(got.candidate_scores[c]), Bits(want[m][c]))
                << "mention " << m << " candidate " << c;
            const bool picked =
                got.chose_placeholder
                    ? got.candidate_is_placeholder[c]
                    : !got.candidate_is_placeholder[c] &&
                          got.candidate_entities[c] == got.entity;
            if (picked && chosen < 0) chosen = static_cast<int>(c);
            ++compared;
          }
          if (got.chose_placeholder || got.entity != kb::kNoEntity) {
            ASSERT_GE(chosen, 0) << "mention " << m;
            EXPECT_EQ(Bits(got.score), Bits(want[m][chosen]))
                << "mention " << m;
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 20000u);
}

// Forwards to `inner` and counts its calls per unordered in-KB entity
// pair.
class PairCounter final : public core::RelatednessMeasure {
 public:
  explicit PairCounter(const core::RelatednessMeasure* inner)
      : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    if (!a.is_placeholder && !b.is_placeholder) {
      ++calls_[std::minmax(a.entity, b.entity)];
    }
    return inner_->Relatedness(a, b);
  }
  bool has_pair_filter() const override { return inner_->has_pair_filter(); }
  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const core::Candidate*>& candidates) const override {
    return inner_->FilterPairs(candidates);
  }

  // The most calls any pair got since the last call, then forgets them.
  size_t TakeMostCalls(size_t* pairs) const {
    size_t most = 0;
    for (const auto& [pair, calls] : calls_) most = std::max(most, calls);
    *pairs = calls_.size();
    calls_.clear();
    return most;
  }

 private:
  const core::RelatednessMeasure* inner_;
  mutable std::map<std::pair<kb::EntityId, kb::EntityId>, size_t> calls_;
};

// One Disambiguate call asks the measure at most once about each unordered
// pair of in-KB entities, with and without a pair filter.
TEST_F(KoreTest, DisambiguateAsksEachInKbPairAtMostOnce) {
  const core::MilneWittenRelatedness mw(world_.knowledge_base.get());
  const KoreLshRelatedness lsh_g =
      KoreLshRelatedness::Good(&world_.knowledge_base->keyphrases());
  size_t pairs_seen = 0;
  for (const core::RelatednessMeasure* inner :
       std::initializer_list<const core::RelatednessMeasure*>{&mw, &lsh_g}) {
    const PairCounter counter(inner);
    const core::Aida aida(&models_, &counter, core::AidaOptions());
    for (const corpus::Document* doc : RescoringDocuments()) {
      for (const bool placeholders : {false, true}) {
        aida.Disambiguate(MakeProblem(*doc, placeholders), {});
        size_t pairs = 0;
        EXPECT_LE(counter.TakeMostCalls(&pairs), 1u) << inner->name();
        pairs_seen += pairs;
      }
    }
  }
  EXPECT_GE(pairs_seen, 10000u);
}

// The table's values take 16 bytes per in-KB pair the graph build
// evaluates, plus a double per slot and chosen column. Without a pair
// filter that is about 8 bytes x slots², so Release frees the values of a
// large document and keeps those of a small one for the next.
TEST_F(KoreTest, EntityTableValueStorageIsBoundedBetweenDocuments) {
  const core::MilneWittenRelatedness mw(world_.knowledge_base.get());
  core::DocumentEntityTable table;
  // One document of `mentions` mentions with `width` distinct in-KB
  // candidates each, every mention choosing its first.
  auto serve = [&](size_t mentions, size_t width) {
    SCOPED_TRACE(std::to_string(mentions) + " x " + std::to_string(width));
    std::vector<std::vector<core::Candidate>> lists(mentions);
    std::vector<const std::vector<core::Candidate>*> list_ptrs;
    core::GraphBuildInput input;
    input.mentions.resize(mentions);
    for (size_t m = 0; m < mentions; ++m) {
      for (size_t c = 0; c < width; ++c) {
        lists[m].push_back(
            MakeCandidate(static_cast<kb::EntityId>(m * width + c)));
      }
      list_ptrs.push_back(&lists[m]);
      input.mentions[m].candidates = &lists[m];
      input.mentions[m].me_weights.assign(width, 0.5);
    }
    const size_t before = table.value_bytes();
    table.Build(list_ptrs, mw);
    const core::MentionEntityGraph meg =
        core::BuildMentionEntityGraph(input, table, mw);
    const size_t pairs = meg.relatedness_computations;
    EXPECT_EQ(pairs, mentions * width * (mentions - 1) * width / 2);
    std::vector<uint32_t> chosen;
    for (size_t m = 0; m < mentions; ++m) chosen.push_back(table.Slots(m)[0]);
    table.Project(chosen);
    EXPECT_GE(table.value_bytes(), 16 * pairs);
    EXPECT_LE(table.value_bytes(),
              before + 32 * pairs + 8 * table.size() * mentions);
    table.Release();
    return pairs;
  };

  EXPECT_LT(16 * serve(10, 4), core::DocumentEntityTable::kRetainedValueBytes);
  const size_t small = table.value_bytes();
  EXPECT_GT(small, 0u);
  EXPECT_LE(small, core::DocumentEntityTable::kRetainedValueBytes);

  EXPECT_GT(16 * serve(60, 5), core::DocumentEntityTable::kRetainedValueBytes);
  EXPECT_EQ(table.value_bytes(), 0u);

  serve(10, 4);
  EXPECT_EQ(table.value_bytes(), small);
}

}  // namespace
}  // namespace aida::kore
