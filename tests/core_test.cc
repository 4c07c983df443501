#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/aida.h"
#include "core/baselines.h"
#include "core/candidates.h"
#include "core/context_similarity.h"
#include "core/mention_entity_graph.h"
#include "core/relatedness.h"
#include "core/robustness.h"
#include "synth/presets.h"
#include "test_world.h"
#include "text/stopwords.h"
#include "util/string_util.h"

namespace aida::core {
namespace {

using ::aida::testing::TestWorld;

// Builds a DisambiguationProblem from a gold document (mention spans from
// the annotation, candidates resolved by the system under test).
DisambiguationProblem ToProblem(const corpus::Document& doc) {
  DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const corpus::GoldMention& gm : doc.mentions) {
    ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  return problem;
}

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : world_(TestWorld::Get().world),
        corpus_(TestWorld::Get().corpus),
        models_(world_.knowledge_base.get()),
        mw_(world_.knowledge_base.get()) {}

  const synth::World& world_;
  const corpus::Corpus& corpus_;
  CandidateModelStore models_;
  MilneWittenRelatedness mw_;
};

// ---- Candidates -----------------------------------------------------------

TEST_F(CoreTest, LookupCandidatesOrderedByPrior) {
  // Find an ambiguous family name.
  for (const std::string& name :
       world_.knowledge_base->dictionary().AllNames()) {
    std::vector<Candidate> candidates = LookupCandidates(models_, name);
    if (candidates.size() < 2) continue;
    EXPECT_GE(candidates[0].prior, candidates[1].prior);
    for (const Candidate& c : candidates) {
      ASSERT_NE(c.model, nullptr);
      EXPECT_EQ(c.model->entity, c.entity);
      EXPECT_FALSE(c.is_placeholder);
    }
    return;
  }
  FAIL() << "no ambiguous name in test world";
}

TEST_F(CoreTest, ModelStoreCaches) {
  auto a = models_.ModelFor(0);
  auto b = models_.ModelFor(0);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_FALSE(a->phrases.empty());
  EXPECT_GT(a->total_phrase_weight, 0.0);
}

TEST_F(CoreTest, ExtendedVocabularyInternsNewWords) {
  ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());
  size_t base = vocab.size();
  EXPECT_EQ(vocab.Find("zzz-neverseen"), kb::kNoWord);
  kb::WordId w = vocab.GetOrIntern("zzz-neverseen", 7.5);
  EXPECT_GE(w, base);
  EXPECT_EQ(vocab.GetOrIntern("zzz-neverseen"), w);
  EXPECT_EQ(vocab.Find("zzz-neverseen"), w);
  EXPECT_DOUBLE_EQ(vocab.Idf(w), 7.5);
  vocab.SetIdf(w, 3.0);
  EXPECT_DOUBLE_EQ(vocab.Idf(w), 3.0);
  EXPECT_EQ(vocab.size(), base + 1);
  // A key longer than a small-string buffer takes the same path.
  const std::string long_word = "zzz-an-extension-word-past-the-sso-buffer";
  EXPECT_EQ(vocab.Find(long_word), kb::kNoWord);
  const kb::WordId long_id = vocab.GetOrIntern(long_word);
  EXPECT_EQ(vocab.Find(long_word), long_id);
  EXPECT_EQ(vocab.Find("zzz-neverseen"), w);
  EXPECT_EQ(vocab.Find("zzz-still-unknown"), kb::kNoWord);
}

// ---- Context similarity ------------------------------------------------------

TEST_F(CoreTest, ContextSimilarityPrefersTrueEntity) {
  // Over the corpus, the gold entity's similarity should usually beat the
  // alternatives for ambiguous mentions with context.
  ContextSimilarity similarity;
  ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());
  size_t wins = 0;
  size_t contested = 0;
  for (const corpus::Document& doc : corpus_) {
    DocumentContext context(doc.tokens, vocab);
    for (const corpus::GoldMention& gm : doc.mentions) {
      if (gm.out_of_kb()) continue;
      std::vector<Candidate> candidates =
          LookupCandidates(models_, gm.surface);
      if (candidates.size() < 2) continue;
      ++contested;
      double gold_score = -1;
      double best_other = -1;
      for (const Candidate& c : candidates) {
        double s = similarity.Score(context, gm.begin_token, gm.end_token,
                                    *c.model);
        if (c.entity == gm.gold_entity) {
          gold_score = s;
        } else {
          best_other = std::max(best_other, s);
        }
      }
      if (gold_score > best_other) ++wins;
    }
  }
  ASSERT_GT(contested, 20u);
  EXPECT_GT(static_cast<double>(wins) / static_cast<double>(contested), 0.6);
}

TEST_F(CoreTest, ContextSimilarityZeroWithoutContext) {
  ContextSimilarity similarity;
  ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());
  std::vector<std::string> tokens = {"Foo"};
  DocumentContext context(tokens, vocab);
  auto model = models_.ModelFor(0);
  EXPECT_EQ(similarity.Score(context, 0, 1, *model), 0.0);
}

TEST_F(CoreTest, PartialMatchScoresBelowFullMatch) {
  // Construct a fake model with one 3-word phrase; a document containing
  // all 3 words beats one containing 2 of them.
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  ExtendedVocabulary vocab(&store);
  CandidateModel model;
  CandidatePhrase phrase;
  for (const char* w : {"grammy", "award", "winner"}) {
    phrase.words.push_back(vocab.GetOrIntern(w, 5.0));
    phrase.word_npmi.push_back(1.0);
    phrase.word_idf.push_back(5.0);
  }
  phrase.phrase_weight = 1.0;
  model.phrases.push_back(phrase);
  model.total_phrase_weight = 1.0;

  ContextSimilarity similarity;
  std::vector<std::string> full = {"m", "grammy", "award", "winner"};
  std::vector<std::string> partial = {"m", "grammy", "winner"};
  DocumentContext full_ctx(full, vocab);
  DocumentContext partial_ctx(partial, vocab);
  double full_score = similarity.Score(full_ctx, 0, 1, model);
  double partial_score = similarity.Score(partial_ctx, 0, 1, model);
  EXPECT_GT(full_score, partial_score);
  EXPECT_GT(partial_score, 0.0);
}

TEST_F(CoreTest, MentionTokensExcluded) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  ExtendedVocabulary vocab(&store);
  CandidateModel model;
  CandidatePhrase phrase;
  phrase.words.push_back(vocab.GetOrIntern("unique-context-word", 5.0));
  phrase.word_npmi.push_back(1.0);
  phrase.word_idf.push_back(5.0);
  phrase.phrase_weight = 1.0;
  model.phrases.push_back(phrase);
  model.total_phrase_weight = 1.0;

  ContextSimilarity similarity;
  std::vector<std::string> tokens = {"unique-context-word"};
  DocumentContext ctx(tokens, vocab);
  // The only occurrence is inside the mention span -> no match.
  EXPECT_EQ(similarity.Score(ctx, 0, 1, model), 0.0);
  // Outside the span -> match.
  EXPECT_GT(similarity.Score(ctx, 0, 0, model), 0.0);
}

TEST_F(CoreTest, DocumentContextWordCountsSortedByWordId) {
  // Regression: WordCounts used to surface unordered_map iteration order,
  // so downstream floating-point folds (type-classifier scores) depended
  // on the hash seed / standard library. The index is now a sorted array
  // and WordCounts is specified to ascend by word id.
  ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());
  for (size_t d = 0; d < std::min<size_t>(5, corpus_.size()); ++d) {
    DocumentContext context(corpus_[d].tokens, vocab);
    auto counts = context.WordCounts();
    ASSERT_FALSE(counts.empty());
    size_t total = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(counts[i - 1].first, counts[i].first);
      }
      // Each row must agree with the probe path.
      const std::span<const size_t> positions =
          context.Positions(counts[i].first);
      EXPECT_EQ(positions.size(), counts[i].second);
      EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
      total += counts[i].second;
    }
    EXPECT_LE(total, context.token_count());
    // Probing an unknown word still yields an empty span.
    EXPECT_TRUE(context.Positions(kb::kNoWord - 1).empty());
  }
}

// ---- Document index and keyphrase cover against an oracle -------------------

// The document index and scorer as they were before the flat index: a
// word-sorted array of position vectors probed by binary search, and a
// scorer that visits every phrase. DocumentContext and
// ContextSimilarity::Score must reproduce them bit for bit.
class OracleContext {
 public:
  OracleContext(const std::vector<std::string>& tokens,
                const ExtendedVocabulary& vocab) {
    const text::StopwordList& stopwords = text::DefaultStopwords();
    std::vector<std::pair<kb::WordId, size_t>> occurrences;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      if (token.size() <= 1 || stopwords.Contains(token)) continue;
      kb::WordId w = vocab.Find(util::ToLower(token));
      if (w == kb::kNoWord) continue;
      occurrences.emplace_back(w, i);
    }
    std::sort(occurrences.begin(), occurrences.end());
    for (const auto& [word, pos] : occurrences) {
      if (positions_.empty() || positions_.back().first != word) {
        positions_.emplace_back(word, std::vector<size_t>());
      }
      positions_.back().second.push_back(pos);
    }
  }

  const std::vector<size_t>& Positions(kb::WordId word) const {
    auto it = std::lower_bound(
        positions_.begin(), positions_.end(), word,
        [](const auto& row, kb::WordId w) { return row.first < w; });
    return it == positions_.end() || it->first != word ? empty_ : it->second;
  }

  std::vector<std::pair<kb::WordId, size_t>> WordCounts() const {
    std::vector<std::pair<kb::WordId, size_t>> counts;
    for (const auto& [word, positions] : positions_) {
      counts.emplace_back(word, positions.size());
    }
    return counts;
  }

 private:
  std::vector<std::pair<kb::WordId, std::vector<size_t>>> positions_;
  std::vector<size_t> empty_;
};

double OracleScore(const OracleContext& context, size_t mention_begin,
                   size_t mention_end, const CandidateModel& model,
                   ContextSimilarity::WordWeight mode) {
  const bool npmi = mode == ContextSimilarity::WordWeight::kNpmi;
  double total = 0.0;
  std::vector<std::pair<size_t, uint32_t>> occurrences;
  std::vector<uint32_t> window_counts;
  for (const CandidatePhrase& phrase : model.phrases) {
    const size_t len = phrase.words.size();
    if (len == 0) continue;
    double phrase_word_mass = 0.0;
    for (size_t i = 0; i < len; ++i) {
      phrase_word_mass += npmi ? phrase.word_npmi[i] : phrase.word_idf[i];
    }
    if (phrase_word_mass <= 0.0) continue;
    occurrences.clear();
    uint32_t present_slots = 0;
    double matched_mass = 0.0;
    for (size_t i = 0; i < len; ++i) {
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
        matched_mass += npmi ? phrase.word_npmi[i] : phrase.word_idf[i];
      }
    }
    if (present_slots == 0) continue;
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

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

constexpr ContextSimilarity::WordWeight kWeightModes[] = {
    ContextSimilarity::WordWeight::kNpmi,
    ContextSimilarity::WordWeight::kIdf};

// Positions() of every id in [0, vocab.size() + 128) and of
// kb::kNoWord - 1, and WordCounts(), equal the oracle's.
void ExpectIndexMatchesOracle(const DocumentContext& context,
                              const OracleContext& oracle,
                              const ExtendedVocabulary& vocab) {
  EXPECT_EQ(context.WordCounts(), oracle.WordCounts());
  std::vector<kb::WordId> ids;
  for (size_t w = 0; w < vocab.size() + 128; ++w) {
    ids.push_back(static_cast<kb::WordId>(w));
  }
  ids.push_back(kb::kNoWord - 1);
  for (kb::WordId w : ids) {
    const std::span<const size_t> got = context.Positions(w);
    const std::vector<size_t>& want = oracle.Positions(w);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "word " << w;
    ASSERT_EQ(context.Contains(w), !want.empty()) << "word " << w;
  }
}

// Every candidate of every gold mention, at its real span, in both weight
// modes. Returns how many of the scores were nonzero.
size_t ExpectScoresMatchOracle(const corpus::Document& doc,
                               const CandidateModelStore& models,
                               const ExtendedVocabulary& vocab) {
  const DocumentContext context(doc.tokens, vocab);
  const OracleContext oracle(doc.tokens, vocab);
  ExpectIndexMatchesOracle(context, oracle, vocab);
  size_t nonzero = 0;
  for (ContextSimilarity::WordWeight mode : kWeightModes) {
    const ContextSimilarity similarity(mode);
    for (const corpus::GoldMention& gm : doc.mentions) {
      for (const Candidate& c : LookupCandidates(models, gm.surface)) {
        const double got =
            similarity.Score(context, gm.begin_token, gm.end_token, *c.model);
        const double want =
            OracleScore(oracle, gm.begin_token, gm.end_token, *c.model, mode);
        EXPECT_EQ(Bits(got), Bits(want))
            << gm.surface << " entity " << c.entity;
        if (want != 0.0) ++nonzero;
      }
    }
  }
  return nonzero;
}

TEST_F(CoreTest, ContextSimilarityMatchesOracleOnTestWorldDocuments) {
  ExtendedVocabulary vocab(&world_.knowledge_base->keyphrases());
  size_t nonzero = 0;
  for (size_t d = 0; d < corpus_.size(); ++d) {
    SCOPED_TRACE("conll document " + std::to_string(d));
    nonzero += ExpectScoresMatchOracle(corpus_[d], models_, vocab);
  }
  // The serving benchmark's heavy shape.
  synth::CorpusConfig heavy = synth::ConllPreset().corpus;
  heavy.seed = 995;
  heavy.num_documents = 6;
  heavy.doc_tokens = 500;
  heavy.entities_per_doc = 35;
  heavy.mention_repeat = 1.5;
  const corpus::Corpus heavy_docs =
      synth::CorpusGenerator(&world_, heavy).Generate();
  ASSERT_EQ(heavy_docs.size(), heavy.num_documents);
  for (size_t d = 0; d < heavy_docs.size(); ++d) {
    SCOPED_TRACE("heavy document " + std::to_string(d));
    nonzero += ExpectScoresMatchOracle(heavy_docs[d], models_, vocab);
  }
  EXPECT_GT(nonzero, 1000u);
}

TEST_F(CoreTest, ContextSimilarityMatchesOracleOnEdgeCaseModels) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  ExtendedVocabulary vocab(&store);
  // KB words at the 64-bit block edges of the presence bitmap, each
  // usable as a document token.
  const kb::WordId edges[] = {63, 64, 127, 128};
  for (kb::WordId w : edges) {
    ASSERT_LT(w, store.word_count());
    const std::string text(vocab.Text(w));
    ASSERT_GT(text.size(), 1u);
    ASSERT_FALSE(text::DefaultStopwords().Contains(text));
    ASSERT_EQ(vocab.Find(text), w);
  }
  const kb::WordId in_span = vocab.GetOrIntern("zzq-mention-only", 4.0);
  const kb::WordId early = vocab.GetOrIntern("zzq-interned-early", 6.0);
  auto token = [&](kb::WordId w) { return std::string(vocab.Text(w)); };

  // Documents whose largest word sits on either side of a block edge,
  // and one that also holds two extension words, the first of them only
  // inside the span [1, 2).
  const std::vector<std::vector<std::string>> docs = {
      {token(63), token(5), token(63)},
      {token(64), token(63), "zzq-not-a-word", token(64)},
      {token(127), token(64), token(0)},
      {token(128), token(127), token(63), token(128), token(64)},
      {token(63), "zzq-mention-only", token(64), token(127), "the",
       "zzq-interned-early", token(128), token(63), token(5), token(64),
       "zzq-interned-early"},
  };
  std::vector<DocumentContext> contexts;
  std::vector<OracleContext> oracles;
  for (const std::vector<std::string>& tokens : docs) {
    contexts.emplace_back(tokens, vocab);
    oracles.emplace_back(tokens, vocab);
  }
  // Interned after every context was built: absent from all of them.
  const kb::WordId late = vocab.GetOrIntern("zzq-interned-late", 5.0);
  EXPECT_GT(late, early);
  for (size_t d = 0; d < docs.size(); ++d) {
    SCOPED_TRACE("document " + std::to_string(d));
    ExpectIndexMatchesOracle(contexts[d], oracles[d], vocab);
  }
  EXPECT_FALSE(contexts.back().Positions(in_span).empty());
  EXPECT_FALSE(contexts.back().Positions(early).empty());
  EXPECT_TRUE(contexts.back().Positions(late).empty());

  // Distinct NPMI and IDF weights per word, or the given weights in both.
  auto phrase = [](std::vector<kb::WordId> words,
                   std::vector<double> weights = {}) {
    CandidatePhrase p;
    p.words = std::move(words);
    p.phrase_weight = 1.0;
    for (size_t i = 0; i < p.words.size(); ++i) {
      p.word_npmi.push_back(weights.empty() ? 0.25 + 0.125 * i : weights[i]);
      p.word_idf.push_back(weights.empty() ? 1.5 + 0.75 * i : weights[i]);
    }
    return p;
  };
  const kb::WordId beyond = kb::kNoWord - 1;
  const std::vector<CandidatePhrase> phrases = {
      phrase({}),
      phrase({63, 63, 64}),
      phrase({64, 127, 64, 64}),
      phrase({in_span}),
      phrase({in_span, 127}),
      phrase({64, 128}, {0.0, 0.0}),
      phrase({63, 127}, {1.0, -1.0}),
      phrase({early}),
      phrase({late}),
      phrase({late, 128}),
      phrase({63}),
      phrase({64}),
      phrase({127}),
      phrase({128}),
      phrase({63, 128}),
      phrase({5, 127, 63}),
      phrase({beyond}),
      phrase({beyond, 64}),
      phrase({128, early, 63, 5}),
  };
  // Each phrase alone, and all of them in one model.
  std::vector<CandidateModel> models;
  for (const CandidatePhrase& p : phrases) {
    CandidateModel model;
    model.phrases.push_back(p);
    model.total_phrase_weight = 1.0;
    models.push_back(std::move(model));
  }
  CandidateModel all;
  all.phrases = phrases;
  all.total_phrase_weight = static_cast<double>(phrases.size());
  models.push_back(std::move(all));

  size_t nonzero = 0;
  for (ContextSimilarity::WordWeight mode : kWeightModes) {
    const ContextSimilarity similarity(mode);
    for (size_t d = 0; d < docs.size(); ++d) {
      const std::pair<size_t, size_t> spans[] = {
          {1, 2}, {0, 0}, {0, docs[d].size()}, {2, 4}, {3, 3}};
      for (const auto& [begin, end] : spans) {
        for (size_t m = 0; m < models.size(); ++m) {
          const double got =
              similarity.Score(contexts[d], begin, end, models[m]);
          const double want =
              OracleScore(oracles[d], begin, end, models[m], mode);
          EXPECT_EQ(Bits(got), Bits(want))
              << "document " << d << " span [" << begin << ", " << end
              << ") model " << m;
          if (want != 0.0) ++nonzero;
        }
      }
    }
  }
  EXPECT_GT(nonzero, 100u);
  // The word that occurs only inside the mention span scores nothing
  // there, and something once the span moves off it.
  const ContextSimilarity similarity;
  EXPECT_EQ(similarity.Score(contexts.back(), 1, 2, models[3]), 0.0);
  EXPECT_GT(similarity.Score(contexts.back(), 0, 0, models[3]), 0.0);
}

// ---- Milne-Witten -----------------------------------------------------------

TEST_F(CoreTest, MilneWittenProperties) {
  // Find a strongly related pair (the MW formula clips weakly overlapping
  // pairs to zero, so require rel > 0 explicitly).
  kb::EntityId a = kb::kNoEntity;
  kb::EntityId b = kb::kNoEntity;
  for (kb::EntityId e = 0; e < 80 && a == kb::kNoEntity; ++e) {
    for (kb::EntityId f = e + 1; f < 120; ++f) {
      if (mw_.RelatednessById(e, f) > 0.0) {
        a = e;
        b = f;
        break;
      }
    }
  }
  ASSERT_NE(a, kb::kNoEntity);
  double rel = mw_.RelatednessById(a, b);
  EXPECT_GT(rel, 0.0);
  EXPECT_LE(rel, 1.0);
  // Symmetry and identity.
  EXPECT_DOUBLE_EQ(mw_.RelatednessById(b, a), rel);
  EXPECT_DOUBLE_EQ(mw_.RelatednessById(a, a), 1.0);
  // Entities with disjoint or empty in-link sets score zero.
  EXPECT_EQ(mw_.RelatednessById(a, kb::kNoEntity), 0.0);
}

TEST_F(CoreTest, MilneWittenSameTopicBeatsCrossTopic) {
  // Averaged over pairs, same-topic entities are more MW-related.
  double same = 0;
  size_t same_n = 0;
  double cross = 0;
  size_t cross_n = 0;
  for (kb::EntityId e = 0; e < 100; ++e) {
    for (kb::EntityId f = e + 1; f < 100; ++f) {
      double rel = mw_.RelatednessById(e, f);
      if (world_.entity_topic[e] == world_.entity_topic[f]) {
        same += rel;
        ++same_n;
      } else {
        cross += rel;
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0u);
  ASSERT_GT(cross_n, 0u);
  EXPECT_GT(same / same_n, cross / cross_n);
}

TEST_F(CoreTest, PlaceholderRelatednessIsZeroForMw) {
  Candidate a;
  a.entity = 0;
  a.model = models_.ModelFor(0);
  Candidate placeholder;
  placeholder.is_placeholder = true;
  placeholder.model = std::make_shared<CandidateModel>();
  EXPECT_EQ(mw_.Relatedness(a, placeholder), 0.0);
}

// ---- Robustness helpers --------------------------------------------------------

TEST(RobustnessTest, ToDistribution) {
  auto dist = robustness::ToDistribution({1.0, 3.0});
  EXPECT_DOUBLE_EQ(dist[0], 0.25);
  EXPECT_DOUBLE_EQ(dist[1], 0.75);
  auto uniform = robustness::ToDistribution({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(uniform[1], 1.0 / 3.0);
}

TEST(RobustnessTest, PriorTest) {
  EXPECT_TRUE(robustness::PriorTestPasses({0.95, 0.05}, 0.9));
  EXPECT_FALSE(robustness::PriorTestPasses({0.6, 0.4}, 0.9));
}

TEST(RobustnessTest, L1Distance) {
  EXPECT_DOUBLE_EQ(
      robustness::PriorSimilarityL1({1.0, 0.0}, {0.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(
      robustness::PriorSimilarityL1({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

// ---- Graph building + solving ---------------------------------------------------

TEST_F(CoreTest, GraphBuilderDedupsEntities) {
  // Two mentions sharing a candidate entity should share one node.
  std::vector<Candidate> cands;
  Candidate c;
  c.entity = 0;
  c.prior = 1.0;
  c.model = models_.ModelFor(0);
  cands.push_back(c);

  MilneWittenRelatedness mw(world_.knowledge_base.get());
  DocumentEntityTable entities;
  const std::vector<const std::vector<Candidate>*> lists = {&cands, &cands};
  entities.Build(lists, mw);
  EXPECT_EQ(entities.size(), 1u);
  GraphBuildInput input;
  input.mentions.resize(2);
  input.mentions[0].candidates = &cands;
  input.mentions[0].me_weights = {0.5};
  input.mentions[1].candidates = &cands;
  input.mentions[1].me_weights = {0.7};
  MentionEntityGraph meg = BuildMentionEntityGraph(input, entities, mw);
  EXPECT_EQ(meg.entity_node_count(), 1u);
  EXPECT_EQ(meg.graph->node_count(), 3u);
  EXPECT_EQ(meg.entity_sources[0].size(), 2u);
}

TEST_F(CoreTest, SolverPicksCoherentAssignment) {
  // Synthetic instance: mention 0 has candidates {e0 (related to e2),
  // e1 (unrelated)}; mention 1 has candidate {e2}. Coherence should pull
  // mention 0 to e0 even with a weaker local weight.
  auto make_model = [](double weight) {
    auto model = std::make_shared<CandidateModel>();
    model->total_phrase_weight = weight;
    return model;
  };
  (void)make_model;
  // Use a stub relatedness keyed on entity ids.
  class StubRelatedness : public RelatednessMeasure {
   public:
    std::string name() const override { return "stub"; }
    double Relatedness(const Candidate& a,
                       const Candidate& b) const override {
      CountComparison();
      // Entities 100 and 102 are strongly related.
      if ((a.entity == 100 && b.entity == 102) ||
          (a.entity == 102 && b.entity == 100)) {
        return 0.9;
      }
      return 0.0;
    }
  };

  auto dummy = std::make_shared<CandidateModel>();
  std::vector<Candidate> m0(2);
  m0[0].entity = 100;
  m0[0].model = dummy;
  m0[1].entity = 101;
  m0[1].model = dummy;
  std::vector<Candidate> m1(1);
  m1[0].entity = 102;
  m1[0].model = dummy;

  StubRelatedness stub;
  DocumentEntityTable entities;
  const std::vector<const std::vector<Candidate>*> lists = {&m0, &m1};
  entities.Build(lists, stub);
  GraphBuildInput input;
  input.mentions.resize(2);
  input.mentions[0].candidates = &m0;
  input.mentions[0].me_weights = {0.4, 0.6};  // local prefers the wrong one
  input.mentions[1].candidates = &m1;
  input.mentions[1].me_weights = {0.9};

  MentionEntityGraph meg = BuildMentionEntityGraph(input, entities, stub);
  GraphSolution sol = SolveMentionEntityGraph(meg, GraphDisambiguatorOptions());
  ASSERT_EQ(sol.chosen_candidate.size(), 2u);
  EXPECT_EQ(sol.chosen_candidate[0], 0);  // coherent candidate wins
  EXPECT_EQ(sol.chosen_candidate[1], 0);
}

// ---- AIDA end-to-end on the synthetic corpus -------------------------------------

TEST_F(CoreTest, AidaBeatsPriorBaseline) {
  AidaOptions options;
  Aida aida(&models_, &mw_, options);
  PriorBaseline prior(&models_);

  size_t aida_correct = 0;
  size_t prior_correct = 0;
  size_t total = 0;
  for (const corpus::Document& doc : corpus_) {
    DisambiguationProblem problem = ToProblem(doc);
    DisambiguationResult ar = aida.Disambiguate(problem, {});
    DisambiguationResult pr = prior.Disambiguate(problem, {});
    for (size_t m = 0; m < doc.mentions.size(); ++m) {
      if (doc.mentions[m].out_of_kb()) continue;
      ++total;
      if (ar.mentions[m].entity == doc.mentions[m].gold_entity) {
        ++aida_correct;
      }
      if (pr.mentions[m].entity == doc.mentions[m].gold_entity) {
        ++prior_correct;
      }
    }
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(aida_correct, prior_correct);
  EXPECT_GT(static_cast<double>(aida_correct) / total, 0.6);
}

TEST_F(CoreTest, AidaResultShapeIsSound) {
  AidaOptions options;
  Aida aida(&models_, &mw_, options);
  const corpus::Document& doc = corpus_.front();
  DisambiguationProblem problem = ToProblem(doc);
  DisambiguationResult result = aida.Disambiguate(problem, {});
  ASSERT_EQ(result.mentions.size(), doc.mentions.size());
  for (const MentionResult& m : result.mentions) {
    EXPECT_EQ(m.candidate_entities.size(), m.candidate_scores.size());
    if (m.entity != kb::kNoEntity) {
      // The chosen entity must be among the candidates.
      bool found = false;
      for (kb::EntityId e : m.candidate_entities) found |= (e == m.entity);
      EXPECT_TRUE(found);
    }
  }
}

TEST_F(CoreTest, AidaConfigurationsDiffer) {
  AidaOptions sim_only;
  sim_only.use_prior = false;
  sim_only.use_coherence = false;
  Aida a1(&models_, &mw_, sim_only);
  EXPECT_EQ(a1.name(), "aida+sim-k");

  AidaOptions full;
  Aida a2(&models_, &mw_, full);
  EXPECT_EQ(a2.name(), "aida+r-prior+sim-k+r-coh(mw)");
}

TEST_F(CoreTest, BaselinesRunEndToEnd) {
  CucerzanBaseline cuc(&models_);
  KulkarniBaseline kul_s(&models_, nullptr, KulkarniBaseline::Mode::kSimilarity);
  KulkarniBaseline kul_ci(&models_, &mw_, KulkarniBaseline::Mode::kCollective);
  const corpus::Document& doc = corpus_.front();
  DisambiguationProblem problem = ToProblem(doc);
  for (NedSystem* system :
       std::initializer_list<NedSystem*>{&cuc, &kul_s, &kul_ci}) {
    DisambiguationResult result = system->Disambiguate(problem, {});
    EXPECT_EQ(result.mentions.size(), doc.mentions.size()) << system->name();
  }
}

}  // namespace
}  // namespace aida::core
