#include <gtest/gtest.h>

#include <algorithm>

#include "core/aida.h"
#include "core/baselines.h"
#include "core/candidates.h"
#include "core/context_similarity.h"
#include "core/mention_entity_graph.h"
#include "core/relatedness.h"
#include "core/robustness.h"
#include "test_world.h"

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
  kb::WordId w = vocab.GetOrIntern("zzz-neverseen", 7.5);
  EXPECT_GE(w, base);
  EXPECT_EQ(vocab.GetOrIntern("zzz-neverseen"), w);
  EXPECT_EQ(vocab.Find("zzz-neverseen"), w);
  EXPECT_DOUBLE_EQ(vocab.Idf(w), 7.5);
  vocab.SetIdf(w, 3.0);
  EXPECT_DOUBLE_EQ(vocab.Idf(w), 3.0);
  EXPECT_EQ(vocab.size(), base + 1);
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
      if (i > 0) EXPECT_LT(counts[i - 1].first, counts[i].first);
      // Each row must agree with the probe path.
      const std::vector<size_t>& positions =
          context.Positions(counts[i].first);
      EXPECT_EQ(positions.size(), counts[i].second);
      EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
      total += counts[i].second;
    }
    EXPECT_LE(total, context.token_count());
    // Probing an unknown word still yields the shared empty row.
    EXPECT_TRUE(context.Positions(kb::kNoWord - 1).empty());
  }
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
