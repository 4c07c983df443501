// Property-based sweeps: invariants that must hold for ANY generated
// world, checked across a set of seeds and world shapes via TEST_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/candidates.h"
#include "core/context_similarity.h"
#include "core/relatedness.h"
#include "core/robustness.h"
#include "graph/dense_subgraph.h"
#include "kb/flat/flat_snapshot.h"
#include "kore/keyterm_cosine.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"
#include "util/rng.h"

namespace aida {
namespace {

struct WorldParam {
  uint64_t seed;
  size_t topics;
  size_t entities;
  size_t names;
};

std::ostream& operator<<(std::ostream& os, const WorldParam& p) {
  return os << "seed" << p.seed << "_e" << p.entities;
}

class WorldPropertyTest : public ::testing::TestWithParam<WorldParam> {
 protected:
  void SetUp() override {
    const WorldParam& param = GetParam();
    synth::WorldConfig config;
    config.seed = param.seed;
    config.num_topics = param.topics;
    config.num_entities = param.entities;
    config.num_shared_names = param.names;
    config.num_emerging = 8;
    config.topic_vocab_size = 60;
    config.generic_vocab_size = 120;
    world_ = synth::WorldGenerator(config).Generate();
    models_ = std::make_unique<core::CandidateModelStore>(
        world_.knowledge_base.get());
  }

  core::Candidate MakeCandidate(kb::EntityId e) const {
    core::Candidate c;
    c.entity = e;
    c.model = models_->ModelFor(e);
    return c;
  }

  synth::World world_;
  std::unique_ptr<core::CandidateModelStore> models_;
};

INSTANTIATE_TEST_SUITE_P(
    Worlds, WorldPropertyTest,
    ::testing::Values(WorldParam{1, 4, 120, 40},
                      WorldParam{2, 8, 300, 90},
                      WorldParam{77, 6, 200, 30},    // very ambiguous
                      WorldParam{123, 12, 400, 400}  // barely ambiguous
                      ));

// ---- Knowledge-base invariants -------------------------------------------------

TEST_P(WorldPropertyTest, DictionaryPriorsAreDistributions) {
  const kb::Dictionary& dict = world_.knowledge_base->dictionary();
  for (const std::string& name : dict.AllNames()) {
    auto candidates = dict.Lookup(name);
    ASSERT_FALSE(candidates.empty());
    double total = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_GT(candidates[i].prior, 0.0);
      EXPECT_LE(candidates[i].prior, 1.0);
      if (i > 0) {
        EXPECT_LE(candidates[i].prior, candidates[i - 1].prior);
      }
      total += candidates[i].prior;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << name;
  }
}

TEST_P(WorldPropertyTest, KeyphraseWeightsInRange) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  for (kb::EntityId e = 0; e < world_.knowledge_base->entity_count();
       e += 13) {
    for (kb::PhraseId p : store.EntityPhrases(e)) {
      double mi = store.PhraseMi(e, p);
      EXPECT_GE(mi, 0.0);
      EXPECT_LE(mi, 1.0);
    }
    for (kb::WordId w : store.EntityWords(e)) {
      double npmi = store.KeywordNpmi(e, w);
      EXPECT_GE(npmi, 0.0);
      EXPECT_LE(npmi, 1.0 + 1e-9);
      EXPECT_GE(store.WordIdf(w), 0.0);
    }
  }
}

TEST_P(WorldPropertyTest, LinkGraphIsConsistent) {
  const kb::LinkGraph& links = world_.knowledge_base->links();
  size_t in_total = 0;
  size_t out_total = 0;
  for (kb::EntityId e = 0; e < links.entity_count(); ++e) {
    in_total += links.InLinks(e).size();
    out_total += links.OutLinks(e).size();
    for (kb::EntityId source : links.InLinks(e)) {
      const auto& out = links.OutLinks(source);
      EXPECT_TRUE(std::binary_search(out.begin(), out.end(), e));
    }
  }
  EXPECT_EQ(in_total, out_total);
  EXPECT_EQ(out_total, links.link_count());
}

// ---- Relatedness measure invariants ------------------------------------------------

TEST_P(WorldPropertyTest, RelatednessSymmetricAndBounded) {
  core::MilneWittenRelatedness mw(world_.knowledge_base.get());
  kore::KoreRelatedness kore;
  kore::KeytermCosineRelatedness kwcs(
      kore::KeytermCosineRelatedness::Mode::kKeyword);
  kore::KeytermCosineRelatedness kpcs(
      kore::KeytermCosineRelatedness::Mode::kKeyphrase);
  std::vector<const core::RelatednessMeasure*> measures = {&mw, &kore,
                                                           &kwcs, &kpcs};
  util::Rng rng(GetParam().seed * 31 + 1);
  const size_t n = world_.knowledge_base->entity_count();
  for (int trial = 0; trial < 40; ++trial) {
    core::Candidate a = MakeCandidate(
        static_cast<kb::EntityId>(rng.UniformInt(n)));
    core::Candidate b = MakeCandidate(
        static_cast<kb::EntityId>(rng.UniformInt(n)));
    for (const core::RelatednessMeasure* measure : measures) {
      double ab = measure->Relatedness(a, b);
      double ba = measure->Relatedness(b, a);
      EXPECT_NEAR(ab, ba, 1e-9) << measure->name();
      EXPECT_GE(ab, 0.0) << measure->name();
      EXPECT_LE(ab, 1.0 + 1e-9) << measure->name();
    }
  }
}

TEST_P(WorldPropertyTest, LshPairsAreSubsetWithExactValues) {
  const kb::KeyphraseStore& store = world_.knowledge_base->keyphrases();
  kore::KoreLshRelatedness lsh = kore::KoreLshRelatedness::Good(&store);
  kore::KoreRelatedness exact;

  std::vector<core::Candidate> pool;
  for (kb::EntityId e = 0; e < std::min<size_t>(
                                   40, world_.knowledge_base->entity_count());
       ++e) {
    pool.push_back(MakeCandidate(e));
  }
  std::vector<const core::Candidate*> ptrs;
  for (const core::Candidate& c : pool) ptrs.push_back(&c);

  for (const auto& [i, j] : lsh.FilterPairs(ptrs)) {
    ASSERT_LT(i, j);
    ASSERT_LT(j, pool.size());
    // The LSH variant computes the EXACT measure on admitted pairs.
    EXPECT_DOUBLE_EQ(lsh.Relatedness(pool[i], pool[j]),
                     exact.Relatedness(pool[i], pool[j]));
  }
}

// ---- Corpus invariants ------------------------------------------------------------------

TEST_P(WorldPropertyTest, GeneratedCorpusIsWellFormed) {
  synth::CorpusConfig config;
  config.seed = GetParam().seed + 5;
  config.num_documents = 15;
  config.doc_tokens = 90;
  config.entities_per_doc = 5;
  config.emerging_mention_prob = 0.1;
  config.linked_entity_prob = 0.5;
  config.coherence_trap_prob = 0.3;
  corpus::Corpus docs =
      synth::CorpusGenerator(&world_, config).Generate();
  ASSERT_EQ(docs.size(), 15u);
  for (const corpus::Document& doc : docs) {
    for (const corpus::GoldMention& m : doc.mentions) {
      ASSERT_LT(m.begin_token, m.end_token);
      ASSERT_LE(m.end_token, doc.tokens.size());
      if (!m.out_of_kb()) {
        ASSERT_LT(m.gold_entity, world_.knowledge_base->entity_count());
        // The gold entity must be reachable through the dictionary.
        bool found = false;
        for (const kb::NameCandidate& nc :
             world_.knowledge_base->dictionary().Lookup(m.surface)) {
          found |= (nc.entity == m.gold_entity);
        }
        EXPECT_TRUE(found) << m.surface;
      } else {
        ASSERT_LT(m.gold_emerging, world_.emerging.size());
      }
    }
  }
}

TEST_P(WorldPropertyTest, SerializationRoundTripsAcrossSeeds) {
  std::string buffer =
      kb::flat::SerializeFlatSnapshot(*world_.knowledge_base);
  auto loaded = kb::flat::LoadFlatSnapshotFromString(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->entity_count(),
            world_.knowledge_base->entity_count());
  // Serialization is deterministic.
  EXPECT_EQ(kb::flat::SerializeFlatSnapshot(**loaded), buffer);
}

// ---- Dense subgraph invariants (random instances) -----------------------------------------

class DenseSubgraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DenseSubgraphPropertyTest,
                         ::testing::Values(3u, 17u, 99u, 256u, 1024u));

TEST_P(DenseSubgraphPropertyTest, GroupConstraintAlwaysHolds) {
  util::Rng rng(GetParam());
  const size_t mentions = 4 + rng.UniformInt(8);
  const size_t entities = mentions * (2 + rng.UniformInt(5));
  graph::WeightedGraph g(mentions + entities);
  std::vector<bool> removable(mentions + entities, false);
  std::vector<std::vector<graph::NodeId>> groups(mentions);
  for (size_t m = 0; m < mentions; ++m) {
    size_t cands = 1 + rng.UniformInt(5);
    std::set<graph::NodeId> chosen;
    for (size_t c = 0; c < cands; ++c) {
      graph::NodeId node = static_cast<graph::NodeId>(
          mentions + rng.UniformInt(entities));
      if (!chosen.insert(node).second) continue;
      removable[node] = true;
      groups[m].push_back(node);
      g.AddEdge(static_cast<graph::NodeId>(m), node,
                rng.UniformDouble());
    }
  }
  for (int extra = 0; extra < 40; ++extra) {
    graph::NodeId u = static_cast<graph::NodeId>(
        mentions + rng.UniformInt(entities));
    graph::NodeId v = static_cast<graph::NodeId>(
        mentions + rng.UniformInt(entities));
    if (u == v || !removable[u] || !removable[v]) continue;
    g.AddEdge(u, v, rng.UniformDouble() * 0.5);
  }

  graph::DenseSubgraphResult result =
      graph::ConstrainedDenseSubgraph(g, removable, groups);
  ASSERT_EQ(result.alive.size(), g.node_count());
  for (const auto& group : groups) {
    size_t alive = 0;
    for (graph::NodeId node : group) {
      if (result.alive[node]) ++alive;
    }
    EXPECT_GE(alive, 1u);
  }
  EXPECT_GE(result.objective, 0.0);
}

// ---- Cover-scoring invariants --------------------------------------------------------------

class CoverScoreTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CoverScoreTest,
                         ::testing::Values(5u, 50u, 500u));

TEST_P(CoverScoreTest, MoreMatchedWordsNeverScoreLower) {
  // A phrase of k fresh words; documents matching progressively more of
  // them (adjacently) must score monotonically non-decreasing.
  synth::WorldConfig config;
  config.seed = GetParam();
  config.num_topics = 2;
  config.num_entities = 30;
  config.num_shared_names = 10;
  synth::World world = synth::WorldGenerator(config).Generate();
  core::ExtendedVocabulary vocab(&world.knowledge_base->keyphrases());

  core::CandidateModel model;
  core::CandidatePhrase phrase;
  std::vector<std::string> words = {"alpha-w", "beta-w", "gamma-w",
                                    "delta-w"};
  for (const std::string& w : words) {
    phrase.words.push_back(vocab.GetOrIntern(w, 5.0));
    phrase.word_idf.push_back(5.0);
    phrase.word_npmi.push_back(0.8);
  }
  phrase.phrase_weight = 1.0;
  model.phrases.push_back(phrase);
  model.total_phrase_weight = 1.0;

  core::ContextSimilarity similarity;
  double previous = -1.0;
  for (size_t k = 1; k <= words.size(); ++k) {
    std::vector<std::string> tokens = {"mention-token"};
    for (size_t i = 0; i < k; ++i) tokens.push_back(words[i]);
    core::DocumentContext context(tokens, vocab);
    double score = similarity.Score(context, 0, 1, model);
    EXPECT_GE(score, previous) << "k=" << k;
    previous = score;
  }
  // A full adjacent match attains the maximum possible score of 1 phrase
  // with cover length = phrase length: z = 1, fraction = 1.
  EXPECT_NEAR(previous, 1.0, 1e-9);
}

}  // namespace
}  // namespace aida
