#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hashing/lsh_index.h"
#include "hashing/minhash.h"
#include "hashing/two_stage_hasher.h"
#include "kb/kb_builder.h"
#include "test_world.h"

namespace aida::hashing {
namespace {

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

// True when some bucket key of `a` equals some bucket key of `b`.
bool ShareBucket(const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b) {
  for (uint64_t key : a) {
    if (std::find(b.begin(), b.end(), key) != b.end()) return true;
  }
  return false;
}

// The reference for TwoStageHasher::GroupEntities: the original grouping,
// which sketched every query entity afresh and collated the band keys in
// a key -> items hash map before sorting the pairs.
Pairs OracleGroup(const TwoStageHasher& hasher,
                  const std::vector<kb::EntityId>& entities) {
  const TwoStageConfig& config = hasher.config();
  MinHasher entity_hasher(config.entity_bands * config.entity_rows,
                          config.seed ^ 0xABCDEF1234567890ULL);
  LshIndex bander(config.entity_bands, config.entity_rows);
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  for (uint32_t i = 0; i < entities.size(); ++i) {
    const std::vector<uint32_t>& ids = hasher.EntityBuckets(entities[i]);
    if (ids.empty()) continue;
    for (uint64_t key : bander.BucketKeys(entity_hasher.Sketch(ids))) {
      buckets[key].push_back(i);
    }
  }
  Pairs pairs;
  for (const auto& [key, items] : buckets) {
    for (size_t x = 0; x < items.size(); ++x) {
      for (size_t y = x + 1; y < items.size(); ++y) {
        uint32_t a = items[x];
        uint32_t b = items[y];
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        pairs.emplace_back(a, b);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

// Candidate-entity sets of a seeded 120-document CoNLL-like corpus over
// the shared test world: per document, the dictionary candidates of its
// mentions in mention order, first occurrence kept.
std::vector<std::vector<kb::EntityId>> CorpusCandidateSets() {
  const synth::World& world = testing::TestWorld::Get().world;
  synth::CorpusConfig config = testing::TestWorld::CorpusConfig();
  config.seed = 9091;
  config.num_documents = 120;
  std::vector<std::vector<kb::EntityId>> sets;
  for (const corpus::Document& doc :
       synth::CorpusGenerator(&world, config).Generate()) {
    std::vector<kb::EntityId> set;
    for (const corpus::GoldMention& mention : doc.mentions) {
      for (const kb::NameCandidate& c :
           world.knowledge_base->dictionary().Lookup(mention.surface)) {
        if (std::find(set.begin(), set.end(), c.entity) == set.end()) {
          set.push_back(c.entity);
        }
      }
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

TEST(MinHashTest, IdenticalSetsIdenticalSketches) {
  MinHasher hasher(16, 7);
  std::vector<uint32_t> items = {1, 5, 9, 42};
  EXPECT_EQ(hasher.Sketch(items), hasher.Sketch(items));
}

TEST(MinHashTest, OrderInvariant) {
  MinHasher hasher(16, 7);
  std::vector<uint32_t> a = {1, 5, 9, 42};
  std::vector<uint32_t> b = {42, 9, 5, 1};
  EXPECT_EQ(hasher.Sketch(a), hasher.Sketch(b));
}

TEST(MinHashTest, JaccardEstimateTracksTruth) {
  MinHasher hasher(512, 11);
  // |A ∩ B| = 50, |A ∪ B| = 150 -> Jaccard = 1/3.
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  for (uint32_t i = 0; i < 100; ++i) a.push_back(i);
  for (uint32_t i = 50; i < 150; ++i) b.push_back(i);
  double estimate = EstimateJaccard(hasher.Sketch(a), hasher.Sketch(b));
  EXPECT_NEAR(estimate, 1.0 / 3.0, 0.08);
}

TEST(MinHashTest, DisjointSetsLowEstimate) {
  MinHasher hasher(256, 13);
  std::vector<uint32_t> a = {1, 2, 3, 4, 5};
  std::vector<uint32_t> b = {100, 200, 300, 400};
  EXPECT_LT(EstimateJaccard(hasher.Sketch(a), hasher.Sketch(b)), 0.05);
}

TEST(LshIndexTest, NearDuplicatesCollide) {
  MinHasher hasher(8, 17);
  LshIndex index(4, 2);
  std::vector<uint32_t> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<uint32_t> b = a;
  b[9] = 999;  // 9/11 Jaccard
  std::vector<uint64_t> keys_a = index.BucketKeys(hasher.Sketch(a));
  EXPECT_EQ(keys_a.size(), 4u);
  EXPECT_TRUE(ShareBucket(keys_a, index.BucketKeys(hasher.Sketch(b))));
}

TEST(LshIndexTest, UnrelatedItemsRarelyCollide) {
  MinHasher hasher(8, 19);
  LshIndex index(4, 2);
  std::vector<std::vector<uint64_t>> keys;
  for (uint32_t item = 0; item < 20; ++item) {
    std::vector<uint32_t> set;
    for (uint32_t k = 0; k < 10; ++k) set.push_back(item * 1000 + k);
    keys.push_back(index.BucketKeys(hasher.Sketch(set)));
  }
  // With bands of size 2 over disjoint sets, collisions are unlikely.
  size_t colliding_pairs = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      if (ShareBucket(keys[i], keys[j])) ++colliding_pairs;
    }
  }
  EXPECT_LT(colliding_pairs, 5u);
}

class TwoStageHasherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kb::KbBuilder builder;
    // Two entities sharing most keyphrases, one unrelated.
    a_ = builder.AddEntity("A");
    b_ = builder.AddEntity("B");
    c_ = builder.AddEntity("C");
    for (const char* phrase :
         {"hard rock", "led zeppelin", "english guitarist",
          "grammy award winner"}) {
      builder.AddKeyphrase(a_, phrase);
      builder.AddKeyphrase(b_, phrase);
    }
    builder.AddKeyphrase(a_, "session musician");
    builder.AddKeyphrase(b_, "golden god");
    for (const char* phrase :
         {"himalaya mountains", "disputed territory", "line of control",
          "mountain pass"}) {
      builder.AddKeyphrase(c_, phrase);
    }
    no_phrases_ = builder.AddEntity("D");
    kb_ = std::move(builder).Build();
  }

  kb::EntityId a_, b_, c_, no_phrases_;
  std::unique_ptr<kb::KnowledgeBase> kb_;
};

TEST_F(TwoStageHasherTest, EntityBucketsNonEmpty) {
  TwoStageHasher hasher(kb_->keyphrases(), LshGoodConfig());
  EXPECT_FALSE(hasher.EntityBuckets(a_).empty());
  EXPECT_FALSE(hasher.EntityBuckets(c_).empty());
}

TEST_F(TwoStageHasherTest, SharedPhrasesShareBuckets) {
  TwoStageHasher hasher(kb_->keyphrases(), LshGoodConfig());
  const auto& ba = hasher.EntityBuckets(a_);
  const auto& bb = hasher.EntityBuckets(b_);
  size_t shared = 0;
  for (uint32_t bucket : ba) {
    if (std::binary_search(bb.begin(), bb.end(), bucket)) ++shared;
  }
  // Identical phrases hash to identical phrase buckets.
  EXPECT_GE(shared, 4u);
}

TEST_F(TwoStageHasherTest, GroupsRelatedPair) {
  TwoStageHasher hasher(kb_->keyphrases(), LshGoodConfig());
  auto pairs = hasher.GroupEntities({a_, b_, c_});
  bool ab = false;
  bool with_c = false;
  for (const auto& [i, j] : pairs) {
    if (i == 0 && j == 1) ab = true;
    if (j == 2 || i == 2) with_c = true;
  }
  EXPECT_TRUE(ab);
  // The recall-oriented config may or may not pair the unrelated entity;
  // the fast config should prune it.
  TwoStageHasher fast(kb_->keyphrases(), LshFastConfig());
  bool fast_with_c = false;
  for (const auto& [i, j] : fast.GroupEntities({a_, b_, c_})) {
    if (j == 2 || i == 2) fast_with_c = true;
  }
  EXPECT_FALSE(fast_with_c);
  (void)with_c;
}

TEST_F(TwoStageHasherTest, FastConfigPrunesAtLeastAsMuch) {
  TwoStageHasher good(kb_->keyphrases(), LshGoodConfig());
  TwoStageHasher fast(kb_->keyphrases(), LshFastConfig());
  std::vector<kb::EntityId> all = {a_, b_, c_};
  EXPECT_GE(good.GroupEntities(all).size(),
            fast.GroupEntities(all).size());
}

TEST_F(TwoStageHasherTest, GroupingMatchesOracleOnEdgeSets) {
  for (const TwoStageConfig& config : {LshGoodConfig(), LshFastConfig()}) {
    TwoStageHasher hasher(kb_->keyphrases(), config);
    ASSERT_TRUE(hasher.EntityBuckets(no_phrases_).empty());
    EXPECT_TRUE(hasher.BandKeys(no_phrases_).empty());
    EXPECT_EQ(hasher.BandKeys(a_).size(), config.entity_bands);
    const kb::EntityId outside =
        static_cast<kb::EntityId>(kb_->keyphrases().collection_size());
    const std::vector<std::vector<kb::EntityId>> sets = {
        {},
        {a_},
        {a_, a_},
        {a_, b_, a_, c_, b_},
        {no_phrases_, a_, no_phrases_, b_},
        {outside, a_, outside + 7, b_, kb::kNoEntity},
        {c_, b_, a_, no_phrases_, outside},
    };
    for (const std::vector<kb::EntityId>& set : sets) {
      EXPECT_EQ(hasher.GroupEntities(set), OracleGroup(hasher, set));
    }
    // Duplicates share every bucket.
    EXPECT_EQ(hasher.GroupEntities({a_, a_}), (Pairs{{0, 1}}));
  }
}

TEST(TwoStageGroupingTest, MatchesOracleOnCorpusCandidateSets) {
  const kb::KeyphraseStore& store =
      testing::TestWorld::Get().world.knowledge_base->keyphrases();
  const std::vector<std::vector<kb::EntityId>> sets = CorpusCandidateSets();
  ASSERT_GE(sets.size(), 100u);
  for (const TwoStageConfig& config : {LshGoodConfig(), LshFastConfig()}) {
    TwoStageHasher hasher(store, config);
    size_t pairs = 0;
    for (const std::vector<kb::EntityId>& set : sets) {
      const Pairs expected = OracleGroup(hasher, set);
      EXPECT_EQ(hasher.GroupEntities(set), expected);
      pairs += expected.size();
    }
    EXPECT_GT(pairs, 0u);
  }
}

TEST(TwoStageGroupingTest, ConcurrentColdGroupingMatchesOracle) {
  const kb::KeyphraseStore& store =
      testing::TestWorld::Get().world.knowledge_base->keyphrases();
  const std::vector<std::vector<kb::EntityId>> sets = CorpusCandidateSets();
  const TwoStageHasher reference(store, LshGoodConfig());
  std::vector<Pairs> expected;
  for (const std::vector<kb::EntityId>& set : sets) {
    expected.push_back(OracleGroup(reference, set));
  }

  // Four threads race to fill the memo of one cold hasher: each walks the
  // same overlapping sets from a different starting point.
  const TwoStageHasher hasher(store, LshGoodConfig());
  constexpr size_t kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < sets.size(); ++k) {
        const size_t s = (k + t * sets.size() / kThreads) % sets.size();
        if (hasher.GroupEntities(sets[s]) != expected[s]) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace aida::hashing
