#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/candidates.h"
#include "kore/keyterm_cosine.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "test_world.h"

namespace aida::kore {
namespace {

using ::aida::testing::TestWorld;

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

}  // namespace
}  // namespace aida::kore
