// Tests for util/alloc_probe.h — the runtime half of the hot-path effect
// discipline (the compile-time half is -Wfunction-effects, see
// util/function_effects.h). Counter-exactness tests pin the interposer
// contract; the zero-allocation tests pin the request-path micro-paths
// that the AIDA_NONBLOCKING annotations promise stay off the allocator;
// the serving regression bounds the end-to-end residual churn of a warm
// cached request.
//
// Every test self-skips when interposition is compiled out (sanitizer
// builds define their own operator new, AIDA_DISABLE_ALLOC_PROBE opts
// out explicitly).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/context_similarity.h"
#include "core/relatedness.h"
#include "core/relatedness_cache.h"
#include "kb/dictionary.h"
#include "serve/metrics.h"
#include "test_world.h"
#include "util/alloc_probe.h"

namespace aida {
namespace {

#define SKIP_WITHOUT_PROBE()                                             \
  if (!util::AllocProbeAvailable()) {                                    \
    GTEST_SKIP() << "global operator new interposition unavailable "     \
                    "(sanitizer build or AIDA_DISABLE_ALLOC_PROBE)";     \
  }

/// Publishing the pointer through an atomic the optimizer cannot see
/// through defeats C++14 allocation elision: GCC happily removes a
/// paired new/delete whose pointer never escapes, which would make these
/// counter-exactness tests assert on nothing.
std::atomic<void*> g_escape_sink{nullptr};

template <typename T>
T* Escape(T* pointer) {
  g_escape_sink.store(pointer, std::memory_order_relaxed);
  return pointer;
}

TEST(AllocProbeTest, CountsPlainNewAndDelete) {
  SKIP_WITHOUT_PROBE();
  util::ScopedAllocationCount probe;
  int* p = Escape(new int(7));
  EXPECT_EQ(probe.allocations(), 1u);
  EXPECT_EQ(probe.deallocations(), 0u);
  EXPECT_GE(probe.bytes_allocated(), sizeof(int));
  delete p;
  EXPECT_EQ(probe.allocations(), 1u);
  EXPECT_EQ(probe.deallocations(), 1u);
}

TEST(AllocProbeTest, ArrayNewAndDeleteAreSymmetric) {
  SKIP_WITHOUT_PROBE();
  util::ScopedAllocationCount probe;
  // std::string elements force the non-trivial-destructor new[] shape
  // (cookie-prefixed allocation) through the interposer.
  std::string* strings = Escape(new std::string[4]);
  double* doubles = Escape(new double[16]);
  const uint64_t allocs_after_new = probe.allocations();
  const uint64_t bytes_after_new = probe.bytes_allocated();
  delete[] strings;
  delete[] doubles;
  const uint64_t allocs_after_delete = probe.allocations();
  const uint64_t frees_after_delete = probe.deallocations();
  EXPECT_EQ(allocs_after_new, 2u);
  EXPECT_GE(bytes_after_new, 4 * sizeof(std::string) + 16 * sizeof(double));
  EXPECT_EQ(allocs_after_delete, 2u);
  EXPECT_EQ(frees_after_delete, 2u);
}

TEST(AllocProbeTest, NothrowAndOveralignedFormsAreCounted) {
  SKIP_WITHOUT_PROBE();
  struct alignas(64) Overaligned {
    unsigned char bytes[64];
  };
  util::ScopedAllocationCount probe;
  int* nothrow_int = Escape(new (std::nothrow) int(1));
  ASSERT_NE(nothrow_int, nullptr);
  Overaligned* aligned = Escape(new Overaligned);
  const uint64_t allocs = probe.allocations();
  const bool is_aligned = reinterpret_cast<uintptr_t>(aligned) % 64 == 0;
  delete nothrow_int;
  delete aligned;
  const uint64_t frees = probe.deallocations();
  EXPECT_TRUE(is_aligned);
  EXPECT_EQ(allocs, 2u);
  EXPECT_EQ(frees, 2u);
}

TEST(AllocProbeTest, NestedScopesSeeDisjointWindows) {
  SKIP_WITHOUT_PROBE();
  util::ScopedAllocationCount outer;
  delete Escape(new int(1));
  uint64_t inner_allocs_at_start = ~0ull;
  uint64_t inner_allocs = 0;
  uint64_t inner_frees = 0;
  {
    util::ScopedAllocationCount inner;
    inner_allocs_at_start = inner.allocations();
    delete Escape(new int(2));
    inner_allocs = inner.allocations();
    inner_frees = inner.deallocations();
  }
  const uint64_t outer_allocs = outer.allocations();
  const uint64_t outer_frees = outer.deallocations();
  EXPECT_EQ(inner_allocs_at_start, 0u);
  EXPECT_EQ(inner_allocs, 1u);
  EXPECT_EQ(inner_frees, 1u);
  EXPECT_EQ(outer_allocs, 2u);
  EXPECT_EQ(outer_frees, 2u);
}

TEST(AllocProbeTest, CountersArePerThread) {
  SKIP_WITHOUT_PROBE();
  int* cross_freed = Escape(new int(3));  // freed on the spawned thread
  util::AllocProbeCounters other_delta{};
  std::thread other([&] {
    // The window opens inside the thread body, past any start-up
    // allocations of the thread runtime itself.
    const util::AllocProbeCounters before = util::ThisThreadAllocCounts();
    delete Escape(new int(4));
    delete cross_freed;
    const util::AllocProbeCounters after = util::ThisThreadAllocCounts();
    other_delta.allocations = after.allocations - before.allocations;
    other_delta.deallocations = after.deallocations - before.deallocations;
  });
  // The main-thread window covers only the join: the spawned thread's
  // traffic (its own new/delete plus the cross-thread free of
  // cross_freed) must not leak into this thread's counters.
  util::ScopedAllocationCount main_probe;
  other.join();
  EXPECT_EQ(other_delta.allocations, 1u);
  EXPECT_EQ(other_delta.deallocations, 2u);
  EXPECT_EQ(main_probe.allocations(), 0u);
}

// ---------------------------------------------------------------------------
// Zero-allocation pins for the annotated request-path micro-operations.

TEST(AllocProbeTest, WarmDictionaryLookupDoesNotAllocate) {
  SKIP_WITHOUT_PROBE();
  kb::Dictionary dict;
  dict.AddAnchor("Alan Turing", 0, 9);
  dict.AddAnchor("Turing", 0, 5);
  dict.AddAnchor("AT", 0, 2);
  dict.Finalize();
  // Warm pass (first calls may touch lazily-built thread state).
  (void)dict.Lookup("Alan Turing");
  (void)dict.Lookup("AT");
  util::ScopedAllocationCount probe;
  for (int i = 0; i < 100; ++i) {
    // Long path (> 3 chars): the stack-buffer case fold that replaced
    // the old per-lookup std::string — the fix this test pins.
    ASSERT_FALSE(dict.Lookup("Alan Turing").empty());
    // Short path (<= 3 chars): exact-table probe.
    ASSERT_FALSE(dict.Lookup("AT").empty());
    // Miss: must not allocate either.
    ASSERT_TRUE(dict.Lookup("Unknown Name").empty());
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_EQ(probe.deallocations(), 0u);
}

TEST(AllocProbeTest, RelatednessCacheHitAndInsertDoNotAllocate) {
  SKIP_WITHOUT_PROBE();
  core::RelatednessCache cache;
  // Warm: first Insert/Lookup initializes the per-thread L1 block.
  cache.Insert(1, 2, 0.5);
  double value = 0.0;
  (void)cache.Lookup(1, 2, &value);
  util::ScopedAllocationCount probe;
  for (kb::EntityId e = 0; e < 200; ++e) {
    cache.Insert(e, e + 1, 0.25);
  }
  for (kb::EntityId e = 0; e < 200; ++e) {
    (void)cache.Lookup(e, e + 1, &value);
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_EQ(probe.deallocations(), 0u);
}

TEST(AllocProbeTest, LatencyHistogramRecordDoesNotAllocate) {
  SKIP_WITHOUT_PROBE();
  serve::LatencyHistogram histogram;
  histogram.Record(0.001);  // warm
  util::ScopedAllocationCount probe;
  for (int i = 0; i < 1000; ++i) {
    histogram.Record(0.0001 * (i + 1));
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_EQ(probe.deallocations(), 0u);
}

TEST(AllocProbeTest, WarmContextSimilarityScoreDoesNotAllocate) {
  SKIP_WITHOUT_PROBE();
  const testing::TestWorld& world = testing::TestWorld::Get();
  core::CandidateModelStore models(world.world.knowledge_base.get());
  core::ExtendedVocabulary vocab(&world.world.knowledge_base->keyphrases());
  for (size_t d = 0; d < 4 && d < world.corpus.size(); ++d) {
    const corpus::Document& doc = world.corpus[d];
    const core::DocumentContext context(doc.tokens, vocab);
    std::vector<std::vector<core::Candidate>> candidates;
    for (const corpus::GoldMention& gm : doc.mentions) {
      candidates.push_back(core::LookupCandidates(models, gm.surface));
    }
    for (const core::ContextSimilarity similarity :
         {core::ContextSimilarity(core::ContextSimilarity::WordWeight::kNpmi),
          core::ContextSimilarity(core::ContextSimilarity::WordWeight::kIdf)}) {
      // Every candidate at its mention's span.
      const auto score_all = [&] {
        double sum = 0.0;
        for (size_t m = 0; m < doc.mentions.size(); ++m) {
          for (const core::Candidate& cand : candidates[m]) {
            sum += similarity.Score(context, doc.mentions[m].begin_token,
                                    doc.mentions[m].end_token, *cand.model);
          }
        }
        return sum;
      };
      const double warm = score_all();  // sizes the per-thread scratch
      util::ScopedAllocationCount probe;
      const double total = score_all();
      const uint64_t allocations = probe.allocations();
      const uint64_t deallocations = probe.deallocations();
      EXPECT_GT(total, 0.0) << "document " << d;
      EXPECT_EQ(total, warm) << "document " << d;
      EXPECT_EQ(allocations, 0u) << "document " << d;
      EXPECT_EQ(deallocations, 0u) << "document " << d;
    }
  }
}

TEST(AllocProbeTest, VocabularyMissWithoutExtensionsDoesNotAllocate) {
  SKIP_WITHOUT_PROBE();
  const testing::TestWorld& world = testing::TestWorld::Get();
  core::ExtendedVocabulary vocab(&world.world.knowledge_base->keyphrases());
  // Longer than any small-string buffer: a lookup that built a
  // std::string from it would allocate.
  const std::string unknown = "an-unknown-token-longer-than-the-sso-buffer";
  const std::string known(vocab.Text(0));
  util::ScopedAllocationCount probe;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(vocab.Find(unknown), kb::kNoWord);
    ASSERT_EQ(vocab.Find(known), 0u);
  }
  EXPECT_EQ(probe.allocations(), 0u);
  EXPECT_EQ(probe.deallocations(), 0u);
}

TEST(AllocProbeTest, DocumentContextIndexIsSizedByLargestWordPresent) {
  SKIP_WITHOUT_PROBE();
  // The presence bitmap and its rank array cover word ids up to the
  // largest one in the document: 8 + 4 bytes per 64 ids. Everything else
  // scales with the token count; 64 bytes per token bounds it loosely.
  const testing::TestWorld& world = testing::TestWorld::Get();
  core::ExtendedVocabulary vocab(&world.world.knowledge_base->keyphrases());
  const kb::WordId largest = static_cast<kb::WordId>(vocab.size() - 1);
  ASSERT_GT(largest, 1000u);
  const std::vector<std::string> small = {std::string(vocab.Text(0)),
                                          std::string(vocab.Text(1))};
  const std::vector<std::string> large = {std::string(vocab.Text(0)),
                                          std::string(vocab.Text(largest))};
  for (const std::vector<std::string>& tokens : {small, large}) {
    ASSERT_TRUE(tokens[0].size() > 1 && tokens[0].size() < 16);
    ASSERT_TRUE(tokens[1].size() > 1 && tokens[1].size() < 16);
  }
  // Warm: the first build constructs the shared stopword list.
  (void)core::DocumentContext(small, vocab);
  const auto bytes_to_build = [&](const std::vector<std::string>& tokens) {
    util::ScopedAllocationCount probe;
    const core::DocumentContext context(tokens, vocab);
    EXPECT_EQ(context.Positions(vocab.Find(tokens[1])).size(), 1u);
    return probe.bytes_allocated();
  };
  const uint64_t per_tokens = 64 * small.size();
  EXPECT_LE(bytes_to_build(small), 12 + per_tokens);
  EXPECT_LE(bytes_to_build(large), 12 * (largest / 64 + 1) + per_tokens);
  EXPECT_GT(bytes_to_build(large), 8 * (largest / 64 + 1));
}

// ---------------------------------------------------------------------------
// End-to-end serving regression: warm cached requests stay within the
// committed steady-state allocation bound.

TEST(AllocProbeTest, WarmCachedRequestStaysWithinAllocationBound) {
  SKIP_WITHOUT_PROBE();
  const testing::TestWorld& world = testing::TestWorld::Get();
  core::CandidateModelStore models(world.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(world.world.knowledge_base.get());
  core::RelatednessCache cache;
  core::CachedRelatednessMeasure cached_mw(&mw, &cache);
  core::Aida aida(&models, &cached_mw, core::AidaOptions());

  std::vector<core::DisambiguationProblem> work;
  for (size_t d = 0; d < 4 && d < world.corpus.size(); ++d) {
    const corpus::Document& doc = world.corpus[d];
    core::DisambiguationProblem problem;
    problem.tokens = &doc.tokens;
    for (const corpus::GoldMention& gm : doc.mentions) {
      core::ProblemMention pm;
      pm.surface = gm.surface;
      pm.begin_token = gm.begin_token;
      pm.end_token = gm.end_token;
      problem.mentions.push_back(std::move(pm));
    }
    work.push_back(std::move(problem));
  }
  ASSERT_FALSE(work.empty());

  // Two warm passes: fill the relatedness cache for these documents and
  // any lazily-built thread-local state, exactly like a warmed worker.
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::DisambiguationProblem& problem : work) {
      (void)aida.Disambiguate(problem, {});
    }
  }

  util::ScopedAllocationCount probe;
  for (const core::DisambiguationProblem& problem : work) {
    (void)aida.Disambiguate(problem, {});
  }
  const double per_request =
      static_cast<double>(probe.allocations()) / work.size();

  // Committed steady-state bound for the TestWorld documents (150 tokens,
  // ~7 entities). The residual traffic is per-request result assembly and
  // per-document graph scratch: 713.25 allocations per request (2,853
  // over these four documents) in the default RelWithDebInfo build with
  // GCC 12. The bound is under twice that, so library differences fit
  // but new per-pair or per-lookup churn does not. Raising it requires
  // explaining which new allocation is justified (see DESIGN.md §6).
  constexpr double kAllocsPerRequestBound = 1400.0;
  EXPECT_LE(per_request, kAllocsPerRequestBound)
      << "steady-state allocations per warm cached request regressed";
  // Steady state also means no monotone growth: frees keep pace with
  // allocations across the window (within one request's worth of slack
  // for caches that legitimately retain).
  EXPECT_GE(static_cast<double>(probe.deallocations()),
            0.9 * static_cast<double>(probe.allocations()));
}

}  // namespace
}  // namespace aida
