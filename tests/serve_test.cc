// The online serving layer: bounded-queue admission control and load
// shedding, per-request deadlines (in queue and cooperatively mid-flight),
// drain/shutdown semantics, the metrics registry, and byte-identical
// equivalence of served results with serial disambiguation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/serving.h"
#include "core/aida.h"
#include "core/batch.h"
#include "core/relatedness_cache.h"
#include "kb/snapshot_registry.h"
#include "kore/kore_lsh.h"
#include "serve/bounded_queue.h"
#include "serve/metrics.h"
#include "serve/ned_service.h"
#include "test_world.h"
#include "util/stopwatch.h"

namespace aida::serve {
namespace {

using ::aida::testing::TestWorld;

core::DisambiguationProblem ToProblem(const corpus::Document& doc) {
  core::DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const corpus::GoldMention& gm : doc.mentions) {
    core::ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  return problem;
}

void ExpectSameResults(const core::DisambiguationResult& x,
                       const core::DisambiguationResult& y) {
  ASSERT_EQ(x.mentions.size(), y.mentions.size());
  for (size_t m = 0; m < x.mentions.size(); ++m) {
    const core::MentionResult& a = x.mentions[m];
    const core::MentionResult& b = y.mentions[m];
    EXPECT_EQ(a.entity, b.entity) << "mention " << m;
    EXPECT_EQ(a.chose_placeholder, b.chose_placeholder);
    // Byte-identical scoring: the service adds no nondeterminism.
    EXPECT_EQ(a.score, b.score) << "mention " << m;
    EXPECT_EQ(a.candidate_entities, b.candidate_entities);
    EXPECT_EQ(a.candidate_scores, b.candidate_scores);
    EXPECT_EQ(a.candidate_is_placeholder, b.candidate_is_placeholder);
  }
}

/// A NedSystem whose calls block on a gate until released — the tool for
/// filling the queue deterministically and for holding work in flight
/// across a drain or shutdown.
class GatedSystem : public core::NedSystem {
 public:
  core::DisambiguationResult Disambiguate(
      const core::DisambiguationProblem& problem,
      const core::DisambiguateOptions& /*options*/) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++started_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return released_; });
    core::DisambiguationResult result;
    result.mentions.resize(problem.mentions.size());
    return result;
  }

  std::string name() const override { return "gated"; }

  /// Blocks until `n` calls entered Disambiguate.
  void WaitForStarts(int n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return started_ >= n; });
  }

  void Release() const {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    changed_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  mutable int started_ = 0;
  mutable bool released_ = false;
};

/// A NedSystem that honors the cooperative-cancellation contract: it spins
/// until its token trips, then returns a partial result flagged cancelled.
/// Only submit with a deadline, or it never returns.
class CooperativeSystem : public core::NedSystem {
 public:
  core::DisambiguationResult Disambiguate(
      const core::DisambiguationProblem& problem,
      const core::DisambiguateOptions& options) const override {
    core::DisambiguationResult result;
    result.mentions.resize(problem.mentions.size());
    if (options.cancel != nullptr) {
      while (!options.cancel->cancelled()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      result.cancelled = true;
    }
    return result;
  }
  std::string name() const override { return "cooperative"; }
};

core::DisambiguationProblem EmptyProblem() {
  static const std::vector<std::string> kNoTokens;
  core::DisambiguationProblem problem;
  problem.tokens = &kNoTokens;
  return problem;
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, AdmitsUntilCapacityThenShedsWithoutBlocking) {
  BoundedQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_FALSE(queue.TryPush(a).has_value());
  EXPECT_FALSE(queue.TryPush(b).has_value());
  EXPECT_EQ(queue.TryPush(c), AdmissionError::kQueueFull);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_FALSE(queue.TryPush(c).has_value());  // slot freed
}

TEST(BoundedQueueTest, CloseAdmissionDrainsRemainingItems) {
  BoundedQueue<int> queue(4);
  int a = 1, b = 2;
  ASSERT_FALSE(queue.TryPush(a).has_value());
  ASSERT_FALSE(queue.TryPush(b).has_value());
  queue.CloseAdmission();
  EXPECT_EQ(queue.TryPush(a), AdmissionError::kClosed);
  EXPECT_EQ(queue.Pop(), 1);  // queued work survives a drain-close
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);  // closed + empty: consumer exit
}

TEST(BoundedQueueTest, CloseAndFlushReturnsQueuedItems) {
  BoundedQueue<int> queue(4);
  int a = 1, b = 2;
  ASSERT_FALSE(queue.TryPush(a).has_value());
  ASSERT_FALSE(queue.TryPush(b).has_value());
  std::vector<int> flushed = queue.CloseAndFlush();
  EXPECT_EQ(flushed, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, StressManyProducersConsumersNoLostWakeup) {
  // Regression guard for the waiter-counted wakeup discipline: producers
  // notify only when a consumer is parked, so a lost-wakeup bug in that
  // bookkeeping shows up here as a consumer sleeping forever next to a
  // non-empty queue (the test then hangs deterministically instead of
  // flaking). The periodic producer stalls drain the queue so consumers
  // genuinely park and every wake path is exercised; the tiny capacity
  // exercises the full-queue shed/retry path at the same time.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kItemsPerProducer = 2000;
  BoundedQueue<int> queue(8);

  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::optional<int> item = queue.Pop();  // parks when empty
        if (!item.has_value()) return;          // closed + drained
        consumed.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(*item, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        int item = p * kItemsPerProducer + i;
        while (queue.TryPush(item).has_value()) {
          std::this_thread::yield();  // full: never blocks, so spin politely
        }
        if (i % 128 == 0) {
          // Let consumers drain and park so the next push must wake one.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (std::thread& thread : producers) thread.join();
  queue.CloseAdmission();  // wakes every parked consumer to exit
  for (std::thread& thread : consumers) thread.join();

  // Exactly-once delivery: the item values partition [0, total), so the
  // count and the sum together pin down the consumed multiset.
  const long long total = kProducers * kItemsPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, QuantilesLandInTheRightBuckets) {
  LatencyHistogram histogram;
  // 1000 fast requests at ~1ms plus a 9% tail at ~500ms: the median must
  // sit in the fast bucket and both tail quantiles in the slow bucket.
  for (int i = 0; i < 1000; ++i) histogram.Record(0.001);
  for (int i = 0; i < 100; ++i) histogram.Record(0.5);
  LatencySnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1100u);
  // Geometric buckets are ~12% wide; allow one bucket of slack.
  EXPECT_GT(snapshot.p50_seconds, 0.0005);
  EXPECT_LT(snapshot.p50_seconds, 0.002);
  EXPECT_GT(snapshot.p95_seconds, 0.25);
  EXPECT_LT(snapshot.p95_seconds, 1.0);
  EXPECT_LE(snapshot.p50_seconds, snapshot.p95_seconds);
  EXPECT_LE(snapshot.p95_seconds, snapshot.p99_seconds);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 0.5);
  EXPECT_NEAR(snapshot.mean_seconds, (1000 * 0.001 + 100 * 0.5) / 1100.0,
              1e-9);

  histogram.Clear();
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

TEST(LatencyHistogramTest, ExtremesClampIntoTerminalBuckets) {
  LatencyHistogram histogram;
  histogram.Record(0.0);      // below the 1us floor
  histogram.Record(-1.0);     // negative: clamped to 0
  histogram.Record(1e6);      // beyond the 1000s ceiling: overflow bucket
  LatencySnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_LE(snapshot.p50_seconds, 2e-6);
  EXPECT_GT(snapshot.p99_seconds, 100.0);
}

// ---------------------------------------------------------------------------
// Admission control and load shedding

TEST(NedServiceTest, ShedsWithStatusWhenQueueFull) {
  GatedSystem gated;
  NedServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  NedService service(kb::KbSnapshot::WrapUnowned(gated, "gated"), options);

  std::future<ServeResult> in_flight = service.Submit(EmptyProblem());
  gated.WaitForStarts(1);  // the lone worker is now held by the gate
  std::future<ServeResult> queued1 = service.Submit(EmptyProblem());
  std::future<ServeResult> queued2 = service.Submit(EmptyProblem());

  // Queue full: the fourth submission must resolve immediately (never
  // parked) with an explicit shed status.
  std::future<ServeResult> shed = service.Submit(EmptyProblem());
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ServeResult shed_result = shed.get();
  EXPECT_EQ(shed_result.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed_result.result.cancelled);
  EXPECT_EQ(shed_result.generation, 0u);  // never reached a worker

  NedServiceSnapshot mid = service.Snapshot();
  EXPECT_EQ(mid.metrics.submitted, 4u);
  EXPECT_EQ(mid.metrics.admitted, 3u);
  EXPECT_EQ(mid.metrics.rejected_queue_full, 1u);
  EXPECT_EQ(mid.metrics.queue_depth, 2u);
  EXPECT_EQ(mid.metrics.in_flight, 1u);

  gated.Release();
  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_TRUE(queued1.get().status.ok());
  EXPECT_TRUE(queued2.get().status.ok());
  service.Drain();

  NedServiceSnapshot done = service.Snapshot();
  EXPECT_EQ(done.metrics.completed, 3u);
  EXPECT_EQ(done.metrics.Resolved(), done.metrics.submitted);
  EXPECT_EQ(done.metrics.queue_depth, 0u);
  EXPECT_EQ(done.metrics.in_flight, 0u);
  EXPECT_EQ(done.metrics.total_latency.count, 3u);
}

// ---------------------------------------------------------------------------
// Deadlines

TEST(NedServiceTest, DeadlineExpiresWhileQueued) {
  GatedSystem gated;
  NedServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  NedService service(kb::KbSnapshot::WrapUnowned(gated, "gated"), options);

  std::future<ServeResult> blocker = service.Submit(EmptyProblem());
  gated.WaitForStarts(1);
  RequestOptions tight;
  tight.deadline_seconds = 0.005;
  std::future<ServeResult> victim = service.Submit(EmptyProblem(), tight);

  // Hold the worker well past the victim's deadline before releasing.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gated.Release();

  ServeResult expired = victim.get();
  EXPECT_EQ(expired.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(expired.result.cancelled);
  EXPECT_EQ(expired.service_seconds, 0.0);  // never ran
  EXPECT_GE(expired.queue_seconds, 0.005);
  EXPECT_TRUE(blocker.get().status.ok());
  service.Drain();
  EXPECT_EQ(service.Snapshot().metrics.expired_in_queue, 1u);
}

TEST(NedServiceTest, DeadlineCancelsCooperativelyMidFlight) {
  CooperativeSystem cooperative;
  NedServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  NedService service(
      kb::KbSnapshot::WrapUnowned(cooperative, "cooperative"), options);

  RequestOptions tight;
  tight.deadline_seconds = 0.02;
  ServeResult result = service.Submit(EmptyProblem(), tight).get();
  EXPECT_EQ(result.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.result.cancelled);
  EXPECT_GT(result.service_seconds, 0.0);  // it ran, then bailed out
  service.Drain();
  EXPECT_EQ(service.Snapshot().metrics.cancelled_in_flight, 1u);
  EXPECT_EQ(service.Snapshot().metrics.completed, 0u);
}

TEST(NedServiceTest, AidaHonorsCancellationTokenBetweenPhases) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  core::DisambiguationProblem problem = ToProblem(tw.corpus.front());
  core::CancellationToken token;
  token.Cancel();
  core::DisambiguateOptions tripped;
  tripped.cancel = &token;
  core::DisambiguationResult cancelled = aida.Disambiguate(problem, tripped);
  EXPECT_TRUE(cancelled.cancelled);
  ASSERT_EQ(cancelled.mentions.size(), problem.mentions.size());
  // The pre-phase check fires before candidate lookup: no graph work.
  EXPECT_EQ(cancelled.stats.relatedness_computations, 0u);
  EXPECT_EQ(cancelled.stats.graph_iterations, 0u);

  // An untripped token changes nothing — byte-identical to no token.
  core::CancellationToken open_token;
  core::DisambiguateOptions open_options;
  open_options.cancel = &open_token;
  core::DisambiguationResult with_token =
      aida.Disambiguate(problem, open_options);
  core::DisambiguationResult without = aida.Disambiguate(problem, {});
  EXPECT_FALSE(with_token.cancelled);
  ExpectSameResults(with_token, without);
}

// A relatedness measure that sleeps per evaluation — the knob that makes
// a mid-phase deadline trip observable without a big document.
class SleepyRelatedness : public core::RelatednessMeasure {
 public:
  std::string name() const override { return "sleepy"; }
  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    CountComparison();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return a.entity == b.entity ? 1.0 : 0.5;
  }
};

// A document of `num_mentions` mentions, each with `num_candidates`
// pre-resolved candidates over distinct entities, so every cross-mention
// entity pair qualifies for relatedness evaluation.
struct HeavyDoc {
  std::vector<std::string> tokens;
  std::vector<std::vector<core::Candidate>> candidate_storage;
  core::DisambiguationProblem problem;

  HeavyDoc(size_t num_mentions, size_t num_candidates) {
    auto dummy_model = std::make_shared<core::CandidateModel>();
    tokens.assign(num_mentions, "tok");
    problem.tokens = &tokens;
    candidate_storage.resize(num_mentions);
    for (size_t m = 0; m < num_mentions; ++m) {
      for (size_t c = 0; c < num_candidates; ++c) {
        core::Candidate cand;
        cand.entity = static_cast<kb::EntityId>(m * 100 + c);
        cand.prior = 1.0 / static_cast<double>(c + 1);
        cand.model = dummy_model;
        candidate_storage[m].push_back(std::move(cand));
      }
      core::ProblemMention mention;
      mention.surface = "tok";
      mention.begin_token = m;
      mention.end_token = m + 1;
      mention.candidates = candidate_storage[m];
      mention.candidates_resolved = true;
      problem.mentions.push_back(std::move(mention));
    }
  }
};

TEST(NedServiceTest, MidPhaseCancelReturnsDegradedLocalResultPromptly) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  SleepyRelatedness sleepy;
  core::AidaOptions aida_options;
  aida_options.use_prior_test = false;
  aida_options.use_coherence_test = false;  // keep every candidate in the graph
  core::Aida aida(&models, &sleepy, aida_options);

  // 12 mentions x 6 candidates -> ~2400 qualifying pairs at 2ms each:
  // ~5 s of relatedness if the graph build ran to completion. The token
  // trips 50ms in; the pair loop polls it every 32 pairs, so the call
  // must come back orders of magnitude sooner than the full build would
  // take.
  HeavyDoc doc(/*num_mentions=*/12, /*num_candidates=*/6);
  core::CancellationToken token(core::CancellationToken::Clock::now() +
                                std::chrono::milliseconds(50));
  core::DisambiguateOptions options;
  options.cancel = &token;

  util::Stopwatch watch;
  const core::DisambiguationResult result =
      aida.Disambiguate(doc.problem, options);
  const double elapsed = watch.ElapsedSeconds();

  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(elapsed, 2.5) << "mid-phase cancel was not observed promptly";
  // Degraded but well-formed: every mention still carries its local-only
  // choice over the full candidate list.
  ASSERT_EQ(result.mentions.size(), doc.problem.mentions.size());
  for (const core::MentionResult& mention : result.mentions) {
    EXPECT_EQ(mention.candidate_scores.size(), 6u);
    EXPECT_NE(mention.entity, kb::kNoEntity);
  }
}

TEST(NedServiceTest, CancelDuringLocalPhaseLeavesUnreachedMentionsEmpty) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  // One document's mentions repeated until local scoring (dictionary
  // lookups plus keyphrase similarity) takes far longer than the 20ms the
  // token allows, so it trips while the local phase is under way.
  const core::DisambiguationProblem base = ToProblem(tw.corpus.front());
  ASSERT_FALSE(base.mentions.empty());
  core::DisambiguationProblem problem;
  problem.tokens = base.tokens;
  while (problem.mentions.size() < 50000) {
    problem.mentions.insert(problem.mentions.end(), base.mentions.begin(),
                            base.mentions.end());
  }
  core::CancellationToken token(core::CancellationToken::Clock::now() +
                                std::chrono::milliseconds(20));
  core::DisambiguateOptions options;
  options.cancel = &token;
  const core::DisambiguationResult result = aida.Disambiguate(problem, options);

  EXPECT_TRUE(result.cancelled);
  ASSERT_EQ(result.mentions.size(), problem.mentions.size());
  // The local-only result of the mentions reached before the trip stays;
  // the rest stay empty, as after a pre-phase cancel.
  const core::DisambiguationResult full = aida.Disambiguate(base, {});
  size_t reached = 0;
  while (reached < result.mentions.size() &&
         !result.mentions[reached].candidate_entities.empty()) {
    ++reached;
  }
  EXPECT_LT(reached, result.mentions.size());
  for (size_t m = reached; m < result.mentions.size(); ++m) {
    ASSERT_TRUE(result.mentions[m].candidate_entities.empty()) << m;
    ASSERT_EQ(result.mentions[m].entity, kb::kNoEntity) << m;
  }
  for (size_t m = 0; m < reached; ++m) {
    ASSERT_EQ(result.mentions[m].candidate_entities,
              full.mentions[m % base.mentions.size()].candidate_entities)
        << m;
  }
}

TEST(NedServiceTest, AggregateStatsSkipsShedAndCancelledResults) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  core::DisambiguationProblem problem = ToProblem(tw.corpus.front());
  std::vector<core::DisambiguationResult> results;
  results.push_back(aida.Disambiguate(problem, {}));
  // A shed request: never ran, default-initialized stats.
  core::DisambiguationResult shed;
  shed.cancelled = true;
  results.push_back(shed);
  // A mid-flight cancellation: partial stats that must not pollute totals.
  core::CancellationToken token;
  token.Cancel();
  core::DisambiguateOptions tripped;
  tripped.cancel = &token;
  results.push_back(aida.Disambiguate(problem, tripped));
  ASSERT_TRUE(results.back().cancelled);

  core::DisambiguationStats total = core::AggregateStats(results);
  EXPECT_EQ(total.relatedness_computations,
            results.front().stats.relatedness_computations);
  EXPECT_DOUBLE_EQ(total.total_seconds, results.front().stats.total_seconds);
  EXPECT_DOUBLE_EQ(total.local_seconds, results.front().stats.local_seconds);
}

// ---------------------------------------------------------------------------
// Drain and shutdown

TEST(NedServiceTest, DrainCompletesQueuedAndInflightWork) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  NedServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 64;
  NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"), options);

  std::vector<core::DisambiguationProblem> problems;
  for (const corpus::Document& doc : tw.corpus) {
    problems.push_back(ToProblem(doc));
  }
  std::vector<std::future<ServeResult>> futures;
  for (const core::DisambiguationProblem& problem : problems) {
    futures.push_back(service.Submit(problem));
  }
  service.Drain();

  // Every admitted request completed despite the immediate drain.
  for (std::future<ServeResult>& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_TRUE(service.stopped());
  NedServiceSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.metrics.completed, problems.size());
  EXPECT_EQ(snapshot.metrics.in_flight, 0u);
  EXPECT_EQ(snapshot.metrics.queue_depth, 0u);

  // Post-drain submissions are rejected-with-status, not blocked.
  ServeResult late = service.Submit(problems.front()).get();
  EXPECT_EQ(late.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(service.Snapshot().metrics.rejected_closed, 1u);
}

TEST(NedServiceTest, ShutdownFailsQueuedAndCompletesInflight) {
  GatedSystem gated;
  NedServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  NedService service(kb::KbSnapshot::WrapUnowned(gated, "gated"), options);

  std::future<ServeResult> in_flight = service.Submit(EmptyProblem());
  gated.WaitForStarts(1);
  std::future<ServeResult> queued1 = service.Submit(EmptyProblem());
  std::future<ServeResult> queued2 = service.Submit(EmptyProblem());

  std::thread shutdown_thread([&] { service.Shutdown(); });
  // Shutdown flushes the queue first: both queued futures resolve with
  // kCancelled even while the in-flight request still blocks the worker.
  EXPECT_EQ(queued1.get().status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(queued2.get().status.code(), util::StatusCode::kCancelled);
  gated.Release();
  shutdown_thread.join();
  EXPECT_TRUE(in_flight.get().status.ok());

  NedServiceSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.metrics.cancelled_queued, 2u);
  EXPECT_EQ(snapshot.metrics.completed, 1u);
  EXPECT_EQ(snapshot.metrics.Resolved(), snapshot.metrics.submitted);
}

TEST(NedServiceTest, ShutdownWhileSubmittingResolvesEveryFuture) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  NedServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 2;
  NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"), options);

  std::vector<core::DisambiguationProblem> problems;
  for (const corpus::Document& doc : tw.corpus) {
    problems.push_back(ToProblem(doc));
  }

  std::vector<std::future<ServeResult>> futures;
  std::atomic<bool> go{false};
  std::thread submitter([&] {
    go.wait(false);
    for (int round = 0; round < 8; ++round) {
      for (const core::DisambiguationProblem& problem : problems) {
        futures.push_back(service.Submit(problem));
      }
    }
  });
  go.store(true);
  go.notify_all();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Shutdown();
  submitter.join();

  // No future hangs; each resolves to one of the documented outcomes.
  size_t ok = 0, rejected = 0;
  for (std::future<ServeResult>& future : futures) {
    ServeResult result = future.get();
    if (result.status.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(result.status.code() ==
                      util::StatusCode::kResourceExhausted ||
                  result.status.code() == util::StatusCode::kCancelled)
          << result.status.ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, futures.size());
  NedServiceSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.metrics.submitted, futures.size());
  EXPECT_EQ(snapshot.metrics.Resolved(), snapshot.metrics.submitted);
}

// ---------------------------------------------------------------------------
// Correctness and cache sharing

TEST(NedServiceTest, ServedResultsByteIdenticalToSerial) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  std::vector<core::DisambiguationProblem> problems;
  for (const corpus::Document& doc : tw.corpus) {
    problems.push_back(ToProblem(doc));
  }
  std::vector<core::DisambiguationResult> reference;
  for (const core::DisambiguationProblem& problem : problems) {
    reference.push_back(aida.Disambiguate(problem, {}));
  }

  // Small queue on purpose: DisambiguateAll must apply backpressure, not
  // shed its own requests.
  NedServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"), options);
  std::vector<ServeResult> served = service.DisambiguateAll(problems);

  ASSERT_EQ(served.size(), reference.size());
  for (size_t d = 0; d < served.size(); ++d) {
    ASSERT_TRUE(served[d].status.ok()) << served[d].status.ToString();
    // A fixed-snapshot service serves every request from generation 1.
    EXPECT_EQ(served[d].generation, 1u);
    ExpectSameResults(reference[d], served[d].result);
  }
  core::DisambiguationStats serial_total = core::AggregateStats(reference);
  core::DisambiguationStats served_total = AggregateCompletedStats(served);
  EXPECT_EQ(served_total.relatedness_computations,
            serial_total.relatedness_computations);
  EXPECT_EQ(served_total.graph_iterations, serial_total.graph_iterations);
}

// Under MW and under KORE-LSH-G, whose pair filter the per-thread entity
// table of every worker applies to the graph and the re-scoring.
TEST(NedServiceTest, SharedRelatednessCacheServesConcurrentRequests) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  const core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  const kore::KoreLshRelatedness lsh_g =
      kore::KoreLshRelatedness::Good(&tw.world.knowledge_base->keyphrases());

  std::vector<core::DisambiguationProblem> problems;
  for (const corpus::Document& doc : tw.corpus) {
    problems.push_back(ToProblem(doc));
  }
  for (const core::RelatednessMeasure* measure :
       std::initializer_list<const core::RelatednessMeasure*>{&mw, &lsh_g}) {
    SCOPED_TRACE(measure->name());
    core::Aida plain(&models, measure, core::AidaOptions());
    std::vector<core::DisambiguationResult> reference;
    for (const core::DisambiguationProblem& problem : problems) {
      reference.push_back(plain.Disambiguate(problem, {}));
    }

    core::RelatednessCache cache;
    core::CachedRelatednessMeasure cached(measure, &cache);
    core::Aida aida(&models, &cached, core::AidaOptions());
    NedServiceOptions options;
    options.num_threads = 4;
    options.queue_capacity = 16;
    options.shared_cache = &cache;
    NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"), options);
    std::vector<ServeResult> served = service.DisambiguateAll(problems);

    for (size_t d = 0; d < served.size(); ++d) {
      ASSERT_TRUE(served[d].status.ok());
      ExpectSameResults(reference[d], served[d].result);
    }
    NedServiceSnapshot snapshot = service.Snapshot();
    ASSERT_TRUE(snapshot.has_cache);
    // Entities recur across documents: concurrent requests must have
    // reused pairs through the shared cache.
    EXPECT_GT(snapshot.cache.hits, 0u);
    EXPECT_EQ(snapshot.cache.hits + snapshot.cache.misses,
              AggregateCompletedStats(served).relatedness_cache_hits +
                  AggregateCompletedStats(served).relatedness_computations);
  }
}

// The default snapshot serves Milne-Witten without a cache: four workers
// evaluate it directly, and their results equal serial uncached ones.
TEST(NedServiceTest, UncachedMilneWittenSnapshotServesConcurrentRequests) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  const core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  const core::Aida plain(&models, &mw, core::AidaOptions());
  std::vector<core::DisambiguationProblem> problems;
  std::vector<core::DisambiguationResult> reference;
  for (const corpus::Document& doc : tw.corpus) {
    problems.push_back(ToProblem(doc));
    reference.push_back(plain.Disambiguate(problems.back(), {}));
  }

  // The snapshot shares the test world's KB without owning it.
  auto snapshot = kb::KbSnapshot::Create(
      std::shared_ptr<const kb::KnowledgeBase>(
          std::shared_ptr<const void>(), tw.world.knowledge_base.get()),
      /*generation=*/1, "mw");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ((*snapshot)->relatedness_cache(), nullptr);
  NedServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 16;
  NedService service(*snapshot, options);
  std::vector<ServeResult> served = service.DisambiguateAll(problems);

  ASSERT_EQ(served.size(), reference.size());
  for (size_t d = 0; d < served.size(); ++d) {
    ASSERT_TRUE(served[d].status.ok()) << served[d].status.ToString();
    ExpectSameResults(reference[d], served[d].result);
  }
  EXPECT_FALSE(service.Snapshot().has_cache);
  const core::DisambiguationStats served_total =
      AggregateCompletedStats(served);
  EXPECT_EQ(served_total.relatedness_computations,
            core::AggregateStats(reference).relatedness_computations);
  EXPECT_EQ(served_total.relatedness_cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Apps over a service handle

TEST(NedServiceTest, IngestCorpusIndexesCompletedDocuments) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  NedServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 16;
  NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"), options);

  apps::EntitySearch search(tw.world.knowledge_base.get());
  apps::NewsAnalytics analytics;
  apps::StreamIngestReport report =
      apps::IngestCorpus(service, tw.corpus, &search, &analytics);

  EXPECT_EQ(report.documents, tw.corpus.size());
  EXPECT_EQ(report.indexed, tw.corpus.size());
  EXPECT_EQ(report.shed + report.deadline_expired + report.failed, 0u);
  EXPECT_EQ(search.document_count(), tw.corpus.size());
  EXPECT_EQ(analytics.document_count(), tw.corpus.size());
  EXPECT_GT(report.ned_stats.total_seconds, 0.0);
}

TEST(NedServiceTest, IngestCorpusSkipsExpiredDocuments) {
  const TestWorld& tw = TestWorld::Get();
  core::CandidateModelStore models(tw.world.knowledge_base.get());
  core::MilneWittenRelatedness mw(tw.world.knowledge_base.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  NedServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 4;
  NedService service(kb::KbSnapshot::WrapUnowned(aida, "aida"), options);

  apps::EntitySearch search(tw.world.knowledge_base.get());
  serve::RequestOptions hopeless;
  hopeless.deadline_seconds = 1e-9;  // expires before any worker can start
  apps::StreamIngestReport report =
      apps::IngestCorpus(service, tw.corpus, &search, nullptr, hopeless);

  EXPECT_EQ(report.indexed, 0u);
  EXPECT_EQ(report.deadline_expired, tw.corpus.size());
  EXPECT_EQ(search.document_count(), 0u);
}

// ---------------------------------------------------------------------------
// Worker exceptions become statuses, not dead workers

TEST(NedServiceTest, ThrowingSystemYieldsInternalStatusAndServiceSurvives) {
  class ThrowingSystem : public core::NedSystem {
   public:
    core::DisambiguationResult Disambiguate(
        const core::DisambiguationProblem& problem,
        const core::DisambiguateOptions& /*options*/) const override {
      if (problem.mentions.empty()) throw std::runtime_error("boom");
      core::DisambiguationResult result;
      result.mentions.resize(problem.mentions.size());
      return result;
    }
    std::string name() const override { return "throwing"; }
  };

  ThrowingSystem throwing;
  NedServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 8;
  NedService service(kb::KbSnapshot::WrapUnowned(throwing, "throwing"),
                     options);

  ServeResult failed = service.Submit(EmptyProblem()).get();
  EXPECT_EQ(failed.status.code(), util::StatusCode::kInternal);

  // The worker that caught the exception keeps serving.
  core::DisambiguationProblem with_mention = EmptyProblem();
  with_mention.mentions.emplace_back();
  ServeResult ok = service.Submit(with_mention).get();
  EXPECT_TRUE(ok.status.ok());
  service.Drain();
  NedServiceSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.metrics.failed, 1u);
  EXPECT_EQ(snapshot.metrics.completed, 1u);
}

}  // namespace
}  // namespace aida::serve
