// Worker-scaling regression guard for the serving layer. The PR this
// test rides with fixed a negative-scaling bug: shared-state contention
// (per-dequeue snapshot pins, global metrics atomics, hot cache shards,
// allocation churn) made a multi-worker NedService SLOWER than a single
// worker. These tests pin the sign of the curve — more workers must never
// again mean less throughput — without asserting linearity, which no
// ctest-tier machine can promise.
//
// Two inputs. FixedCostSystem burns a fixed arithmetic quantum per
// request, so its throughput depends only on how well workers overlap;
// real-machine noise is absorbed by a generous 0.8x floor. Aida behind
// one shared RelatednessCache over the TestWorld documents adds what a
// real request shares across workers (the cache shards, the KB, the
// allocator) under a 0.7x floor. On machines with fewer than four
// hardware threads there is nothing to overlap and the tests skip
// themselves.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/ned_system.h"
#include "core/relatedness.h"
#include "core/relatedness_cache.h"
#include "kb/snapshot_registry.h"
#include "serve/ned_service.h"
#include "test_world.h"
#include "util/stopwatch.h"

namespace aida::serve {
namespace {

/// Burns a deterministic ~quantum of CPU per call with an LCG spin — no
/// locks, no allocation, no shared state — so service throughput is a
/// pure function of worker overlap and serving-layer overhead.
class FixedCostSystem : public core::NedSystem {
 public:
  explicit FixedCostSystem(uint64_t spin_iterations)
      : spin_iterations_(spin_iterations) {}

  core::DisambiguationResult Disambiguate(
      const core::DisambiguationProblem& problem,
      const core::DisambiguateOptions& /*options*/) const override {
    uint64_t x = 0x243f6a8885a308d3ull;  // per-call; nothing shared
    for (uint64_t i = 0; i < spin_iterations_; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    core::DisambiguationResult result;
    result.mentions.resize(problem.mentions.size());
    // Publishing the spin's final state keeps the optimizer from deleting
    // the spin; an output that does not depend on `x` (say `x * 0.0`)
    // would let it. The value is the same on every call, so results stay
    // deterministic.
    result.stats.graph_iterations = x;
    return result;
  }
  std::string name() const override { return "fixed-cost"; }

 private:
  const uint64_t spin_iterations_;
};

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

/// Closed-loop QPS of `system` behind a NedService with `workers` worker
/// threads and 4x that many single-outstanding-request clients, each
/// cycling through `work` from its own offset.
double MeasureQps(const core::NedSystem& system,
                  const std::vector<core::DisambiguationProblem>& work,
                  size_t workers, double duration_seconds) {
  NedServiceOptions options;
  options.num_threads = workers;
  options.queue_capacity = 64;
  NedService service(kb::KbSnapshot::WrapUnowned(system, "scaling-test"),
                     options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  const size_t num_clients = 4 * workers;
  clients.reserve(num_clients);
  util::Stopwatch watch;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t next = c; !stop.load(std::memory_order_relaxed); ++next) {
        ServeResult response = service.Submit(work[next % work.size()]).get();
        if (response.status.ok()) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(duration_seconds));
  stop.store(true);
  for (std::thread& thread : clients) thread.join();
  const double elapsed = watch.ElapsedSeconds();
  service.Drain();
  return elapsed > 0.0 ? static_cast<double>(completed.load()) / elapsed : 0.0;
}

/// Warms up, then measures `system` at one worker and at four. The
/// regression this guards: ADDING workers LOSING throughput; the pre-fix
/// service sat far below any floor here (multi-worker QPS under half of
/// one worker).
void ExpectNoNegativeScaling(
    const core::NedSystem& system,
    const std::vector<core::DisambiguationProblem>& work, double floor) {
  constexpr size_t kMultiWorkers = 4;
  // Warm-up run absorbs thread-pool and allocator cold starts (and fills
  // a relatedness cache the system reads through).
  (void)MeasureQps(system, work, 1, /*duration_seconds=*/0.2);
  const double single_qps = MeasureQps(system, work, 1, 1.0);
  const double multi_qps = MeasureQps(system, work, kMultiWorkers, 1.0);

  ASSERT_GT(single_qps, 0.0);
  EXPECT_GE(multi_qps, floor * single_qps)
      << kMultiWorkers << " workers served " << multi_qps << " QPS vs "
      << single_qps << " QPS single-worker: negative scaling regression";
}

class ServeScalingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
      GTEST_SKIP() << "needs >= 4 hardware threads to measure scaling, have "
                   << hw;
    }
  }
};

TEST_F(ServeScalingTest, MultiWorkerThroughputNotBelowSingleWorker) {
  // ~200us per request: long enough that serving-layer overhead is a
  // small fraction, short enough for thousands of requests per second.
  FixedCostSystem system(/*spin_iterations=*/200'000);
  static const std::vector<std::string> kTokens = {"scaling"};
  core::DisambiguationProblem problem;
  problem.tokens = &kTokens;
  core::ProblemMention mention;
  mention.surface = "scaling";
  mention.begin_token = 0;
  mention.end_token = 1;
  problem.mentions.push_back(mention);
  ExpectNoNegativeScaling(system, {problem}, /*floor=*/0.8);
}

TEST_F(ServeScalingTest, CachedAidaThroughputNotBelowSingleWorker) {
  const ::aida::testing::TestWorld& world = ::aida::testing::TestWorld::Get();
  const kb::KnowledgeBase* kb = world.world.knowledge_base.get();
  core::CandidateModelStore models(kb);
  core::MilneWittenRelatedness mw(kb);
  core::RelatednessCache cache;
  core::CachedRelatednessMeasure cached_mw(&mw, &cache);
  core::Aida aida(&models, &cached_mw, core::AidaOptions());
  std::vector<core::DisambiguationProblem> work;
  for (const corpus::Document& doc : world.corpus) {
    work.push_back(ToProblem(doc));
  }
  ExpectNoNegativeScaling(aida, work, /*floor=*/0.7);
}

}  // namespace
}  // namespace aida::serve
