// Worker-scaling regression guard for the serving layer. The PR this
// test rides with fixed a negative-scaling bug: shared-state contention
// (per-dequeue snapshot pins, global metrics atomics, hot cache shards,
// allocation churn) made a multi-worker NedService SLOWER than a single
// worker. This test pins the sign of the curve — more workers must never
// again mean less throughput — without asserting linearity, which no
// ctest-tier machine can promise.
//
// The served system burns a fixed arithmetic quantum per request, so
// throughput depends only on how well workers overlap; real-machine
// noise is absorbed by the generous 0.8x floor. On machines with fewer
// than four hardware threads there is nothing to overlap and the test
// skips itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/ned_system.h"
#include "kb/snapshot_registry.h"
#include "serve/ned_service.h"
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

/// Closed-loop QPS of `system` behind a NedService with `workers` worker
/// threads and 4x that many single-outstanding-request clients.
double MeasureQps(const core::NedSystem& system, size_t workers,
                  double duration_seconds) {
  NedServiceOptions options;
  options.num_threads = workers;
  options.queue_capacity = 64;
  NedService service(kb::KbSnapshot::WrapUnowned(system, "scaling-test"),
                     options);

  static const std::vector<std::string> kTokens = {"scaling"};
  core::DisambiguationProblem problem;
  problem.tokens = &kTokens;
  core::ProblemMention mention;
  mention.surface = "scaling";
  mention.begin_token = 0;
  mention.end_token = 1;
  problem.mentions.push_back(mention);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  const size_t num_clients = 4 * workers;
  clients.reserve(num_clients);
  util::Stopwatch watch;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ServeResult response = service.Submit(problem).get();
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

TEST(ServeScalingTest, MultiWorkerThroughputNotBelowSingleWorker) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads to measure scaling, have "
                 << hw;
  }

  // ~200us per request: long enough that serving-layer overhead is a
  // small fraction, short enough for thousands of requests per second.
  FixedCostSystem system(/*spin_iterations=*/200'000);

  const size_t multi = std::min<size_t>(4, hw);
  // Warm-up run absorbs thread-pool and allocator cold starts.
  (void)MeasureQps(system, 1, /*duration_seconds=*/0.2);
  const double single_qps = MeasureQps(system, 1, /*duration_seconds=*/1.0);
  const double multi_qps = MeasureQps(system, multi, /*duration_seconds=*/1.0);

  ASSERT_GT(single_qps, 0.0);
  // The regression this guards: ADDING workers LOSING throughput. 0.8x
  // tolerates scheduler noise on busy CI machines; the pre-fix service
  // sat far below this line (multi-worker QPS under half of one worker).
  EXPECT_GE(multi_qps, 0.8 * single_qps)
      << multi << " workers served " << multi_qps << " QPS vs " << single_qps
      << " QPS single-worker: negative scaling regression";
}

}  // namespace
}  // namespace aida::serve
