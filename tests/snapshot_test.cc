// The versioned-snapshot lifecycle: KbSnapshot construction and
// validation, RCU-style publication through SnapshotRegistry (reload,
// rollback on failure, retiring-generation tracking), and the serving
// guarantee that an in-flight request keeps its pinned generation alive
// across reloads. Runs under TSan: readers pin via one atomic
// shared_ptr load while writers publish concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kb/flat/flat_snapshot.h"
#include "kb/kb_builder.h"
#include "kb/snapshot_registry.h"
#include "serve/ned_service.h"
#include "test_world.h"

namespace aida::kb {
namespace {

using ::aida::testing::TestWorld;

/// A fresh, owned copy of the TestWorld KB via a flat round trip (the
/// singleton's KB cannot be shared into a snapshot); also passed to
/// ReloadFromBuilder as the callback.
util::StatusOr<std::unique_ptr<KnowledgeBase>> FlatCopyOfTestKb() {
  return flat::LoadFlatSnapshotFromString(
      flat::SerializeFlatSnapshot(*TestWorld::Get().world.knowledge_base));
}

std::shared_ptr<const KnowledgeBase> CloneTestKb() {
  auto restored = FlatCopyOfTestKb();
  AIDA_CHECK(restored.ok());
  return std::shared_ptr<const KnowledgeBase>(std::move(restored.value()));
}

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

TEST(ValidateKnowledgeBaseTest, RejectsNullAndEmpty) {
  EXPECT_FALSE(ValidateKnowledgeBase(nullptr).ok());

  KbBuilder empty;
  std::unique_ptr<KnowledgeBase> no_entities = std::move(empty).Build();
  EXPECT_FALSE(ValidateKnowledgeBase(no_entities.get()).ok());

  KbBuilder nameless;
  nameless.AddEntity("Orphan");
  std::unique_ptr<KnowledgeBase> no_names = std::move(nameless).Build();
  EXPECT_FALSE(ValidateKnowledgeBase(no_names.get()).ok());

  std::shared_ptr<const KnowledgeBase> real = CloneTestKb();
  EXPECT_TRUE(ValidateKnowledgeBase(real.get()).ok());
}

TEST(KbSnapshotTest, CreateBuildsFullServingStack) {
  std::shared_ptr<const KnowledgeBase> kb = CloneTestKb();
  auto snapshot = KbSnapshot::Create(kb, /*generation=*/7, "unit-test");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const KbSnapshot& snap = **snapshot;
  EXPECT_EQ(snap.generation(), 7u);
  EXPECT_EQ(snap.source(), "unit-test");
  ASSERT_TRUE(snap.has_knowledge_base());
  EXPECT_EQ(&snap.knowledge_base(), kb.get());
  EXPECT_NE(snap.models(), nullptr);
  EXPECT_NE(snap.relatedness_cache(), nullptr);

  // The bundled system is servable end to end.
  core::DisambiguationProblem problem =
      ToProblem(TestWorld::Get().corpus.front());
  core::DisambiguationResult result = snap.system().Disambiguate(problem, {});
  EXPECT_EQ(result.mentions.size(), problem.mentions.size());
}

TEST(KbSnapshotTest, CreateRejectsInvalidKb) {
  KbBuilder empty;
  std::shared_ptr<const KnowledgeBase> kb = std::move(empty).Build();
  auto snapshot = KbSnapshot::Create(kb, 1, "bad");
  EXPECT_FALSE(snapshot.ok());
}

TEST(KbSnapshotTest, WrapUnownedServesExternalSystem) {
  std::shared_ptr<const KnowledgeBase> kb = CloneTestKb();
  core::CandidateModelStore models(kb.get());
  core::MilneWittenRelatedness mw(kb.get());
  core::Aida aida(&models, &mw, core::AidaOptions());

  std::shared_ptr<const KbSnapshot> snapshot =
      KbSnapshot::WrapUnowned(aida, "wrapped");
  EXPECT_FALSE(snapshot->has_knowledge_base());
  EXPECT_EQ(snapshot->models(), nullptr);
  EXPECT_EQ(snapshot->generation(), 1u);
  EXPECT_EQ(&snapshot->system(), &aida);
}

TEST(SnapshotRegistryTest, PublishAndReloadBumpGenerations) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.Stats().active_generation, 0u);

  auto first = registry.Publish(CloneTestKb(), "initial");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->generation(), 1u);
  EXPECT_EQ(registry.Current(), *first);

  auto second = registry.ReloadFromBuilder(FlatCopyOfTestKb, "builder:regrow");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*second)->generation(), 2u);
  EXPECT_EQ((*second)->source(), "builder:regrow");
  EXPECT_EQ(registry.Current(), *second);

  SnapshotRegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.active_generation, 2u);
  EXPECT_EQ(stats.publishes, 2u);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.reload_failures, 0u);
  EXPECT_GT(stats.last_reload_seconds, 0.0);
  EXPECT_GE(stats.total_reload_seconds, stats.last_reload_seconds);
}

TEST(SnapshotRegistryTest, ReloadFromFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/snapshot_reload.fkb";
  std::shared_ptr<const KnowledgeBase> kb = CloneTestKb();
  ASSERT_TRUE(flat::SaveFlatSnapshot(*kb, path).ok());

  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Publish(kb, "initial").ok());
  auto reloaded = registry.ReloadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->generation(), 2u);
  EXPECT_TRUE((*reloaded)->has_knowledge_base());
  EXPECT_EQ((*reloaded)->knowledge_base().entity_count(), kb->entity_count());
  std::remove(path.c_str());
}

TEST(SnapshotRegistryTest, FailedReloadRollsBackAndCounts) {
  SnapshotRegistry registry;
  auto first = registry.Publish(CloneTestKb(), "initial");
  ASSERT_TRUE(first.ok());

  // Missing file: load error before anything is built.
  EXPECT_FALSE(
      registry.ReloadFromFile("/nonexistent/definitely_missing.kb").ok());
  // Builder error: the callback itself fails.
  EXPECT_FALSE(registry
                   .ReloadFromBuilder(
                       [] {
                         return util::StatusOr<
                             std::unique_ptr<KnowledgeBase>>(
                             util::Status::Internal("harvest failed"));
                       },
                       "builder:broken")
                   .ok());
  // Validation error: the builder produced an unservable KB.
  EXPECT_FALSE(registry
                   .ReloadFromBuilder(
                       [] {
                         KbBuilder empty;
                         return util::StatusOr<
                             std::unique_ptr<KnowledgeBase>>(
                             std::move(empty).Build());
                       },
                       "builder:empty")
                   .ok());

  // Every failure left generation 1 serving, untouched.
  EXPECT_EQ(registry.Current(), *first);
  SnapshotRegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.active_generation, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.reload_failures, 3u);
}

TEST(SnapshotRegistryTest, ConcurrentReadersAndReloadsAreClean) {
  // TSan coverage of the RCU pattern itself: four reader threads pin and
  // use Current() in a tight loop while the main thread republishes.
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneTestKb(), "initial").ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed_max{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const KbSnapshot> snap = registry.Current();
        ASSERT_NE(snap, nullptr);
        // Touch the stack to make a use-after-free visible to the
        // sanitizers if publication were broken.
        ASSERT_GT(snap->knowledge_base().entity_count(), 0u);
        uint64_t generation = snap->generation();
        uint64_t seen = observed_max.load(std::memory_order_relaxed);
        while (generation > seen &&
               !observed_max.compare_exchange_weak(
                   seen, generation, std::memory_order_relaxed)) {
        }
      }
    });
  }
  for (int reload = 0; reload < 3; ++reload) {
    auto published = registry.ReloadFromBuilder(
        FlatCopyOfTestKb, "builder:round-" + std::to_string(reload));
    ASSERT_TRUE(published.ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(registry.Stats().active_generation, 4u);
  EXPECT_GE(observed_max.load(), 1u);
}

/// Blocks inside Disambiguate until released; lets the pinning test hold
/// a request in flight across reloads.
class Gate {
 public:
  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_; });
  }
  void Enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable open_cv_;
  bool entered_ = false;
  bool open_ = false;
};

class GatedSystem : public core::NedSystem {
 public:
  explicit GatedSystem(Gate* gate) : gate_(gate) {}
  core::DisambiguationResult Disambiguate(
      const core::DisambiguationProblem& problem,
      const core::DisambiguateOptions&) const override {
    if (gate_ != nullptr) gate_->Enter();
    core::DisambiguationResult result;
    result.mentions.resize(problem.mentions.size());
    return result;
  }
  std::string name() const override { return "gated"; }

 private:
  Gate* gate_;
};

TEST(SnapshotRegistryTest, InFlightRequestOutlivesTwoReloads) {
  // The zero-downtime guarantee in miniature: a slow request pins
  // generation 1 while two reloads retire it; the generation's memory
  // survives until the request completes, and the response carries the
  // generation it actually ran on.
  Gate gate;
  SnapshotOptions options;
  int built = 0;
  options.system_factory = [&](const core::CandidateModelStore*,
                               const core::RelatednessMeasure*) {
    // Only the first generation's system blocks; reloads build free
    // running systems so the swap itself never waits on the gate.
    return std::make_unique<GatedSystem>(++built == 1 ? &gate : nullptr);
  };
  auto registry = std::make_shared<SnapshotRegistry>(options);
  auto first = registry->Publish(CloneTestKb(), "gen1");
  ASSERT_TRUE(first.ok());
  std::weak_ptr<const KbSnapshot> pinned = *first;

  serve::NedServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.queue_capacity = 4;
  serve::NedService service(registry, service_options);

  core::DisambiguationProblem problem =
      ToProblem(TestWorld::Get().corpus.front());
  std::future<serve::ServeResult> slow = service.Submit(problem);
  gate.WaitUntilEntered();  // the worker is inside generation 1

  ASSERT_TRUE(registry->ReloadFromBuilder(FlatCopyOfTestKb, "gen2").ok());
  ASSERT_TRUE(registry->ReloadFromBuilder(FlatCopyOfTestKb, "gen3").ok());

  // Generation 1 is no longer current but must still be alive: the
  // in-flight request pins it.
  SnapshotRegistryStats stats = registry->Stats();
  EXPECT_EQ(stats.active_generation, 3u);
  ASSERT_FALSE(pinned.expired());
  EXPECT_EQ(std::vector<uint64_t>{1}, stats.retiring_generations);

  // Release it; drop our strong handle; the request completes on
  // generation 1 and the retired snapshot dies with it.
  first = util::Status::Internal("handle dropped");
  gate.Open();
  serve::ServeResult result = slow.get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.generation, 1u);

  service.Drain();  // joins the worker, releasing its pin
  EXPECT_TRUE(pinned.expired());
  EXPECT_TRUE(registry->Stats().retiring_generations.empty());

  // Fresh traffic lands on the new generation.
  std::future<serve::ServeResult> fresh = service.Submit(problem);
  serve::ServeResult fresh_result = fresh.get();
  // Service was drained above, so this submit is rejected — construct a
  // second service to prove the registry still serves generation 3.
  EXPECT_FALSE(fresh_result.status.ok());
  serve::NedService fresh_service(registry, service_options);
  serve::ServeResult gen3 = fresh_service.Submit(problem).get();
  ASSERT_TRUE(gen3.status.ok());
  EXPECT_EQ(gen3.generation, 3u);
}

TEST(SnapshotRegistryTest, ServicePicksUpNewGenerationPerDequeue) {
  auto registry = std::make_shared<SnapshotRegistry>();
  ASSERT_TRUE(registry->Publish(CloneTestKb(), "gen1").ok());

  serve::NedServiceOptions options;
  options.num_threads = 1;
  serve::NedService service(registry, options);

  core::DisambiguationProblem problem =
      ToProblem(TestWorld::Get().corpus.front());
  serve::ServeResult before = service.Submit(problem).get();
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.generation, 1u);

  ASSERT_TRUE(registry->ReloadFromBuilder(FlatCopyOfTestKb, "gen2").ok());
  serve::ServeResult after = service.Submit(problem).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.generation, 2u);

  // Identical KB content → identical annotation across generations, and
  // the per-generation metrics kept separate books.
  ASSERT_EQ(before.result.mentions.size(), after.result.mentions.size());
  for (size_t m = 0; m < before.result.mentions.size(); ++m) {
    EXPECT_EQ(before.result.mentions[m].entity,
              after.result.mentions[m].entity);
  }
  serve::NedServiceSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.active_generation, 2u);
  ASSERT_TRUE(snapshot.has_registry);
  EXPECT_EQ(snapshot.registry.publishes, 2u);
  ASSERT_EQ(snapshot.metrics.generations.size(), 2u);
  EXPECT_EQ(snapshot.metrics.generations[0].generation, 1u);
  EXPECT_EQ(snapshot.metrics.generations[0].completed, 1u);
  EXPECT_EQ(snapshot.metrics.generations[1].generation, 2u);
  EXPECT_EQ(snapshot.metrics.generations[1].completed, 1u);
}

bool SameAnnotation(const core::DisambiguationResult& a,
                    const core::DisambiguationResult& b) {
  if (a.mentions.size() != b.mentions.size()) return false;
  for (size_t m = 0; m < a.mentions.size(); ++m) {
    if (a.mentions[m].entity != b.mentions[m].entity ||
        a.mentions[m].score != b.mentions[m].score ||
        a.mentions[m].candidate_scores != b.mentions[m].candidate_scores) {
      return false;
    }
  }
  return true;
}

TEST(SnapshotRegistryTest, ReloadFromFileUnderLoadServesEachGenerationExactly) {
  // A hot reload from a flat file while four closed-loop clients keep two
  // workers busy. Nothing may be shed, expire or fail across the swap,
  // and every response must equal, bit for bit, a serial Disambiguate on
  // the snapshot of the generation it reports.
  const std::string path = ::testing::TempDir() + "/snapshot_under_load.fkb";
  ASSERT_TRUE(
      flat::SaveFlatSnapshot(*TestWorld::Get().world.knowledge_base, path)
          .ok());
  auto registry = std::make_shared<SnapshotRegistry>();
  auto first = registry->Publish(CloneTestKb(), "gen1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  std::vector<core::DisambiguationProblem> work;
  for (const corpus::Document& doc : TestWorld::Get().corpus) {
    work.push_back(ToProblem(doc));
  }
  serve::NedServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 256;
  serve::NedService service(registry, options);

  struct Recorded {
    size_t doc;
    serve::ServeResult response;
  };
  constexpr size_t kClients = 4;
  constexpr uint64_t kEnoughPerGeneration = 50;
  std::mutex mutex;
  std::condition_variable progress;
  std::map<uint64_t, uint64_t> completed_by_generation;  // under `mutex`
  bool stop = false;                                     // under `mutex`
  std::vector<std::vector<Recorded>> recorded(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t next = c;; ++next) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (stop) return;
        }
        const size_t doc = next % work.size();
        serve::ServeResult response = service.Submit(work[doc]).get();
        if (response.status.ok()) {
          std::lock_guard<std::mutex> lock(mutex);
          ++completed_by_generation[response.generation];
          progress.notify_all();
        }
        recorded[c].push_back({doc, std::move(response)});
      }
    });
  }
  // A generous bound: the wait ends as soon as the count is reached.
  auto wait_for_completions = [&](uint64_t generation) {
    std::unique_lock<std::mutex> lock(mutex);
    return progress.wait_for(lock, std::chrono::seconds(120), [&] {
      return completed_by_generation[generation] >= kEnoughPerGeneration;
    });
  };

  const bool served_first = wait_for_completions(1);
  util::StatusOr<std::shared_ptr<const KbSnapshot>> second =
      util::Status::Internal("no reload: generation 1 never served");
  if (served_first) second = registry->ReloadFromFile(path);
  const bool served_second = second.ok() && wait_for_completions(2);
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop = true;
  }
  for (std::thread& client : clients) client.join();
  service.Drain();
  std::remove(path.c_str());

  ASSERT_TRUE(served_first);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ((*second)->generation(), 2u);
  ASSERT_TRUE(served_second);

  // Serial gold per generation, on the very snapshot that served it.
  std::map<uint64_t, std::vector<core::DisambiguationResult>> gold;
  for (const std::shared_ptr<const KbSnapshot>& snapshot :
       {*first, *second}) {
    for (const core::DisambiguationProblem& problem : work) {
      gold[snapshot->generation()].push_back(
          snapshot->system().Disambiguate(problem, {}));
    }
  }
  size_t not_served = 0;
  size_t mismatches = 0;
  for (const std::vector<Recorded>& responses : recorded) {
    for (const Recorded& r : responses) {
      if (!r.response.status.ok()) {
        ++not_served;
        continue;
      }
      auto it = gold.find(r.response.generation);
      if (it == gold.end() ||
          !SameAnnotation(r.response.result, it->second[r.doc])) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(not_served, 0u) << "responses shed, expired or failed";
  EXPECT_EQ(mismatches, 0u)
      << "responses differing from their generation's serial Disambiguate";
}

}  // namespace
}  // namespace aida::kb
