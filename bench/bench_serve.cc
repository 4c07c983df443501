// Closed-loop load test of the aida::serve online serving layer (the
// architecture face of Section 7's efficiency story): C client threads,
// each with one outstanding request, hammer a NedService over a synthetic
// corpus. For each (workers, queue bound, clients) configuration we report
// sustained QPS and p50/p95/p99 total latency from the service's own
// streaming histograms, plus shed/expired counts. One deliberately
// undersized queue bound demonstrates explicit load shedding; every
// completed response is checked byte-identical to serial Aida output.
//
// The final scenario exercises hot reload: a registry-backed service takes
// traffic while the KB is swapped via SnapshotRegistry::ReloadFromFile.
// The run must complete with zero shed/failed requests, every response
// byte-identical to a serial run against the generation it carries, and a
// p99 within 2x of the identical run without the reload.
//
// Results are also written to BENCH_serve.json at the repo root for
// machine consumption. The worker-sweep configurations double as a
// QPS-vs-workers scaling curve ("scaling" in the JSON): per-worker
// snapshot pinning, per-worker metrics slots and the sharded relatedness
// cache are exactly the changes that turned this curve from negative
// (more workers, less QPS) into the expected monotone one.
//
// BENCH_SERVE_SMOKE=1 selects the CI smoke shape: a smaller corpus, two
// sweep points ({1, hardware} workers), no reload scenario, and a
// nonzero exit when multi-worker QPS regresses below 0.7x single-worker
// (skipped on single-core machines, where there is nothing to scale).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/aida.h"
#include "core/relatedness_cache.h"
#include "kb/kb_serialization.h"
#include "kb/snapshot_registry.h"
#include "serve/ned_service.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"
#include "util/alloc_probe.h"

using namespace aida;

namespace {

struct RunConfig {
  std::string label;
  size_t workers;
  size_t queue;
  size_t clients;
  double deadline_seconds;  // 0 = none
  double duration_seconds;
  /// Part of the QPS-vs-workers sweep (same queue/pressure shape, only
  /// the worker count varies) — these rows feed the "scaling" JSON curve.
  bool in_scaling_curve = false;
};

struct RunOutcome {
  size_t completed = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t mismatches = 0;
  double elapsed_seconds = 0.0;
  serve::NedServiceSnapshot snapshot;
};

bool SameAnnotation(const core::DisambiguationResult& a,
                    const core::DisambiguationResult& b) {
  if (a.mentions.size() != b.mentions.size()) return false;
  for (size_t m = 0; m < a.mentions.size(); ++m) {
    if (a.mentions[m].entity != b.mentions[m].entity) return false;
    if (a.mentions[m].score != b.mentions[m].score) return false;
    if (a.mentions[m].candidate_scores != b.mentions[m].candidate_scores) {
      return false;
    }
  }
  return true;
}

RunOutcome RunClosedLoop(const core::NedSystem& system,
                         const core::RelatednessCache* shared_cache,
                         const std::vector<core::DisambiguationProblem>& work,
                         const std::vector<core::DisambiguationResult>& gold,
                         const RunConfig& config) {
  serve::NedServiceOptions options;
  options.num_threads = config.workers;
  options.queue_capacity = config.queue;
  options.default_deadline_seconds = config.deadline_seconds;
  options.shared_cache = shared_cache;
  serve::NedService service(kb::KbSnapshot::WrapUnowned(system, "bench-fixed"),
                            options);

  std::atomic<size_t> completed{0}, shed{0}, expired{0}, mismatches{0};
  std::atomic<bool> stop{false};

  auto client = [&](size_t client_id) {
    size_t next = client_id;  // stagger document order across clients
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t doc = next++ % work.size();
      serve::ServeResult response = service.Submit(work[doc]).get();
      if (response.status.ok()) {
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!SameAnnotation(response.result, gold[doc])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (response.status.code() ==
                 util::StatusCode::kResourceExhausted) {
        shed.fetch_add(1, std::memory_order_relaxed);
        // A well-behaved client backs off briefly after being shed.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else if (response.status.code() ==
                 util::StatusCode::kDeadlineExceeded) {
        expired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  util::Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) clients.emplace_back(client, c);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(config.duration_seconds));
  stop.store(true);
  for (std::thread& thread : clients) thread.join();

  RunOutcome outcome;
  outcome.elapsed_seconds = watch.ElapsedSeconds();
  service.Drain();
  outcome.snapshot = service.Snapshot();
  outcome.completed = completed.load();
  outcome.shed = shed.load();
  outcome.expired = expired.load();
  outcome.mismatches = mismatches.load();
  return outcome;
}

/// One recorded response of the reload scenario: which document it was,
/// and the full ServeResult (generation tag included) for post-hoc
/// verification against that generation's serial gold.
struct RecordedResponse {
  size_t doc = 0;
  serve::ServeResult result;
};

struct ReloadOutcome {
  size_t completed = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  std::map<uint64_t, size_t> completed_by_generation;
  double elapsed_seconds = 0.0;
  /// Build+validate+swap duration of the reload (0 when none happened).
  double reload_pause_seconds = 0.0;
  bool reload_ok = true;
  serve::NedServiceSnapshot snapshot;
};

/// Drives closed-loop traffic against a registry-backed service; when
/// `reload_path` is non-empty, swaps the KB mid-run via ReloadFromFile.
/// Every completed response is verified byte-identical to a serial run
/// against the snapshot of the generation it reports.
ReloadOutcome RunReloadUnderLoad(
    const std::shared_ptr<kb::SnapshotRegistry>& registry,
    const std::string& reload_path,
    const std::vector<core::DisambiguationProblem>& work,
    const RunConfig& config) {
  serve::NedServiceOptions options;
  options.num_threads = config.workers;
  options.queue_capacity = config.queue;
  options.default_deadline_seconds = config.deadline_seconds;
  serve::NedService service(registry, options);

  // Pin the starting generation so its gold can be computed after the
  // run even if the registry has moved on.
  std::shared_ptr<const kb::KbSnapshot> before = registry->Current();

  std::atomic<bool> stop{false};
  std::vector<std::vector<RecordedResponse>> per_client(config.clients);
  auto client = [&](size_t client_id) {
    size_t next = client_id;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t doc = next++ % work.size();
      serve::ServeResult response = service.Submit(work[doc]).get();
      per_client[client_id].push_back({doc, std::move(response)});
    }
  };

  ReloadOutcome outcome;
  util::Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) clients.emplace_back(client, c);

  std::shared_ptr<const kb::KbSnapshot> after;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(0.4 * config.duration_seconds));
  if (!reload_path.empty()) {
    util::StatusOr<std::shared_ptr<const kb::KbSnapshot>> reloaded =
        registry->ReloadFromFile(reload_path);
    outcome.reload_ok = reloaded.ok();
    if (reloaded.ok()) after = reloaded.value();
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(0.6 * config.duration_seconds));
  stop.store(true);
  for (std::thread& thread : clients) thread.join();

  outcome.elapsed_seconds = watch.ElapsedSeconds();
  service.Drain();
  outcome.snapshot = service.Snapshot();
  if (!reload_path.empty()) {
    outcome.reload_pause_seconds =
        outcome.snapshot.registry.last_reload_seconds;
  }

  // Serial gold per generation, against the exact snapshot that served it.
  std::map<uint64_t, const kb::KbSnapshot*> snapshots;
  snapshots[before->generation()] = before.get();
  if (after != nullptr) snapshots[after->generation()] = after.get();
  std::map<uint64_t, std::vector<core::DisambiguationResult>> gold;
  for (const auto& [generation, snapshot] : snapshots) {
    std::vector<core::DisambiguationResult>& results = gold[generation];
    results.reserve(work.size());
    for (const core::DisambiguationProblem& problem : work) {
      results.push_back(snapshot->system().Disambiguate(problem, {}));
    }
  }

  for (const std::vector<RecordedResponse>& responses : per_client) {
    for (const RecordedResponse& response : responses) {
      const serve::ServeResult& r = response.result;
      if (r.status.ok()) {
        ++outcome.completed;
        ++outcome.completed_by_generation[r.generation];
        auto it = gold.find(r.generation);
        if (it == gold.end() ||
            !SameAnnotation(r.result, it->second[response.doc])) {
          ++outcome.mismatches;
        }
      } else if (r.status.code() == util::StatusCode::kResourceExhausted) {
        ++outcome.shed;
      } else if (r.status.code() == util::StatusCode::kDeadlineExceeded) {
        ++outcome.expired;
      } else {
        ++outcome.failed;
      }
    }
  }
  return outcome;
}

double Qps(size_t completed, double elapsed) {
  return elapsed > 0.0 ? completed / elapsed : 0.0;
}

/// Steady-state allocator traffic of one warm cached request, measured
/// with the global-new interposer (util/alloc_probe.h). The measuring
/// thread runs exactly what a warmed service worker runs per dequeue —
/// Disambiguate against a fully warmed relatedness cache — so the number
/// is the residual malloc churn of the request path itself (result
/// assembly, graph scratch), independent of client/queue plumbing.
struct AllocProbeReport {
  bool available = false;  // false under sanitizers / opt-out builds
  size_t requests = 0;
  double allocs_per_request = 0.0;
  double frees_per_request = 0.0;
  double bytes_per_request = 0.0;
};

/// The committed steady-state bound for the smoke gate, in allocations
/// per warm cached request on the smoke corpus. The paired ctest
/// regression (AllocProbeTest) pins the micro-paths (dictionary lookup,
/// cache hit, histogram record) at exactly zero; this
/// end-to-end bound additionally covers per-request result assembly and
/// per-document graph scratch, which scale with document size and so
/// cannot be zero. Raising it requires a comment explaining which new
/// allocation is justified.
constexpr double kSmokeAllocsPerRequestBound = 6000.0;

AllocProbeReport MeasureAllocsPerRequest(
    const core::NedSystem& system,
    const std::vector<core::DisambiguationProblem>& work) {
  AllocProbeReport report;
  report.available = util::AllocProbeAvailable();
  if (!report.available || work.empty()) return report;
  // Two warmup passes populate every lazily-built structure (relatedness
  // cache entries for these exact documents, thread-local scratch) so the
  // measured pass sees only steady-state traffic.
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::DisambiguationProblem& problem : work) {
      (void)system.Disambiguate(problem, {});
    }
  }
  util::ScopedAllocationCount probe;
  for (const core::DisambiguationProblem& problem : work) {
    (void)system.Disambiguate(problem, {});
  }
  report.requests = work.size();
  const double n = static_cast<double>(work.size());
  report.allocs_per_request = static_cast<double>(probe.allocations()) / n;
  report.frees_per_request = static_cast<double>(probe.deallocations()) / n;
  report.bytes_per_request = static_cast<double>(probe.bytes_allocated()) / n;
  return report;
}

/// One point of the QPS-vs-workers curve.
struct ScalingPoint {
  size_t workers = 0;
  double qps = 0.0;
  double speedup = 0.0;  // vs the 1-worker point of the same sweep
};

std::string JsonOutputPath() { return bench::JsonOutputPath("BENCH_serve.json"); }

/// `steady`/`reload` may be null (smoke mode skips the reload scenario);
/// the JSON then carries "reload_under_load": null.
void WriteJson(const std::vector<std::pair<RunConfig, RunOutcome>>& runs,
               const std::vector<ScalingPoint>& scaling,
               const AllocProbeReport& alloc,
               const RunConfig* reload_config, const ReloadOutcome* steady,
               const ReloadOutcome* reload) {
  const std::string path = JsonOutputPath();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"scenarios\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunConfig& config = runs[i].first;
    const RunOutcome& outcome = runs[i].second;
    const serve::ServiceMetricsSnapshot& m = outcome.snapshot.metrics;
    std::fprintf(
        out,
        "    {\"label\": \"%s\", \"workers\": %zu, \"qps\": %.1f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"shed\": %zu, \"expired\": %zu, \"mismatches\": %zu}%s\n",
        config.label.c_str(), config.workers,
        Qps(outcome.completed, outcome.elapsed_seconds),
        1000 * m.total_latency.p50_seconds, 1000 * m.total_latency.p95_seconds,
        1000 * m.total_latency.p99_seconds, outcome.shed, outcome.expired,
        outcome.mismatches, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(out,
                 "    {\"workers\": %zu, \"qps\": %.1f, \"speedup\": %.3f}%s\n",
                 scaling[i].workers, scaling[i].qps, scaling[i].speedup,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Steady-state allocator traffic of one warm cached request (see
  // AllocProbeReport). "available" is false when global-new interposition
  // is compiled out (sanitizer builds); the per-request numbers are then
  // absent rather than misleading zeros.
  if (alloc.available) {
    std::fprintf(out,
                 "  \"alloc_probe\": {\"available\": true, "
                 "\"requests\": %zu, \"allocs_per_request\": %.1f, "
                 "\"frees_per_request\": %.1f, "
                 "\"bytes_per_request\": %.0f},\n",
                 alloc.requests, alloc.allocs_per_request,
                 alloc.frees_per_request, alloc.bytes_per_request);
  } else {
    std::fprintf(out, "  \"alloc_probe\": {\"available\": false},\n");
  }
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  if (!scaling.empty()) {
    const ScalingPoint& last = scaling.back();
    std::fprintf(out,
                 "  \"scaling_summary\": {\"max_workers\": %zu, "
                 "\"speedup_at_max\": %.3f},\n",
                 last.workers, last.speedup);
  }
  if (reload_config == nullptr || steady == nullptr || reload == nullptr) {
    std::fprintf(out, "  \"reload_under_load\": null\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return;
  }
  const serve::ServiceMetricsSnapshot& sm = steady->snapshot.metrics;
  const serve::ServiceMetricsSnapshot& rm = reload->snapshot.metrics;
  const double steady_p99 = 1000 * sm.total_latency.p99_seconds;
  const double reload_p99 = 1000 * rm.total_latency.p99_seconds;
  std::fprintf(out, "  \"reload_under_load\": {\n");
  std::fprintf(out, "    \"label\": \"%s\",\n", reload_config->label.c_str());
  std::fprintf(out, "    \"qps\": %.1f,\n",
               Qps(reload->completed, reload->elapsed_seconds));
  std::fprintf(out,
               "    \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n",
               1000 * rm.total_latency.p50_seconds,
               1000 * rm.total_latency.p95_seconds, reload_p99);
  std::fprintf(out, "    \"steady_p99_ms\": %.3f,\n", steady_p99);
  std::fprintf(out, "    \"p99_ratio_vs_steady\": %.3f,\n",
               steady_p99 > 0.0 ? reload_p99 / steady_p99 : 0.0);
  std::fprintf(out, "    \"reload_pause_seconds\": %.6f,\n",
               reload->reload_pause_seconds);
  std::fprintf(out, "    \"shed\": %zu, \"failed\": %zu, \"expired\": %zu,\n",
               reload->shed, reload->failed, reload->expired);
  std::fprintf(out, "    \"mismatches\": %zu,\n", reload->mismatches);
  std::fprintf(out, "    \"completed_by_generation\": {");
  size_t emitted = 0;
  for (const auto& [generation, count] : reload->completed_by_generation) {
    std::fprintf(out, "%s\"%llu\": %zu", emitted++ > 0 ? ", " : "",
                 static_cast<unsigned long long>(generation), count);
  }
  std::fprintf(out, "}\n  }\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const bool smoke = std::getenv("BENCH_SERVE_SMOKE") != nullptr;
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());

  synth::CorpusPreset preset = synth::GigawordEePreset();
  preset.corpus.num_documents = smoke ? 64 : 160;
  synth::World world = synth::WorldGenerator(preset.world).Generate();
  corpus::Corpus docs =
      synth::CorpusGenerator(&world, preset.corpus).Generate();
  // The registry-backed scenario shares ownership of the KB with the
  // snapshots it publishes, so the world's KB moves into a shared_ptr.
  std::shared_ptr<const kb::KnowledgeBase> base_kb =
      std::move(world.knowledge_base);

  core::CandidateModelStore models(base_kb.get());
  core::MilneWittenRelatedness mw(base_kb.get());
  core::RelatednessCache cache;
  core::CachedRelatednessMeasure cached_mw(&mw, &cache);
  core::Aida aida(&models, &cached_mw, core::AidaOptions());

  std::vector<core::DisambiguationProblem> work;
  work.reserve(docs.size());
  for (const corpus::Document& doc : docs) {
    work.push_back(bench::ToProblem(doc));
  }

  // Serial reference with an *uncached* measure: the served results must
  // match it byte-for-byte regardless of concurrency or cache reuse.
  core::Aida serial(&models, &mw, core::AidaOptions());
  std::vector<core::DisambiguationResult> gold;
  gold.reserve(work.size());
  util::Stopwatch serial_watch;
  for (const core::DisambiguationProblem& problem : work) {
    gold.push_back(serial.Disambiguate(problem, {}));
  }
  const double serial_seconds = serial_watch.ElapsedSeconds();

  bench::PrintHeader("aida::serve — closed-loop load test");
  std::printf("corpus: %zu documents; serial Aida baseline %.2f ms/doc "
              "(%.0f QPS single-threaded)\n\n",
              docs.size(), 1000 * serial_seconds / docs.size(),
              docs.size() / serial_seconds);

  // The worker sweep holds the traffic shape fixed (queue 64, four
  // closed-loop clients per worker) and varies only the worker count —
  // the QPS-vs-workers scaling curve. Smoke mode keeps just its two
  // endpoints, {1, hardware} workers, so CI can gate on the ratio.
  auto sweep_point = [&](size_t workers, double duration) {
    RunConfig config;
    config.label = std::to_string(workers) + "w/64q/" +
                   std::to_string(4 * workers) + "c";
    config.workers = workers;
    config.queue = 64;
    config.clients = 4 * workers;
    config.deadline_seconds = 0.0;
    config.duration_seconds = duration;
    config.in_scaling_curve = true;
    return config;
  };

  std::vector<RunConfig> configs;
  if (smoke) {
    configs.push_back(sweep_point(1, 0.5));
    if (hw > 1) configs.push_back(sweep_point(hw, 0.5));
  } else {
    for (size_t workers : {1, 2, 4, 8}) {
      configs.push_back(sweep_point(workers, 1.2));
    }
    // Undersized queue: 16 clients contend for 2 workers + 4 slots, so
    // admission control must shed instead of parking callers.
    configs.push_back({"2w/4q/16c (undersized)", 2, 4, 16, 0.0, 1.2});
    // Tight deadline: requests expire in queue or cancel mid-flight.
    configs.push_back({"2w/64q/16c + 5ms deadline", 2, 64, 16, 0.005, 1.2});
  }

  std::printf("%-26s %8s %8s %8s %8s %8s %8s\n", "config", "QPS", "p50ms",
              "p95ms", "p99ms", "shed", "expired");
  bench::PrintRule();
  size_t total_mismatches = 0;
  std::vector<std::pair<RunConfig, RunOutcome>> runs;
  for (const RunConfig& config : configs) {
    RunOutcome outcome = RunClosedLoop(aida, &cache, work, gold, config);
    const serve::ServiceMetricsSnapshot& m = outcome.snapshot.metrics;
    std::printf("%-26s %8.0f %8.2f %8.2f %8.2f %8zu %8zu\n",
                config.label.c_str(),
                Qps(outcome.completed, outcome.elapsed_seconds),
                1000 * m.total_latency.p50_seconds,
                1000 * m.total_latency.p95_seconds,
                1000 * m.total_latency.p99_seconds,
                outcome.shed,
                outcome.expired);
    total_mismatches += outcome.mismatches;
    if (outcome.mismatches != 0) {
      std::printf("  !! %zu completed responses differed from serial Aida\n",
                  outcome.mismatches);
    }
    runs.emplace_back(config, std::move(outcome));
  }
  bench::PrintRule();
  std::printf("all completed responses byte-identical to serial Aida: %s\n",
              total_mismatches == 0 ? "yes" : "NO");
  core::RelatednessCacheStats cache_stats = cache.Snapshot();
  std::printf("shared relatedness cache: %zu entries, %.1f%% hit rate "
              "(%llu hits / %llu misses)\n\n",
              static_cast<size_t>(cache_stats.entries),
              100.0 * cache_stats.HitRate(),
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses));

  // --- QPS-vs-workers scaling curve ------------------------------------
  std::vector<ScalingPoint> scaling;
  for (const auto& [config, outcome] : runs) {
    if (!config.in_scaling_curve) continue;
    ScalingPoint point;
    point.workers = config.workers;
    point.qps = Qps(outcome.completed, outcome.elapsed_seconds);
    scaling.push_back(point);
  }
  const double base_qps = scaling.empty() ? 0.0 : scaling.front().qps;
  bench::PrintHeader("aida::serve — QPS vs workers");
  for (ScalingPoint& point : scaling) {
    point.speedup = base_qps > 0.0 ? point.qps / base_qps : 0.0;
    std::printf("  %2zu workers: %8.0f QPS  (%.2fx vs 1 worker)\n",
                point.workers, point.qps, point.speedup);
  }
  std::printf("  (machine has %zu hardware threads)\n\n", hw);

  bool scaling_healthy = true;
  if (scaling.size() >= 2 && hw > 1) {
    // The bug this bench guards against: ADDING workers LOSING throughput.
    // Modest sub-linearity is fine (the curve reports it); dropping below
    // 0.7x single-worker QPS at the top of the sweep is the regression.
    const ScalingPoint& top = scaling.back();
    if (top.qps < 0.7 * base_qps) {
      std::printf("  !! negative scaling: %zu workers deliver %.0f QPS "
                  "< 0.7x the 1-worker %.0f QPS\n",
                  top.workers, top.qps, base_qps);
      scaling_healthy = false;
    }
  }

  // --- Steady-state allocations per warm cached request ----------------
  // Measured after the worker sweep so the shared relatedness cache is in
  // its steady serving state for this corpus.
  bench::PrintHeader("aida::serve — allocations per warm cached request");
  const AllocProbeReport alloc_report = MeasureAllocsPerRequest(aida, work);
  bool alloc_healthy = true;
  if (alloc_report.available) {
    std::printf("  %.1f allocations / %.1f frees / %.0f bytes per request "
                "(over %zu warm requests)\n",
                alloc_report.allocs_per_request,
                alloc_report.frees_per_request,
                alloc_report.bytes_per_request, alloc_report.requests);
    if (smoke &&
        alloc_report.allocs_per_request > kSmokeAllocsPerRequestBound) {
      std::printf("  !! steady-state allocation regression: %.1f allocations "
                  "per request exceeds the committed bound of %.0f\n",
                  alloc_report.allocs_per_request,
                  kSmokeAllocsPerRequestBound);
      alloc_healthy = false;
    }
  } else {
    std::printf("  (alloc probe unavailable in this build — skipped)\n");
  }
  std::printf("\n");

  if (smoke) {
    // Smoke mode stops here: no reload scenario; gate on scaling and
    // allocation health.
    WriteJson(runs, scaling, alloc_report, nullptr, nullptr, nullptr);
    return (total_mismatches == 0 && scaling_healthy && alloc_healthy) ? 0
                                                                        : 1;
  }

  // --- Hot reload under load -------------------------------------------
  bench::PrintHeader("aida::serve — KB hot reload under load");
  const std::string kb_path = "bench_serve_world.kb";
  util::Status saved = kb::SaveKnowledgeBase(*base_kb, kb_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "failed to save KB: %s\n",
                 saved.ToString().c_str());
    return 1;
  }

  const RunConfig reload_config = {"2w/256q/4c + reload", 2, 256, 4, 0.0,
                                   2.0};
  bool reload_healthy = true;

  // Steady-state twin of the reload run: identical traffic shape, no
  // reload — the p99 yardstick for "reload degrades p99 < 2x".
  auto steady_registry = std::make_shared<kb::SnapshotRegistry>();
  if (!steady_registry->Publish(base_kb, "initial").ok()) {
    std::fprintf(stderr, "failed to publish initial snapshot\n");
    return 1;
  }
  ReloadOutcome steady =
      RunReloadUnderLoad(steady_registry, "", work, reload_config);

  auto reload_registry = std::make_shared<kb::SnapshotRegistry>();
  if (!reload_registry->Publish(base_kb, "initial").ok()) {
    std::fprintf(stderr, "failed to publish initial snapshot\n");
    return 1;
  }
  ReloadOutcome reload =
      RunReloadUnderLoad(reload_registry, kb_path, work, reload_config);
  std::remove(kb_path.c_str());

  const double steady_p99 = steady.snapshot.metrics.total_latency.p99_seconds;
  const double reload_p99 = reload.snapshot.metrics.total_latency.p99_seconds;
  std::printf("steady run:  %zu completed, %zu shed, %zu failed, "
              "p99 %.2f ms\n",
              steady.completed, steady.shed, steady.failed, 1000 * steady_p99);
  std::printf("reload run:  %zu completed, %zu shed, %zu failed, "
              "p99 %.2f ms (%.2fx steady)\n",
              reload.completed, reload.shed, reload.failed, 1000 * reload_p99,
              steady_p99 > 0.0 ? reload_p99 / steady_p99 : 0.0);
  std::printf("reload build+validate+swap: %.1f ms (serving continued "
              "throughout)\n",
              1000 * reload.reload_pause_seconds);
  std::printf("completed by generation:");
  for (const auto& [generation, count] : reload.completed_by_generation) {
    std::printf(" gen%llu=%zu", static_cast<unsigned long long>(generation),
                count);
  }
  std::printf("\n");
  if (!reload.reload_ok) {
    std::printf("  !! ReloadFromFile failed\n");
    reload_healthy = false;
  }
  if (reload.shed != 0 || reload.failed != 0) {
    std::printf("  !! reload run shed/failed requests (%zu shed, %zu "
                "failed) — hot reload must not drop traffic\n",
                reload.shed, reload.failed);
    reload_healthy = false;
  }
  if (reload.mismatches != 0) {
    std::printf("  !! %zu responses differed from their generation's "
                "serial gold\n",
                reload.mismatches);
    reload_healthy = false;
  }
  if (reload.completed_by_generation.size() < 2) {
    std::printf("  (note: all completions landed in one generation — "
                "reload finished outside the traffic window)\n");
  }
  std::printf("served generations byte-identical to their serial gold: %s\n",
              reload.mismatches == 0 ? "yes" : "NO");

  WriteJson(runs, scaling, alloc_report, &reload_config, &steady, &reload);
  return (total_mismatches == 0 && reload_healthy && scaling_healthy &&
          alloc_healthy)
             ? 0
             : 1;
}
