#ifndef AIDA_SERVE_NED_SERVICE_H_
#define AIDA_SERVE_NED_SERVICE_H_

#include <cstddef>
#include <future>
#include <memory>
#include <vector>

#include "core/ned_system.h"
#include "core/relatedness_cache.h"
#include "kb/snapshot_registry.h"
#include "serve/bounded_queue.h"
#include "serve/metrics.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/worker_pool.h"

namespace aida::serve {

/// Configuration of a NedService.
struct NedServiceOptions {
  /// Worker threads; 0 selects the hardware concurrency.
  size_t num_threads = 0;
  /// Bound on requests *waiting* for a worker (in-flight requests are on
  /// top). Submissions beyond the bound are shed with kResourceExhausted
  /// — the admission-control knob: size it to the queueing delay the
  /// deployment can tolerate, not to peak burst size.
  size_t queue_capacity = 1024;
  /// Deadline applied to requests that do not set their own;
  /// <= 0 means no deadline.
  double default_deadline_seconds = 0.0;
  /// Optional handle to the RelatednessCache shared by the served
  /// system's CachedRelatednessMeasure (not owned). The service does not
  /// need it to function — concurrent workers already reuse pairs through
  /// the measure — but wiring it here surfaces hit rates and evictions in
  /// Snapshot() next to the latency histograms.
  const core::RelatednessCache* shared_cache = nullptr;
};

/// Per-request overrides.
struct RequestOptions {
  /// Deadline for this request, from submission; <= 0 uses the service
  /// default. Expiry while queued completes the future with
  /// kDeadlineExceeded without running NED; expiry mid-flight is caught
  /// cooperatively between disambiguation phases (CancellationToken).
  double deadline_seconds = 0.0;
  /// Optional extended vocabulary forwarded to the NED system via
  /// core::DisambiguateOptions (not owned; must outlive the request's
  /// future). Callers using it across reloads must ensure it stays
  /// compatible with every generation that may serve the request.
  const core::ExtendedVocabulary* vocab = nullptr;
};

/// What a Submit future resolves to.
struct ServeResult {
  /// OK, or why the request produced no (complete) annotation:
  ///   kResourceExhausted — shed at admission, queue at capacity;
  ///   kCancelled         — submitted after stop, or flushed by Shutdown;
  ///   kDeadlineExceeded  — expired in queue or cancelled mid-flight;
  ///   kInternal          — the wrapped NedSystem threw.
  util::Status status;
  /// The annotation; meaningful only when status.ok(). On
  /// kDeadlineExceeded mid-flight it holds the partial (local-only)
  /// result with result.cancelled set.
  core::DisambiguationResult result;
  /// Time spent waiting in the bounded queue (0 for shed requests).
  double queue_seconds = 0.0;
  /// Time inside NedSystem::Disambiguate (0 if it never ran).
  double service_seconds = 0.0;
  /// Submission to future completion.
  double total_seconds = 0.0;
  /// KB snapshot generation the request ran against (0 when it never
  /// reached a worker — shed, expired in queue, flushed). During a hot
  /// reload concurrent responses may carry different generations; each is
  /// byte-identical to a serial run against that generation's KB.
  uint64_t generation = 0;
};

/// Service state surfaced by NedService::Snapshot.
struct NedServiceSnapshot {
  ServiceMetricsSnapshot metrics;
  /// Present when NedServiceOptions::shared_cache was wired, or when the
  /// active KB snapshot carries a per-generation RelatednessCache.
  bool has_cache = false;
  core::RelatednessCacheStats cache;
  /// Generation currently serving new dequeues (0 when the service wraps
  /// a snapshot without registry and generation tagging is trivial).
  uint64_t active_generation = 0;
  /// Present when the service is backed by a SnapshotRegistry: reload
  /// counters/durations and the retiring generations still pinned by
  /// in-flight requests.
  bool has_registry = false;
  kb::SnapshotRegistryStats registry;
};

/// The online NED serving layer: a persistent worker pool consuming a
/// bounded request queue in front of a versioned KB snapshot — the shape
/// the ROADMAP's "serve heavy traffic" north star asks for, where
/// documents arrive continuously with skewed sizes and latency
/// constraints instead of as one big offline batch, and the KB itself
/// evolves under traffic (emerging entities folded back in, bigger
/// worlds loaded) without a process restart.
///
///   auto registry = std::make_shared<kb::SnapshotRegistry>();
///   registry->Publish(std::move(kb), "initial").value();
///   NedService service(registry, {.num_threads = 8, .queue_capacity = 64});
///   std::future<ServeResult> f = service.Submit(problem, {.deadline_seconds = 0.05});
///   ServeResult r = f.get();           // r.status + r.generation
///   registry->ReloadFromFile("world_v2.fkb");  // zero downtime
///
/// Guarantees:
///  * Submit never blocks: a request is admitted or its future completes
///    immediately with a rejection status (explicit load shedding).
///  * Every admitted request's future is satisfied exactly once — by a
///    worker, by deadline expiry, or by Shutdown's queue flush.
///  * Hot reload is invisible to requests: each worker pins the current
///    snapshot ONCE and refreshes the pin only when the registry's
///    generation counter moves — one relaxed uint64 load per dequeue, no
///    shared_ptr refcount traffic, no drain, no lock on the hot path.
///    In-flight requests finish on the generation they started; a
///    retiring generation's memory is freed once its last request
///    completes and every worker has re-pinned (at the latest when the
///    service drains).
///  * Completed (OK) results are byte-identical to a serial
///    Disambiguate against the same generation's system: workers add no
///    nondeterminism, and the per-snapshot RelatednessCache stores exact
///    values.
///  * Drain(): stop admission, finish queued + in-flight work, join.
///    Shutdown(): stop admission, fail queued work with kCancelled,
///    finish in-flight work, join. The destructor drains.
///
/// The served system must be const-thread-safe (Aida and all shipped
/// baselines are; anything KbSnapshot::Create builds qualifies).
/// Problems are copied into the service, but the token vector and
/// vocabulary they point to stay caller-owned and must outlive the
/// request's future.
class NedService {
 public:
  /// Serves one fixed snapshot (no hot reload). The service shares
  /// ownership: the snapshot lives at least as long as the service.
  explicit NedService(std::shared_ptr<const kb::KbSnapshot> snapshot,
                      NedServiceOptions options = {});

  /// Serves whatever generation `registry` has published; each worker
  /// tracks the registry's generation counter and re-pins on change. The
  /// registry must already have a published generation (Current() !=
  /// nullptr) and the service keeps it alive via shared ownership.
  explicit NedService(std::shared_ptr<const kb::SnapshotRegistry> registry,
                      NedServiceOptions options = {});

  /// The raw-pointer constructor is gone: a bare NedSystem* cannot pin
  /// the stack a request runs against, which is unsound under hot reload.
  /// Wrap the system instead:
  ///   NedService service(kb::KbSnapshot::WrapUnowned(system, "my-system"));
  NedService(const core::NedSystem*, NedServiceOptions = {}) = delete;

  /// Drains: accepted work completes before destruction returns.
  ~NedService();

  NedService(const NedService&) = delete;
  NedService& operator=(const NedService&) = delete;

  /// Submits one request. Always returns a valid future; see ServeResult
  /// for the outcome taxonomy. Thread-safe, never blocks.
  std::future<ServeResult> Submit(core::DisambiguationProblem problem,
                                  RequestOptions options = {});

  /// Blocking batch convenience: submits every problem with closed-loop
  /// backpressure (waits on its own outstanding futures instead of
  /// shedding when the queue fills), returns results parallel to the
  /// input. Requests can still expire against their deadlines or be
  /// cancelled by a concurrent Shutdown.
  std::vector<ServeResult> DisambiguateAll(
      const std::vector<core::DisambiguationProblem>& problems,
      RequestOptions options = {});

  /// Stops admission, completes all queued and in-flight requests, joins
  /// the workers. Idempotent; concurrent calls block until the stop
  /// finishes.
  void Drain();

  /// Stops admission, fails queued requests with kCancelled, completes
  /// in-flight requests, joins the workers. Idempotent.
  void Shutdown();

  /// Point-in-time metrics (plus shared-cache stats when wired). Safe to
  /// call at any time, including while the service runs full tilt.
  NedServiceSnapshot Snapshot() const;

  size_t num_threads() const { return num_threads_; }
  size_t queue_capacity() const { return queue_.capacity(); }
  /// True once Drain or Shutdown began; Submit is rejected from then on.
  bool stopped() const { return queue_.closed(); }

 private:
  using Clock = core::CancellationToken::Clock;

  struct Request {
    core::DisambiguationProblem problem;
    const core::ExtendedVocabulary* vocab = nullptr;
    std::promise<ServeResult> promise;
    Clock::time_point submit_time;
    Clock::time_point deadline;
  };

  NedService(std::shared_ptr<const kb::KbSnapshot> snapshot,
             std::shared_ptr<const kb::SnapshotRegistry> registry,
             NedServiceOptions options);

  /// The slow-path snapshot acquisition: one atomic shared_ptr load when
  /// registry-backed, a plain copy when fixed. Never null. Workers call
  /// this once at startup and after a generation change (detected via the
  /// registry's cheap generation counter); per-dequeue use would turn the
  /// shared_ptr refcount into a cross-core ping-pong line.
  std::shared_ptr<const kb::KbSnapshot> AcquireSnapshot() const {
    return registry_ != nullptr ? registry_->Current() : fixed_snapshot_;
  }

  /// One per pool thread: pop until the queue closes and empties. `slot`
  /// is the worker's private index into the per-worker metrics slots and
  /// its pinned-snapshot identity.
  void WorkerLoop(size_t slot);
  /// Runs (or expires) one request against `snapshot` and satisfies its
  /// promise.
  void Process(size_t slot, Request request,
               const std::shared_ptr<const kb::KbSnapshot>& snapshot);
  void Stop(bool flush_queued) AIDA_EXCLUDES(stop_mutex_);

  /// Exactly one of the two is set, fixed at construction.
  std::shared_ptr<const kb::KbSnapshot> fixed_snapshot_;
  std::shared_ptr<const kb::SnapshotRegistry> registry_;
  NedServiceOptions options_;
  size_t num_threads_;
  /// One cache-line-aligned slot per worker; constructed with
  /// num_threads_ so every worker owns a private slot.
  ServiceMetrics metrics_;
  BoundedQueue<Request> queue_;
  /// Serializes Drain/Shutdown; ranked before the queue and pool locks
  /// because Stop closes the queue and joins the pool while holding it.
  util::Mutex stop_mutex_{util::lock_rank::kServiceStop};
  // Declared after queue_ so it is destroyed first: the pool joins worker
  // loops, which only exit once the queue is closed.
  std::unique_ptr<util::WorkerPool> pool_ AIDA_GUARDED_BY(stop_mutex_);
};

/// Sums the DisambiguationStats of the completed (status OK) results,
/// skipping shed / expired / failed entries entirely — the serving-layer
/// counterpart of core::AggregateStats.
core::DisambiguationStats AggregateCompletedStats(
    const std::vector<ServeResult>& results);

}  // namespace aida::serve

#endif  // AIDA_SERVE_NED_SERVICE_H_
