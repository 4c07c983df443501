#ifndef AIDA_SERVE_METRICS_H_
#define AIDA_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "util/cacheline.h"
#include "util/check.h"
#include "util/function_effects.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace aida::serve {

/// Quantile/mean/max summary of one LatencyHistogram at snapshot time.
struct LatencySnapshot {
  uint64_t count = 0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// A streaming latency histogram: fixed geometric buckets (ten per decade
/// from 1 microsecond to 1000 seconds), lock-free atomic counters, O(1)
/// Record. Quantiles are read from a consistent-enough snapshot of the
/// bucket counters while the service keeps recording — the p50/p95/p99
/// the load generator and the metrics registry report. Bucket resolution
/// bounds the quantile error at ~12% (one bucket width), plenty for tail
/// monitoring.
///
/// In the serving layer each worker owns a private histogram (one slot of
/// ServiceMetrics), so Record never contends; MergeSnapshot folds the
/// per-worker histograms into one distribution lazily at snapshot time.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one observation. Thread-safe, wait-free on x86. NaN and
  /// non-positive durations (clock hiccups) clamp to the zero bucket and
  /// contribute 0 to the running sum, so a bad clock sample can neither
  /// corrupt the quantiles nor poison the mean.
  void Record(double seconds) AIDA_NONBLOCKING;

  /// Summarizes everything recorded so far. Safe to call concurrently
  /// with Record; a racing observation is either in or out atomically.
  LatencySnapshot Snapshot() const;

  /// Summarizes the union of `count` histograms as one distribution —
  /// how the per-worker slots of ServiceMetrics aggregate. Quantiles are
  /// computed over the summed buckets, not averaged per worker, so a
  /// single slow worker moves the merged p99 exactly as it moves the
  /// service's real tail.
  static LatencySnapshot MergeSnapshot(const LatencyHistogram* const* parts,
                                       size_t count);

  /// Zeroes all buckets and summary counters.
  void Clear();

 private:
  // 10 buckets per decade over [1us, 1000s) plus an overflow bucket.
  static constexpr size_t kBucketsPerDecade = 10;
  static constexpr size_t kDecades = 9;
  static constexpr size_t kNumBuckets = kBucketsPerDecade * kDecades + 1;
  static constexpr double kMinSeconds = 1e-6;

  /// Maps a duration to its bucket. Zero, negative, and NaN durations all
  /// land in bucket 0 — the guard that keeps a clock hiccup from indexing
  /// out of range.
  static size_t BucketIndex(double seconds) AIDA_NONBLOCKING;
  static double BucketValue(size_t index);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_;
  std::atomic<uint64_t> count_{0};
  /// Updated via util::AtomicAddDouble / AtomicMaxDouble CAS loops:
  /// std::atomic<double>::fetch_add is C++20-library-only and the max
  /// needs a reload-on-failure CAS to never lose a racing larger value.
  std::atomic<double> sum_seconds_{0.0};
  std::atomic<double> max_seconds_{0.0};
};

/// Outcome counters of the requests served against one KB snapshot
/// generation — how hot reload becomes observable in the metrics: during
/// a swap window two generations accumulate outcomes side by side, and a
/// generation whose counters stop moving has fully retired.
struct GenerationOutcomes {
  uint64_t generation = 0;
  uint64_t completed = 0;            // finished OK on this generation
  uint64_t failed = 0;               // system threw while on this generation
  uint64_t cancelled_in_flight = 0;  // deadline tripped mid-disambiguation
};

/// Point-in-time view of a ServiceMetrics registry. Counters are
/// cumulative since service construction; gauges are instantaneous.
struct ServiceMetricsSnapshot {
  // ---- throughput counters ----
  uint64_t submitted = 0;        // Submit calls observed
  uint64_t admitted = 0;         // accepted into the bounded queue
  uint64_t completed = 0;        // finished with an OK result
  uint64_t failed = 0;           // wrapped system threw; mapped to kInternal
  // ---- load-shedding / cancellation counters ----
  uint64_t rejected_queue_full = 0;   // shed at admission: queue at bound
  uint64_t rejected_closed = 0;       // submitted after drain/shutdown began
  uint64_t expired_in_queue = 0;      // deadline passed while still queued
  uint64_t cancelled_in_flight = 0;   // deadline tripped mid-disambiguation
  uint64_t cancelled_queued = 0;      // flushed by Shutdown before running
  // ---- gauges ----
  uint64_t queue_depth = 0;  // requests waiting in the bounded queue
  uint64_t in_flight = 0;    // requests currently inside Disambiguate
  // ---- rates ----
  double uptime_seconds = 0.0;
  double completed_per_second = 0.0;  // completed / uptime
  // ---- latency histograms ----
  LatencySnapshot queue_wait;     // submit -> dequeued by a worker
  LatencySnapshot service_time;   // inside NedSystem::Disambiguate
  LatencySnapshot total_latency;  // submit -> future satisfied (OK only)
  // ---- per-generation outcomes ----
  /// One entry per KB snapshot generation that served at least one
  /// request, ascending by generation. Empty for pre-snapshot metrics
  /// consumers that never tag a generation.
  std::vector<GenerationOutcomes> generations;

  /// Every submission is accounted exactly once across the outcome
  /// counters; true when the books balance (modulo requests still queued
  /// or in flight at snapshot time).
  uint64_t Resolved() const {
    return completed + failed + rejected_queue_full + rejected_closed +
           expired_in_queue + cancelled_in_flight + cancelled_queued;
  }
};

/// The metrics registry one NedService owns: throughput and shed
/// counters, queue/in-flight gauges, and the three latency histograms.
///
/// Layout is the whole point. The registry used to be one block of
/// globally shared atomics plus three shared 91-bucket histograms; at 8
/// workers every Record/fetch_add bounced the same cache lines between
/// cores, one visible slice of the negative worker scaling that
/// ServeScalingTest now guards. Now:
///
///  * worker-side events (started / completed / failed / expired /
///    cancelled, and all three histograms) go to a per-worker,
///    cache-line-aligned WorkerSlot indexed by the worker's slot id —
///    exactly one writer per line, zero cross-worker traffic;
///  * submit-side events (submitted / admitted / rejected / flushed),
///    which arrive on arbitrary client threads, stripe over a small set
///    of aligned counter blocks by thread hash;
///  * Snapshot() aggregates lazily: it sums the slots and merges the
///    per-worker histograms into one distribution, paying the cost once
///    per monitoring read instead of once per request.
///
/// All mutators are thread-safe and O(1); Snapshot is safe while workers
/// keep serving (counters may be mutually off by the few requests that
/// transition during the read — fine for monitoring).
class ServiceMetrics {
 public:
  /// `worker_slots` sizes the per-worker half of the registry; pass the
  /// service's worker count. Worker-side mutators take a `slot` in
  /// [0, worker_slots); each worker must use its own slot (that
  /// exclusivity is what removes the contention).
  explicit ServiceMetrics(size_t worker_slots = 1);

  // ---- submit-side events (any thread; striped by thread hash) ----
  void OnSubmitted() { Bump(&SubmitStripe::submitted); }
  void OnAdmitted() { Bump(&SubmitStripe::admitted); }
  void OnRejectedQueueFull() { Bump(&SubmitStripe::rejected_queue_full); }
  void OnRejectedClosed() { Bump(&SubmitStripe::rejected_closed); }
  void OnCancelledQueued() { Bump(&SubmitStripe::cancelled_queued); }

  // ---- worker-side events (one dedicated slot per worker) ----
  // All carry AIDA_NONBLOCKING: they run inside the warm worker's record
  // path, where a stray lock or allocation is a tail-latency bug the
  // effect analysis exists to catch. The one deliberate exception — the
  // per-slot generation map — is audited inside BumpGeneration.
  void OnExpiredInQueue(size_t slot, double queue_seconds) AIDA_NONBLOCKING {
    WorkerSlot& s = Slot(slot);
    s.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
    s.queue_wait.Record(queue_seconds);
  }

  /// A worker picked the request up and is about to disambiguate.
  void OnStarted(size_t slot, double queue_seconds) AIDA_NONBLOCKING {
    WorkerSlot& s = Slot(slot);
    s.in_flight.fetch_add(1, std::memory_order_relaxed);
    s.queue_wait.Record(queue_seconds);
  }

  /// `generation` tags the outcome with the KB snapshot the request ran
  /// against (0 when the caller has no snapshot concept).
  void OnCompleted(size_t slot, uint64_t generation, double service_seconds,
                   double total_seconds) AIDA_NONBLOCKING {
    WorkerSlot& s = Slot(slot);
    s.completed.fetch_add(1, std::memory_order_relaxed);
    s.in_flight.fetch_sub(1, std::memory_order_relaxed);
    s.service_time.Record(service_seconds);
    s.total_latency.Record(total_seconds);
    BumpGeneration(s, generation, &GenerationOutcomes::completed);
  }

  void OnCancelledInFlight(size_t slot, uint64_t generation) AIDA_NONBLOCKING {
    WorkerSlot& s = Slot(slot);
    s.cancelled_in_flight.fetch_add(1, std::memory_order_relaxed);
    s.in_flight.fetch_sub(1, std::memory_order_relaxed);
    BumpGeneration(s, generation, &GenerationOutcomes::cancelled_in_flight);
  }

  void OnFailed(size_t slot, uint64_t generation) AIDA_NONBLOCKING {
    WorkerSlot& s = Slot(slot);
    s.failed.fetch_add(1, std::memory_order_relaxed);
    s.in_flight.fetch_sub(1, std::memory_order_relaxed);
    BumpGeneration(s, generation, &GenerationOutcomes::failed);
  }

  /// `queue_depth` is the owning service's current bounded-queue size —
  /// the one gauge the registry cannot observe on its own.
  ServiceMetricsSnapshot Snapshot(size_t queue_depth) const;

  size_t worker_slots() const { return slots_.size(); }

 private:
  /// One worker's private share of the registry. alignas keeps two
  /// workers' slots off one cache line (util::kCacheLineSize is the
  /// hardware destructive-interference size where the library exposes
  /// it); each atomic has exactly one writer, so every fetch_add stays a
  /// core-local RMW on an exclusive line.
  struct alignas(util::kCacheLineSize) WorkerSlot {
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> expired_in_queue{0};
    std::atomic<uint64_t> cancelled_in_flight{0};
    /// Net started-minus-finished on this worker; never negative because
    /// the same worker records both edges. Summed into the gauge.
    std::atomic<uint64_t> in_flight{0};
    LatencyHistogram queue_wait;
    LatencyHistogram service_time;
    LatencyHistogram total_latency;
    /// Per-slot generation outcomes: only this worker and Snapshot ever
    /// take the lock, so it is uncontended on the hot path (the old
    /// registry-global generations mutex serialized all workers once per
    /// request). Same kServiceMetrics rank; slots are locked one at a
    /// time, never nested.
    mutable util::Mutex generations_mutex{util::lock_rank::kServiceMetrics};
    std::map<uint64_t, GenerationOutcomes> generations
        AIDA_GUARDED_BY(generations_mutex);
  };

  /// Submit-side counters arrive on arbitrary client threads, so they
  /// stripe over a few aligned blocks by thread hash instead of sharing
  /// one hot line. Power-of-two count keeps the index mask-cheap.
  struct alignas(util::kCacheLineSize) SubmitStripe {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected_queue_full{0};
    std::atomic<uint64_t> rejected_closed{0};
    std::atomic<uint64_t> cancelled_queued{0};
  };
  static constexpr size_t kSubmitStripes = 8;

  WorkerSlot& Slot(size_t slot) {
    AIDA_DCHECK(slot < slots_.size());
    return slots_[slot < slots_.size() ? slot : 0];
  }

  void Bump(std::atomic<uint64_t> SubmitStripe::* counter);

  void BumpGeneration(WorkerSlot& slot, uint64_t generation,
                      uint64_t GenerationOutcomes::* counter)
      AIDA_EXCLUDES(slot.generations_mutex) AIDA_NONBLOCKING {
    if (generation == 0) return;
    // The inner braces keep the MutexLock destructor (the unlock) inside
    // the escape region — diagnostics attach to the scope's closing brace.
    AIDA_EFFECT_ESCAPE_BEGIN(
        "per-slot mutex: only this worker and Snapshot ever take it, the "
        "critical section is O(log generations) with ~2 live generations, "
        "and the map allocates only on first sight of a new generation "
        "(once per hot reload, not per request)")
    {
      util::MutexLock lock(&slot.generations_mutex);
      GenerationOutcomes& outcomes = slot.generations[generation];
      outcomes.generation = generation;
      ++(outcomes.*counter);
    }
    AIDA_EFFECT_ESCAPE_END
  }

  std::vector<WorkerSlot> slots_;
  std::array<SubmitStripe, kSubmitStripes> submit_stripes_;
  util::Stopwatch uptime_;
};

}  // namespace aida::serve

#endif  // AIDA_SERVE_METRICS_H_
