#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "util/cacheline.h"

namespace aida::serve {

LatencyHistogram::LatencyHistogram() { Clear(); }

void LatencyHistogram::Clear() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_seconds_.store(0.0, std::memory_order_relaxed);
  max_seconds_.store(0.0, std::memory_order_relaxed);
}

size_t LatencyHistogram::BucketIndex(double seconds) AIDA_NONBLOCKING {
  // !(x > kMin) is deliberately inverted: it catches zero, negatives, AND
  // NaN (all comparisons with NaN are false), so a clock hiccup can only
  // ever land in bucket 0, never index out of range.
  if (!(seconds > kMinSeconds)) return 0;
  AIDA_EFFECT_ESCAPE_BEGIN(
      "libm log10 is lock- and allocation-free but opaque to the effect "
      "analysis (no visible body, no effect annotation in libm headers)")
  const double decades = std::log10(seconds / kMinSeconds);
  AIDA_EFFECT_ESCAPE_END
  const size_t index =
      static_cast<size_t>(decades * static_cast<double>(kBucketsPerDecade));
  return index >= kNumBuckets ? kNumBuckets - 1 : index;
}

double LatencyHistogram::BucketValue(size_t index) {
  // Geometric midpoint of the bucket's bounds — the value a quantile
  // falling into this bucket reports.
  const double exponent = (static_cast<double>(index) + 0.5) /
                          static_cast<double>(kBucketsPerDecade);
  return kMinSeconds * std::pow(10.0, exponent);
}

void LatencyHistogram::Record(double seconds) AIDA_NONBLOCKING {
  // Sanitize before every use of the value: NaN or negative durations
  // (clock steps backwards) become 0 so neither the sum nor the max can
  // be poisoned.
  if (!(seconds > 0.0)) seconds = 0.0;
  buckets_[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  util::AtomicAddDouble(sum_seconds_, seconds);
  util::AtomicMaxDouble(max_seconds_, seconds);
}

LatencySnapshot LatencyHistogram::Snapshot() const {
  const LatencyHistogram* self = this;
  return MergeSnapshot(&self, 1);
}

LatencySnapshot LatencyHistogram::MergeSnapshot(
    const LatencyHistogram* const* parts, size_t count) {
  std::array<uint64_t, kNumBuckets> counts{};
  uint64_t total = 0;
  double sum = 0.0;
  double max = 0.0;
  for (size_t part = 0; part < count; ++part) {
    const LatencyHistogram& h = *parts[part];
    for (size_t i = 0; i < kNumBuckets; ++i) {
      const uint64_t c = h.buckets_[i].load(std::memory_order_relaxed);
      counts[i] += c;
      total += c;
    }
    sum += h.sum_seconds_.load(std::memory_order_relaxed);
    max = std::max(max, h.max_seconds_.load(std::memory_order_relaxed));
  }

  LatencySnapshot snapshot;
  snapshot.count = total;
  if (total == 0) return snapshot;
  snapshot.mean_seconds = sum / static_cast<double>(total);
  snapshot.max_seconds = max;

  // Walk the cumulative distribution once for all three quantiles. The
  // bucket totals (not count_) define the distribution so a Record racing
  // this snapshot cannot push a quantile past the recorded observations.
  const double targets[3] = {0.50, 0.95, 0.99};
  double* outputs[3] = {&snapshot.p50_seconds, &snapshot.p95_seconds,
                        &snapshot.p99_seconds};
  size_t next_target = 0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets && next_target < 3; ++i) {
    cumulative += counts[i];
    while (next_target < 3 &&
           static_cast<double>(cumulative) >=
               targets[next_target] * static_cast<double>(total)) {
      *outputs[next_target] = BucketValue(i);
      ++next_target;
    }
  }
  return snapshot;
}

ServiceMetrics::ServiceMetrics(size_t worker_slots)
    : slots_(std::max<size_t>(1, worker_slots)) {}

void ServiceMetrics::Bump(std::atomic<uint64_t> SubmitStripe::* counter) {
  // One hash per thread, computed lazily on its first submit-side event;
  // the stripe count is a power of two so selection is a mask.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id()) &
      (kSubmitStripes - 1);
  (submit_stripes_[stripe].*counter).fetch_add(1, std::memory_order_relaxed);
}

ServiceMetricsSnapshot ServiceMetrics::Snapshot(size_t queue_depth) const {
  ServiceMetricsSnapshot snapshot;
  for (const SubmitStripe& stripe : submit_stripes_) {
    snapshot.submitted += stripe.submitted.load(std::memory_order_relaxed);
    snapshot.admitted += stripe.admitted.load(std::memory_order_relaxed);
    snapshot.rejected_queue_full +=
        stripe.rejected_queue_full.load(std::memory_order_relaxed);
    snapshot.rejected_closed +=
        stripe.rejected_closed.load(std::memory_order_relaxed);
    snapshot.cancelled_queued +=
        stripe.cancelled_queued.load(std::memory_order_relaxed);
  }

  std::vector<const LatencyHistogram*> queue_waits, service_times, totals;
  queue_waits.reserve(slots_.size());
  service_times.reserve(slots_.size());
  totals.reserve(slots_.size());
  std::map<uint64_t, GenerationOutcomes> merged_generations;
  for (const WorkerSlot& slot : slots_) {
    snapshot.completed += slot.completed.load(std::memory_order_relaxed);
    snapshot.failed += slot.failed.load(std::memory_order_relaxed);
    snapshot.expired_in_queue +=
        slot.expired_in_queue.load(std::memory_order_relaxed);
    snapshot.cancelled_in_flight +=
        slot.cancelled_in_flight.load(std::memory_order_relaxed);
    snapshot.in_flight += slot.in_flight.load(std::memory_order_relaxed);
    queue_waits.push_back(&slot.queue_wait);
    service_times.push_back(&slot.service_time);
    totals.push_back(&slot.total_latency);
    util::MutexLock lock(&slot.generations_mutex);
    for (const auto& [generation, outcomes] : slot.generations) {
      GenerationOutcomes& merged = merged_generations[generation];
      merged.generation = generation;
      merged.completed += outcomes.completed;
      merged.failed += outcomes.failed;
      merged.cancelled_in_flight += outcomes.cancelled_in_flight;
    }
  }

  snapshot.queue_depth = queue_depth;
  snapshot.uptime_seconds = uptime_.ElapsedSeconds();
  snapshot.completed_per_second =
      snapshot.uptime_seconds > 0.0
          ? static_cast<double>(snapshot.completed) / snapshot.uptime_seconds
          : 0.0;
  snapshot.queue_wait =
      LatencyHistogram::MergeSnapshot(queue_waits.data(), queue_waits.size());
  snapshot.service_time = LatencyHistogram::MergeSnapshot(
      service_times.data(), service_times.size());
  snapshot.total_latency =
      LatencyHistogram::MergeSnapshot(totals.data(), totals.size());
  snapshot.generations.reserve(merged_generations.size());
  for (const auto& [generation, outcomes] : merged_generations) {
    snapshot.generations.push_back(outcomes);
  }
  return snapshot;
}

}  // namespace aida::serve
