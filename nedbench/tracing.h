#ifndef AIDA_NEDBENCH_TRACING_H_
#define AIDA_NEDBENCH_TRACING_H_

// Layer timing for the benchmark's traced run. Everything here sits
// outside the library: three decorators installed through the public
// kb::SnapshotOptions factories time the calls into the NED system and
// into the relatedness measure above and below the per-snapshot cache.
//
//   worker thread
//   └─ TracedSystem::Disambiguate        core.*   (+ allocation window)
//      └─ core::Aida
//         └─ LookupTimer                 relatedness lookups, FilterPairs
//            └─ core::CachedRelatednessMeasure   (the snapshot's cache)
//               └─ EvalTimer             relatedness evaluations
//                  └─ MW or KORE-LSH-G
//
// High-frequency calls (one per entity pair) are not recorded as spans:
// they are summed into thread-local counters that TracedSystem zeroes
// before and reads after each request, which is sound because a request
// runs on one worker thread under the default service configuration.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ned_system.h"
#include "core/relatedness.h"
#include "kb/knowledge_base.h"
#include "kb/snapshot_registry.h"

namespace aida::nedbench {

/// Steady-clock nanoseconds, the time base of every recorded span.
int64_t NowNs();

/// Relatedness and hashing work done for one request. Lookups and
/// evaluations are counted exactly; their wall time is summed over every
/// eighth call and scaled to all calls, which keeps the timer's cost a
/// small share of a cache hit.
struct RelatednessCounters {
  /// Calls above the cache, and their estimated summed wall time.
  uint64_t lookups = 0;
  uint64_t lookup_ns = 0;
  /// Calls that reached the base measure below the cache.
  uint64_t evals = 0;
  uint64_t eval_ns = 0;
  /// FilterPairs calls (LSH measures only).
  uint64_t filter_calls = 0;
  uint64_t filter_ns = 0;
  /// Candidate pairs offered to FilterPairs, n(n-1)/2 per call, and the
  /// pairs it kept.
  uint64_t pairs_offered = 0;
  uint64_t pairs_kept = 0;
};

/// What TracedSystem records for one request.
struct CoreRecord {
  bool recorded = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Small id of the worker thread that ran the request.
  uint32_t worker = 0;
  uint64_t allocations = 0;
  uint64_t allocated_bytes = 0;
  uint64_t mentions = 0;
  uint64_t candidates = 0;
  core::DisambiguationStats stats;
  RelatednessCounters relatedness;
};

/// Hands each traced request's CoreRecord to the worker that runs it. A
/// request is known by its token vector, which the caller owns from
/// before Submit until after the future completes.
class CoreRecordTable {
 public:
  void Register(const std::vector<std::string>* tokens, CoreRecord* record);
  void Unregister(const std::vector<std::string>* tokens);
  /// Null for requests nobody registered (warm-up).
  CoreRecord* Find(const std::vector<std::string>* tokens) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<const std::vector<std::string>*, CoreRecord*> records_;
};

using MeasureFactory = std::function<std::unique_ptr<core::RelatednessMeasure>(
    const kb::KnowledgeBase& kb)>;

/// Snapshot options that build the default Aida stack over `base` (the
/// measure the untraced run uses) with the three decorators above
/// installed. `table` must outlive every snapshot built with them.
kb::SnapshotOptions TracedSnapshotOptions(MeasureFactory base,
                                          CoreRecordTable* table);

}  // namespace aida::nedbench

#endif  // AIDA_NEDBENCH_TRACING_H_
