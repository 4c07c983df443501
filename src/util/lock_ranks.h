#ifndef AIDA_UTIL_LOCK_RANKS_H_
#define AIDA_UTIL_LOCK_RANKS_H_

namespace aida::util::lock_rank {

/// The global lock order of the concurrency stack, one rank per mutex
/// family. A thread may only acquire a mutex whose rank is STRICTLY
/// GREATER than every ranked mutex it already holds; the debug lock-rank
/// checker in util::Mutex reports any inversion at the exact acquisition
/// site, independent of whether the inverted interleaving ever deadlocks
/// in a test run.
///
/// Ranks encode the real nesting of the stack (outermost first):
///
///   NedService::Stop           holds kServiceStop, then closes the
///                              bounded queue (kBoundedQueue) and joins
///                              the pool (kWorkerPool);
///   SnapshotRegistry reloads   hold kSnapshotPublish while building a
///                              snapshot, whose CandidateModelStore and
///                              RelatednessCache locks are leaves;
///   request processing         takes kBoundedQueue (Pop), releases it,
///                              then hits kServiceMetrics /
///                              kCandidateStore / kRelatednessShard one
///                              at a time.
///
/// Gaps of 100 leave room for future layers without renumbering.
/// DESIGN.md §6 documents the order next to the annotation conventions.
inline constexpr int kServiceStop = 100;      // serve::NedService::stop_mutex_
inline constexpr int kSnapshotPublish = 200;  // kb::SnapshotRegistry::publish_mutex_
inline constexpr int kBoundedQueue = 300;     // serve::BoundedQueue<T>::mutex_
inline constexpr int kWorkerPool = 400;       // util::WorkerPool::mutex_
inline constexpr int kServiceMetrics = 500;   // serve::ServiceMetrics WorkerSlot::generations_mutex (one per worker slot)
inline constexpr int kCandidateStore = 600;   // core::CandidateModelStore::mutex_
inline constexpr int kRelatednessShard = 700; // core::RelatednessCache::Shard::mutex
inline constexpr int kParallelForState = 800; // util::WorkerPool::ParallelFor call state (leaf)

}  // namespace aida::util::lock_rank

#endif  // AIDA_UTIL_LOCK_RANKS_H_
