#include "serve/ned_service.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "util/stopwatch.h"

namespace aida::serve {
namespace {

using ServiceClock = core::CancellationToken::Clock;

double SecondsBetween(ServiceClock::time_point begin,
                      ServiceClock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

NedService::NedService(std::shared_ptr<const kb::KbSnapshot> snapshot,
                       NedServiceOptions options)
    : NedService(std::move(snapshot), nullptr, options) {}

NedService::NedService(std::shared_ptr<const kb::SnapshotRegistry> registry,
                       NedServiceOptions options)
    : NedService(nullptr, std::move(registry), options) {}

NedService::NedService(std::shared_ptr<const kb::KbSnapshot> snapshot,
                       std::shared_ptr<const kb::SnapshotRegistry> registry,
                       NedServiceOptions options)
    : fixed_snapshot_(std::move(snapshot)),
      registry_(std::move(registry)),
      options_(options),
      num_threads_(options.num_threads != 0
                       ? options.num_threads
                       : std::max(1u, std::thread::hardware_concurrency())),
      metrics_(num_threads_),
      queue_(std::max<size_t>(1, options.queue_capacity)),
      pool_(std::make_unique<util::WorkerPool>(num_threads_)) {
  AIDA_CHECK((fixed_snapshot_ != nullptr) != (registry_ != nullptr),
             "NedService needs exactly one of snapshot or registry");
  // A registry-backed service needs a published generation before traffic
  // arrives: requests pin whatever AcquireSnapshot returns, and "nothing
  // published yet" is a configuration error, not a per-request condition.
  AIDA_CHECK(AcquireSnapshot() != nullptr,
             "registry must publish a generation before serving starts");
  for (size_t t = 0; t < num_threads_; ++t) {
    pool_->Submit([this, t] { WorkerLoop(t); });
  }
}

NedService::~NedService() { Drain(); }

std::future<ServeResult> NedService::Submit(
    core::DisambiguationProblem problem, RequestOptions options) {
  metrics_.OnSubmitted();

  Request request;
  request.problem = std::move(problem);
  request.vocab = options.vocab;
  request.submit_time = Clock::now();
  const double deadline_seconds = options.deadline_seconds > 0.0
                                      ? options.deadline_seconds
                                      : options_.default_deadline_seconds;
  request.deadline =
      deadline_seconds > 0.0
          ? request.submit_time + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          deadline_seconds))
          : Clock::time_point::max();
  std::future<ServeResult> future = request.promise.get_future();

  std::optional<AdmissionError> refused = queue_.TryPush(request);
  if (!refused) {
    metrics_.OnAdmitted();
    return future;
  }

  // Shed: the future completes here and now with the rejection status —
  // the caller is never parked on a full queue.
  ServeResult shed;
  shed.result.cancelled = true;
  if (*refused == AdmissionError::kQueueFull) {
    metrics_.OnRejectedQueueFull();
    shed.status = util::Status::ResourceExhausted(
        "request queue at capacity (" + std::to_string(queue_.capacity()) +
        "); load shed");
  } else {
    metrics_.OnRejectedClosed();
    shed.status =
        util::Status::Cancelled("service is draining or shut down");
  }
  request.promise.set_value(std::move(shed));
  return future;
}

std::vector<ServeResult> NedService::DisambiguateAll(
    const std::vector<core::DisambiguationProblem>& problems,
    RequestOptions options) {
  std::vector<ServeResult> results(problems.size());
  // Closed-loop backpressure: keep at most queue + workers of our own
  // requests outstanding, and on a shed submission (another client may be
  // filling the queue) wait for our oldest future before retrying.
  const size_t window = queue_.capacity() + num_threads_;
  std::deque<std::pair<size_t, std::future<ServeResult>>> outstanding;

  auto settle_oldest = [&] {
    auto [index, future] = std::move(outstanding.front());
    outstanding.pop_front();
    results[index] = future.get();
  };

  for (size_t i = 0; i < problems.size(); ++i) {
    for (;;) {
      while (outstanding.size() >= window) settle_oldest();
      std::future<ServeResult> future = Submit(problems[i], options);
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        ServeResult ready = future.get();
        if (ready.status.code() == util::StatusCode::kResourceExhausted) {
          // Shed by concurrent load; make room and retry this problem.
          if (!outstanding.empty()) {
            settle_oldest();
          } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          continue;
        }
        results[i] = std::move(ready);  // rejected-closed or instant finish
      } else {
        outstanding.emplace_back(i, std::move(future));
      }
      break;
    }
  }
  while (!outstanding.empty()) settle_oldest();
  return results;
}

void NedService::WorkerLoop(size_t slot) {
  // Pin the snapshot once per worker, not once per dequeue. The old
  // per-dequeue AcquireSnapshot() was an atomic<shared_ptr> acquire —
  // a locked refcount RMW on the control block that every worker hit for
  // every request, ping-ponging one cache line across all cores. Now the
  // per-dequeue cost is one relaxed uint64 generation-counter load; the
  // refcount is touched only when a reload actually happened.
  std::shared_ptr<const kb::KbSnapshot> pinned = AcquireSnapshot();
  for (;;) {
    std::optional<Request> request = queue_.Pop();
    if (!request) return;
    if (registry_ != nullptr &&
        registry_->current_generation() != pinned->generation()) {
      pinned = registry_->Current();
    }
    Process(slot, std::move(*request), pinned);
  }
}

void NedService::Process(size_t slot, Request request,
                         const std::shared_ptr<const kb::KbSnapshot>& snapshot) {
  const Clock::time_point start = Clock::now();
  const double queue_seconds = SecondsBetween(request.submit_time, start);

  ServeResult out;
  out.queue_seconds = queue_seconds;

  // Deadline already gone: complete without paying for NED at all.
  if (start >= request.deadline) {
    metrics_.OnExpiredInQueue(slot, queue_seconds);
    out.status =
        util::Status::DeadlineExceeded("deadline expired while queued");
    out.result.cancelled = true;
    out.total_seconds = queue_seconds;
    request.promise.set_value(std::move(out));
    return;
  }

  metrics_.OnStarted(slot, queue_seconds);
  // `snapshot` is the worker's pinned generation: it stays alive for the
  // whole request (the worker holds the strong reference), and a reload
  // published mid-request is picked up at the NEXT dequeue.
  out.generation = snapshot->generation();
  core::CancellationToken token(request.deadline);
  core::DisambiguateOptions ned_options;
  ned_options.vocab = request.vocab;
  ned_options.cancel = &token;
  util::Stopwatch service_watch;
  try {
    out.result = snapshot->system().Disambiguate(request.problem, ned_options);
    out.service_seconds = service_watch.ElapsedSeconds();
    out.total_seconds = SecondsBetween(request.submit_time, Clock::now());
    if (out.result.cancelled) {
      // The system observed the token between phases and bailed out; the
      // partial (local-only) result rides along for best-effort callers.
      metrics_.OnCancelledInFlight(slot, out.generation);
      out.status = util::Status::DeadlineExceeded(
          "deadline expired during disambiguation");
    } else {
      metrics_.OnCompleted(slot, out.generation, out.service_seconds,
                           out.total_seconds);
    }
  } catch (const std::exception& error) {
    // The library never throws, but wrapped user systems may; a worker
    // must survive it, so the exception becomes a per-request status.
    out.service_seconds = service_watch.ElapsedSeconds();
    out.total_seconds = SecondsBetween(request.submit_time, Clock::now());
    out.result.cancelled = true;
    out.status = util::Status::Internal(std::string("NedSystem threw: ") +
                                        error.what());
    metrics_.OnFailed(slot, out.generation);
  } catch (...) {
    out.service_seconds = service_watch.ElapsedSeconds();
    out.total_seconds = SecondsBetween(request.submit_time, Clock::now());
    out.result.cancelled = true;
    out.status = util::Status::Internal("NedSystem threw a non-exception");
    metrics_.OnFailed(slot, out.generation);
  }
  request.promise.set_value(std::move(out));
}

void NedService::Stop(bool flush_queued) {
  util::MutexLock lock(&stop_mutex_);
  if (flush_queued) {
    std::vector<Request> flushed = queue_.CloseAndFlush();
    for (Request& request : flushed) {
      metrics_.OnCancelledQueued();
      ServeResult out;
      out.status = util::Status::Cancelled("service shut down while queued");
      out.result.cancelled = true;
      out.queue_seconds = SecondsBetween(request.submit_time, Clock::now());
      out.total_seconds = out.queue_seconds;
      request.promise.set_value(std::move(out));
    }
  } else {
    queue_.CloseAdmission();
  }
  // Joining the pool waits for the worker loops, which exit once the
  // queue is closed and (for drain) fully consumed.
  pool_.reset();
}

void NedService::Drain() { Stop(/*flush_queued=*/false); }

void NedService::Shutdown() { Stop(/*flush_queued=*/true); }

NedServiceSnapshot NedService::Snapshot() const {
  NedServiceSnapshot snapshot;
  snapshot.metrics = metrics_.Snapshot(queue_.size());
  const std::shared_ptr<const kb::KbSnapshot> active = AcquireSnapshot();
  snapshot.active_generation = active->generation();
  if (options_.shared_cache != nullptr) {
    snapshot.has_cache = true;
    snapshot.cache = options_.shared_cache->Snapshot();
  } else if (active->relatedness_cache() != nullptr) {
    snapshot.has_cache = true;
    snapshot.cache = active->relatedness_cache()->Snapshot();
  }
  if (registry_ != nullptr) {
    snapshot.has_registry = true;
    snapshot.registry = registry_->Stats();
  }
  return snapshot;
}

core::DisambiguationStats AggregateCompletedStats(
    const std::vector<ServeResult>& results) {
  core::DisambiguationStats total;
  for (const ServeResult& result : results) {
    if (!result.status.ok()) continue;
    total += result.result.stats;
  }
  return total;
}

}  // namespace aida::serve
