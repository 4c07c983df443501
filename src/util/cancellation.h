#ifndef AIDA_UTIL_CANCELLATION_H_
#define AIDA_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>

namespace aida::util {

/// Cooperative cancellation handle for one unit of work: an explicit
/// Cancel() flag plus an optional absolute deadline. Consumers poll
/// cancelled() at their own granularity — NED systems between and inside
/// their phases (candidate/local features, batched relatedness, solver
/// iterations) — and bail out early with whatever they have. Checking is
/// cooperative: code that ignores the token simply runs to completion,
/// and the serving layer still enforces the deadline on the result's
/// status.
///
/// Lives in util/ (not core/) so graph/, which sits below core, can poll
/// it inside the dense-subgraph peel loop; core re-exports it as
/// core::CancellationToken for existing call sites.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token that never expires on its own (Cancel() only).
  CancellationToken() = default;

  /// A token that additionally trips once `deadline` passes.
  explicit CancellationToken(Clock::time_point deadline)
      : deadline_(deadline) {}

  /// Requests cancellation. Safe from any thread, idempotent.
  void Cancel() const { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called or the deadline passed. The flag
  /// latches, so a token observed cancelled stays cancelled.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (deadline_ != Clock::time_point::max() && Clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  Clock::time_point deadline() const { return deadline_; }

 private:
  mutable std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_ = Clock::time_point::max();
};

}  // namespace aida::util

#endif  // AIDA_UTIL_CANCELLATION_H_
