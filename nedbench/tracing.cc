#include "tracing.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "core/aida.h"
#include "util/alloc_probe.h"

namespace aida::nedbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// The current request's relatedness counters on this worker thread.
/// Times are in Ticks() units and, for lookups and evaluations, cover only
/// the timed calls, until TracedSystem scales and converts them.
thread_local RelatednessCounters tls_counters;

/// Lookups and evaluations are timed one call in this many. The calls are
/// counted per thread, never reset, so that a request with fewer calls
/// than the stride is still timed in proportion to its calls.
constexpr uint64_t kTimedCallStride = 8;
thread_local uint64_t tls_lookup_calls = 0;
thread_local uint64_t tls_eval_calls = 0;

/// The clock of the per-pair timers. A steady_clock read fences the
/// pipeline and costs about 30 ns in a VM, several times an MW pair's
/// share of a cache hit; the unfenced time-stamp counter is cheaper and
/// its sums over thousands of calls are what gets reported.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(NowNs());
#endif
}

/// Nanoseconds per Ticks() unit, measured once against steady_clock.
double NsPerTick() {
  static const double ns_per_tick = [] {
    const int64_t start_ns = NowNs();
    const uint64_t start_ticks = Ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double ns = static_cast<double>(NowNs() - start_ns);
    const double ticks = static_cast<double>(Ticks() - start_ticks);
    return ticks > 0.0 ? ns / ticks : 1.0;
  }();
  return ns_per_tick;
}

uint64_t TicksToNs(uint64_t ticks) {
  return static_cast<uint64_t>(static_cast<double>(ticks) * NsPerTick());
}

uint32_t ThisWorkerId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

/// Below the cache: counts the base measure's evaluations and times a
/// sample of them.
class EvalTimer final : public core::RelatednessMeasure {
 public:
  explicit EvalTimer(std::unique_ptr<core::RelatednessMeasure> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    ++tls_counters.evals;
    if (++tls_eval_calls % kTimedCallStride != 0) {
      return inner_->Relatedness(a, b);
    }
    const uint64_t start = Ticks();
    const double value = inner_->Relatedness(a, b);
    tls_counters.eval_ns += Ticks() - start;
    return value;
  }

  bool has_pair_filter() const override { return inner_->has_pair_filter(); }

  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const core::Candidate*>& candidates) const override {
    return inner_->FilterPairs(candidates);
  }

 private:
  std::unique_ptr<core::RelatednessMeasure> inner_;
};

/// Above the cache: counts lookups and times a sample of them; times
/// every call of the LSH pair filter.
class LookupTimer final : public core::RelatednessMeasure {
 public:
  explicit LookupTimer(const core::RelatednessMeasure* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  double Relatedness(const core::Candidate& a,
                     const core::Candidate& b) const override {
    return RelatednessTracked(a, b, nullptr);
  }

  double RelatednessTracked(const core::Candidate& a, const core::Candidate& b,
                            bool* cache_hit) const override {
    ++tls_counters.lookups;
    if (++tls_lookup_calls % kTimedCallStride != 0) {
      return inner_->RelatednessTracked(a, b, cache_hit);
    }
    const uint64_t start = Ticks();
    const double value = inner_->RelatednessTracked(a, b, cache_hit);
    tls_counters.lookup_ns += Ticks() - start;
    return value;
  }

  bool has_pair_filter() const override { return inner_->has_pair_filter(); }

  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const core::Candidate*>& candidates) const override {
    const uint64_t start = Ticks();
    std::vector<std::pair<uint32_t, uint32_t>> kept =
        inner_->FilterPairs(candidates);
    tls_counters.filter_ns += Ticks() - start;
    ++tls_counters.filter_calls;
    const uint64_t n = candidates.size();
    tls_counters.pairs_offered += n > 1 ? n * (n - 1) / 2 : 0;
    tls_counters.pairs_kept += kept.size();
    return kept;
  }

 private:
  const core::RelatednessMeasure* inner_;
};

/// The snapshot's NED system: default Aida over LookupTimer, with one
/// span and one allocation window per request.
class TracedSystem final : public core::NedSystem {
 public:
  TracedSystem(const core::CandidateModelStore* models,
               const core::RelatednessMeasure* cached,
               const CoreRecordTable* table)
      : lookup_(cached),
        aida_(models, &lookup_, core::AidaOptions()),
        table_(table) {}
  TracedSystem(const TracedSystem&) = delete;
  TracedSystem& operator=(const TracedSystem&) = delete;

  core::DisambiguationResult Disambiguate(
      const core::DisambiguationProblem& problem,
      const core::DisambiguateOptions& options) const override {
    tls_counters = {};
    const int64_t start = NowNs();
    util::ScopedAllocationCount allocations;
    core::DisambiguationResult result = aida_.Disambiguate(problem, options);
    const uint64_t allocs = allocations.allocations();
    const uint64_t bytes = allocations.bytes_allocated();
    const int64_t end = NowNs();
    if (CoreRecord* record = table_->Find(problem.tokens)) {
      record->recorded = true;
      record->start_ns = start;
      record->end_ns = end;
      record->worker = ThisWorkerId();
      record->allocations = allocs;
      record->allocated_bytes = bytes;
      record->mentions = result.mentions.size();
      record->candidates = 0;
      for (const core::MentionResult& mention : result.mentions) {
        record->candidates += mention.candidate_entities.size();
      }
      record->stats = result.stats;
      RelatednessCounters& rel = record->relatedness;
      rel = tls_counters;
      rel.lookup_ns = TicksToNs(kTimedCallStride * rel.lookup_ns);
      rel.eval_ns = TicksToNs(kTimedCallStride * rel.eval_ns);
      rel.filter_ns = TicksToNs(rel.filter_ns);
    }
    return result;
  }

  std::string name() const override { return aida_.name(); }

 private:
  LookupTimer lookup_;
  core::Aida aida_;
  const CoreRecordTable* table_;
};

}  // namespace

void CoreRecordTable::Register(const std::vector<std::string>* tokens,
                               CoreRecord* record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_[tokens] = record;
}

void CoreRecordTable::Unregister(const std::vector<std::string>* tokens) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.erase(tokens);
}

CoreRecord* CoreRecordTable::Find(
    const std::vector<std::string>* tokens) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(tokens);
  return it == records_.end() ? nullptr : it->second;
}

kb::SnapshotOptions TracedSnapshotOptions(MeasureFactory base,
                                          CoreRecordTable* table) {
  NsPerTick();  // calibrate before any request is timed
  kb::SnapshotOptions options;
  options.relatedness_factory = [base = std::move(base)](
                                    const kb::KnowledgeBase& kb)
      -> std::unique_ptr<core::RelatednessMeasure> {
    return std::make_unique<EvalTimer>(base(kb));
  };
  options.system_factory =
      [table](const core::CandidateModelStore* models,
              const core::RelatednessMeasure* relatedness)
      -> std::unique_ptr<core::NedSystem> {
    return std::make_unique<TracedSystem>(models, relatedness, table);
  };
  return options;
}

}  // namespace aida::nedbench
