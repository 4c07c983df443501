#ifndef AIDA_UTIL_ALLOC_PROBE_H_
#define AIDA_UTIL_ALLOC_PROBE_H_

#include <cstdint>

namespace aida::util {

/// Runtime allocation accounting — the compiler-independent backstop of
/// the function-effect discipline (util/function_effects.h). The Clang
/// analysis proves "this annotated path cannot reach operator new"; the
/// probe measures the same property on any compiler, in the configuration
/// the benchmarks actually run: alloc_probe.cc interposes the global
/// `operator new` / `operator delete` families behind thread-local
/// counters, so a scope can assert "this code performed N allocations on
/// this thread" exactly, with zero synchronization on the counting path.
///
/// Linking model: the interposing definitions live in the same
/// translation unit as these accessor functions. A binary that calls any
/// of them therefore pulls the interposition in (static-library member
/// selection), while binaries that never reference the probe keep the
/// stock allocator — the probe cannot perturb what it does not measure.
///
/// The probe compiles itself out under ASan/TSan/MSan (the sanitizer
/// runtimes own the allocator there) and when AIDA_DISABLE_ALLOC_PROBE
/// is defined; AllocProbeAvailable() reports which world the binary is
/// in, and tests GTEST_SKIP on false.
///
/// Counting contract:
///  * every successful `new` / `new[]` (throwing, nothrow and aligned
///    forms) increments `allocations` and adds the requested byte count
///    to `bytes_allocated` on the calling thread;
///  * every `delete` / `delete[]` (all forms) with a non-null pointer
///    increments `deallocations` on the calling thread — so paired
///    new[]/delete[] on one thread leave allocations == deallocations;
///  * counters are per-thread and monotone; cross-thread frees are
///    counted where they happen (a handoff shows up as +1 allocations
///    here, +1 deallocations there).
struct AllocProbeCounters {
  uint64_t allocations = 0;
  uint64_t deallocations = 0;
  uint64_t bytes_allocated = 0;
};

/// True when the interposed operator new/delete is live in this binary.
/// False under sanitizers or when the probe was compiled out — callers
/// (tests, nedbench) must treat counters as meaningless then.
bool AllocProbeAvailable();

/// Cumulative counters of the calling thread since thread start.
AllocProbeCounters ThisThreadAllocCounts();

/// RAII window over the calling thread's counters: construct at the top
/// of the region under audit, read the deltas afterwards.
///
///   util::ScopedAllocationCount probe;
///   system.Disambiguate(problem, options);
///   uint64_t allocs = probe.allocations();   // exact, this thread only
///
/// Nesting is natural (each scope snapshots its own baseline). The scope
/// must be read on the thread that constructed it.
class ScopedAllocationCount {
 public:
  ScopedAllocationCount() : start_(ThisThreadAllocCounts()) {}

  uint64_t allocations() const {
    return ThisThreadAllocCounts().allocations - start_.allocations;
  }
  uint64_t deallocations() const {
    return ThisThreadAllocCounts().deallocations - start_.deallocations;
  }
  uint64_t bytes_allocated() const {
    return ThisThreadAllocCounts().bytes_allocated - start_.bytes_allocated;
  }

 private:
  AllocProbeCounters start_;
};

}  // namespace aida::util

#endif  // AIDA_UTIL_ALLOC_PROBE_H_
