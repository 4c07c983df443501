#ifndef AIDA_UTIL_FUNCTION_EFFECTS_H_
#define AIDA_UTIL_FUNCTION_EFFECTS_H_

/// Function-effect annotations for the steady-state request path.
///
/// The serving layer's tail-latency budget rests on two invariants that
/// nothing enforced until now: once a worker is warm, processing a
/// request must stay (a) off blocking syscalls and unbounded waits and
/// (b) off the allocator. Both rot silently — a convenience std::string
/// here, a std::map there — and only show up later as p99 regressions.
/// These macros encode the discipline as compiler-checked contracts, the
/// same playbook as util/thread_annotations.h (locking) and
/// util/lifetime.h (view lifetimes): Clang >= 20 verifies them via the
/// function-effect analysis ([[clang::nonblocking]] /
/// [[clang::nonallocating]], -Wfunction-effects); other compilers see
/// no-ops. tools/run_static_analysis.sh promotes the diagnostics to
/// errors in its dedicated build (-DAIDA_FUNCTION_EFFECT_ANALYSIS=ON),
/// and src/util/alloc_probe.h is the compiler-independent runtime
/// backstop that measures what the annotations promise.
///
/// Vocabulary (DESIGN.md §6 "Function-effect discipline"):
///  * AIDA_NONBLOCKING — the strong contract: no unbounded waits, no
///    blocking syscalls, no allocation, no throw (nonblocking implies
///    nonallocating in Clang's lattice). Used on the lock-free leaves:
///    histogram Record, metrics slot updates, flat KB reads, scoring
///    kernels.
///  * AIDA_NONALLOCATING — the weaker contract for paths that may spin
///    on a bounded critical section but must not touch the allocator.
///  * AIDA_EFFECT_ESCAPE_BEGIN("reason") / AIDA_EFFECT_ESCAPE_END — the
///    audited opt-out, bracketing a statement range inside an annotated
///    function whose effects are deliberate and bounded: a cold branch
///    (cache-miss relatedness computation), or a mutex whose critical
///    section is O(1) and never parks (a shard probe, a per-worker
///    metrics map). Every escape must carry a reason string; the region
///    stays visible in code review and greppable
///    (`grep -rn AIDA_EFFECT_ESCAPE src/`), unlike a bare pragma. The
///    policy mirrors AIDA_NO_THREAD_SAFETY_ANALYSIS: zero escapes is the
///    goal, each one is a documented audit, never a reflex.
///  * AIDA_BLOCKING / AIDA_ALLOCATING — explicit negative markers for
///    functions whose blocking/allocating nature is the point (queue Pop,
///    snapshot acquisition), so a hot-path caller cannot absorb them by
///    inference and reviewers see the contract at the declaration.
///
/// Placement: the effect attributes attach to the function TYPE, so the
/// macros go after the parameter list (and after noexcept/const), like a
/// trailing thread-safety annotation:
///
///   void Record(double seconds) AIDA_NONBLOCKING;
///   T* TryPop() AIDA_NONBLOCKING;
///   std::optional<T> Pop() AIDA_BLOCKING;   // parks until work arrives
///
/// Virtual interface note: the public RelatednessMeasure / NedSystem
/// virtuals stay unannotated — user subclasses may legitimately block —
/// so the discipline is applied to the concrete kernels and the
/// infrastructure underneath, and cold calls through the virtuals sit
/// behind audited escapes.

// The attributes and the -Wfunction-effects verification shipped in
// Clang 20; __has_cpp_attribute keeps the gate exact (a newer compiler
// advertising the attribute enables the contract automatically).
#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::nonblocking)
#define AIDA_FUNCTION_EFFECTS_AVAILABLE 1
#endif
#endif

#ifdef AIDA_FUNCTION_EFFECTS_AVAILABLE

#define AIDA_NONBLOCKING [[clang::nonblocking]]
#define AIDA_NONALLOCATING [[clang::nonallocating]]
#define AIDA_BLOCKING [[clang::blocking]]
#define AIDA_ALLOCATING [[clang::allocating]]

/// Audited opt-out: suppresses -Wfunction-effects for the bracketed
/// statements. `reason` is not emitted into the binary — it exists so
/// the justification lives AT the escape and code review can hold the
/// line ("every escape explains itself").
#define AIDA_EFFECT_ESCAPE_BEGIN(reason)                        \
  _Pragma("clang diagnostic push")                              \
      _Pragma("clang diagnostic ignored \"-Wunknown-warning-option\"") \
          _Pragma("clang diagnostic ignored \"-Wfunction-effects\"")
#define AIDA_EFFECT_ESCAPE_END _Pragma("clang diagnostic pop")

#else  // !AIDA_FUNCTION_EFFECTS_AVAILABLE

#define AIDA_NONBLOCKING     // no-op: needs Clang >= 20
#define AIDA_NONALLOCATING   // no-op: needs Clang >= 20
#define AIDA_BLOCKING        // no-op: needs Clang >= 20
#define AIDA_ALLOCATING      // no-op: needs Clang >= 20
#define AIDA_EFFECT_ESCAPE_BEGIN(reason)
#define AIDA_EFFECT_ESCAPE_END

#endif  // AIDA_FUNCTION_EFFECTS_AVAILABLE

#endif  // AIDA_UTIL_FUNCTION_EFFECTS_H_
