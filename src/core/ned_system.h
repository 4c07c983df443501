#ifndef AIDA_CORE_NED_SYSTEM_H_
#define AIDA_CORE_NED_SYSTEM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "util/cancellation.h"

namespace aida::core {

/// Cooperative cancellation handle for one disambiguation call; the class
/// itself lives in util/cancellation.h. NED systems poll cancelled()
/// between AND inside their phases (candidate/local features, batched
/// relatedness, solver iterations) and bail out early with whatever they
/// have — the mechanism behind per-request deadlines in
/// serve::NedService. Checking is cooperative: a system that ignores the
/// token simply runs to completion, and the serving layer still enforces
/// the deadline on the result's status.
using CancellationToken = util::CancellationToken;

/// One mention to disambiguate. When `candidates` is empty and
/// `candidates_resolved` is false, the NED system performs the dictionary
/// lookup itself; callers (the emerging-entity pipeline, the perturbation
/// confidence estimators) may instead pre-resolve and edit the candidate
/// space, e.g. to inject placeholder candidates or force-fix an entity.
struct ProblemMention {
  std::string surface;
  size_t begin_token = 0;
  size_t end_token = 0;  // exclusive
  std::vector<Candidate> candidates;
  bool candidates_resolved = false;
};

/// A disambiguation task: a tokenized document plus its mentions. The
/// problem describes only the INPUT TEXT; per-call execution knobs
/// (vocabulary override, cancellation) live in DisambiguateOptions so the
/// problem struct stops accreting optional non-owning pointers.
struct DisambiguationProblem {
  /// Not owned; must outlive the call.
  const std::vector<std::string>* tokens = nullptr;
  std::vector<ProblemMention> mentions;
};

/// Per-call execution options for NedSystem::Disambiguate. Everything is
/// optional and non-owning; all pointees must outlive the call. New knobs
/// (score calibration, per-call budgets, tracing hooks) belong here, not
/// in DisambiguationProblem.
struct DisambiguateOptions {
  /// Extended vocabulary (KB words plus harvested out-of-KB words). When
  /// null, systems fall back to the plain KB vocabulary. Needed whenever
  /// candidate models reference extension word ids.
  const ExtendedVocabulary* vocab = nullptr;
  /// Cooperative-cancellation token. Aida polls it between phases and
  /// inside the batched-relatedness and solver loops, degrading to
  /// local-only results when it trips; see
  /// DisambiguationResult::cancelled.
  const CancellationToken* cancel = nullptr;
};

/// Per-mention output.
struct MentionResult {
  /// Chosen entity; kb::kNoEntity when the mention has no candidates or a
  /// placeholder was chosen.
  kb::EntityId entity = kb::kNoEntity;
  /// True when an emerging-entity placeholder won.
  bool chose_placeholder = false;
  /// Final score of the chosen candidate (weighted-degree scale).
  double score = 0.0;
  /// Full per-candidate scoring on the same scale, for confidence
  /// normalization (Section 5.4.1). Parallel arrays.
  std::vector<kb::EntityId> candidate_entities;
  std::vector<double> candidate_scores;
  std::vector<bool> candidate_is_placeholder;
};

/// Per-call efficiency counters of one Disambiguate invocation — the
/// quantities the efficiency experiments (Table 4.4) report. Returned by
/// value inside DisambiguationResult so concurrent calls (e.g. from
/// BatchDisambiguator workers sharing one NedSystem) never race on shared
/// mutable state; sum them with operator+= for batch-level totals.
struct DisambiguationStats {
  /// Evaluations of the underlying RelatednessMeasure performed on behalf
  /// of this call (cache misses, when a cache is in play).
  uint64_t relatedness_computations = 0;
  /// The part of relatedness_computations spent building the
  /// mention-entity graph: the entity-entity comparisons that Table 4.4
  /// counts, without the final re-scoring of every candidate.
  uint64_t graph_relatedness_computations = 0;
  /// Pair values served from a shared RelatednessCache instead.
  uint64_t relatedness_cache_hits = 0;
  /// Graph-solver work: greedy peel steps plus post-processing
  /// (exhaustive assignments or local-search proposals) evaluated.
  uint64_t graph_iterations = 0;
  /// Always 0: a call runs serially on its caller's thread. Kept only
  /// because the serving benchmark (nedbench) reports it as
  /// task.tasks_per_doc; drop it together with that metric.
  uint64_t parallel_tasks = 0;
  /// Per-phase wall clock, seconds. Phases that did not run stay 0.
  double local_seconds = 0.0;        // candidate lookup + local features
  double graph_build_seconds = 0.0;  // mention-entity graph construction
  double graph_solve_seconds = 0.0;  // Algorithm 1 + post-processing
  double total_seconds = 0.0;

  double RelatednessCacheHitRate() const {
    const uint64_t lookups = relatedness_computations + relatedness_cache_hits;
    return lookups == 0 ? 0.0 : static_cast<double>(relatedness_cache_hits) /
                                    static_cast<double>(lookups);
  }

  DisambiguationStats& operator+=(const DisambiguationStats& other) {
    relatedness_computations += other.relatedness_computations;
    graph_relatedness_computations += other.graph_relatedness_computations;
    relatedness_cache_hits += other.relatedness_cache_hits;
    graph_iterations += other.graph_iterations;
    parallel_tasks += other.parallel_tasks;
    local_seconds += other.local_seconds;
    graph_build_seconds += other.graph_build_seconds;
    graph_solve_seconds += other.graph_solve_seconds;
    total_seconds += other.total_seconds;
    return *this;
  }
};

/// Output of one NED run, parallel to the problem's mentions.
struct DisambiguationResult {
  std::vector<MentionResult> mentions;
  /// Efficiency counters of the call that produced this result.
  DisambiguationStats stats;
  /// True when the call observed its CancellationToken tripped (deadline
  /// or explicit Cancel) and returned early, or when a serving layer shed
  /// the request before it ran. Mentions and stats may be partial —
  /// AggregateStats skips such results so shed requests cannot dilute
  /// phase-time totals.
  bool cancelled = false;
};

/// Abstract joint named-entity disambiguation system. AIDA and all
/// baselines implement this; the NED-EE machinery of chapter 5 treats any
/// implementation as a black box.
class NedSystem {
 public:
  virtual ~NedSystem() = default;

  /// Disambiguates all mentions of `problem` jointly, honouring the
  /// per-call `options` (vocabulary override, cooperative cancellation).
  /// Callers without special needs pass `{}`; the former single-argument
  /// back-compat overload has been removed.
  virtual DisambiguationResult Disambiguate(
      const DisambiguationProblem& problem,
      const DisambiguateOptions& options) const = 0;

  /// Human-readable system name for reports.
  virtual std::string name() const = 0;
};

}  // namespace aida::core

#endif  // AIDA_CORE_NED_SYSTEM_H_
