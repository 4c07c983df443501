#include "core/aida.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/mention_entity_graph.h"
#include "core/robustness.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace aida::core {

Aida::Aida(const CandidateModelStore* models,
           const RelatednessMeasure* relatedness, AidaOptions options)
    : models_(models),
      relatedness_(relatedness),
      options_(options),
      similarity_(options.word_weight) {
  AIDA_CHECK(models_ != nullptr);
  AIDA_CHECK(!options_.use_coherence || relatedness_ != nullptr);
}

std::string Aida::name() const {
  std::string n = "aida";
  if (options_.use_prior) {
    n += options_.use_prior_test ? "+r-prior" : "+prior";
  }
  n += "+sim-k";
  if (options_.use_coherence) {
    n += options_.use_coherence_test ? "+r-coh" : "+coh";
    if (relatedness_ != nullptr) {
      n += '(';
      n += relatedness_->name();
      n += ')';
    }
  }
  return n;
}

DisambiguationResult Aida::Disambiguate(
    const DisambiguationProblem& problem,
    const DisambiguateOptions& options) const {
  AIDA_CHECK(problem.tokens != nullptr);
  const kb::KnowledgeBase& kb = models_->knowledge_base();
  util::Stopwatch total_watch;
  util::Stopwatch phase_watch;
  auto tripped = [&] {
    return options.cancel != nullptr && options.cancel->cancelled();
  };

  ExtendedVocabulary plain_vocab(&kb.keyphrases());
  const ExtendedVocabulary& vocab =
      options.vocab != nullptr ? *options.vocab : plain_vocab;
  DocumentContext context(*problem.tokens, vocab);

  const size_t num_mentions = problem.mentions.size();
  DisambiguationResult result;
  result.mentions.resize(num_mentions);

  // Cooperative cancellation, checked between phases: a request whose
  // deadline already passed (e.g. while queued in serve::NedService) must
  // not pay for candidate lookups at all.
  if (tripped()) {
    result.cancelled = true;
    result.stats.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }

  // ---- Candidate resolution and local features ------------------------------
  std::vector<std::vector<Candidate>> owned(num_mentions);
  std::vector<const std::vector<Candidate>*> candidates(num_mentions);
  std::vector<std::vector<double>> priors(num_mentions);
  std::vector<std::vector<double>> sims(num_mentions);
  std::vector<std::vector<double>> combined(num_mentions);
  std::vector<uint8_t> fixed(num_mentions, 0);
  std::vector<size_t> fixed_choice(num_mentions, 0);

  for (size_t m = 0; m < num_mentions; ++m) {
    if (tripped()) break;
    const ProblemMention& mention = problem.mentions[m];
    if (mention.candidates_resolved) {
      candidates[m] = &mention.candidates;
    } else {
      owned[m] = LookupCandidates(*models_, mention.surface);
      candidates[m] = &owned[m];
    }
    const std::vector<Candidate>& cands = *candidates[m];
    priors[m].reserve(cands.size());
    sims[m].reserve(cands.size());
    for (const Candidate& cand : cands) {
      AIDA_CHECK(cand.model != nullptr);
      priors[m].push_back(cand.prior);
      sims[m].push_back(cand.weight_scale *
                        similarity_.Score(context, mention.begin_token,
                                          mention.end_token, *cand.model));
    }
    if (cands.empty()) continue;

    std::vector<double> sim_dist = robustness::ToDistribution(sims[m]);
    bool prior_ok =
        options_.use_prior &&
        (!options_.use_prior_test ||
         robustness::PriorTestPasses(priors[m], options_.prior_threshold));
    combined[m].resize(cands.size());
    for (size_t c = 0; c < cands.size(); ++c) {
      combined[m][c] = prior_ok ? options_.prior_weight * priors[m][c] +
                                      options_.sim_weight * sim_dist[c]
                                : sim_dist[c];
    }

    // Coherence robustness test: when prior and similarity agree, fix the
    // mention locally and keep it out of the joint optimization. A mention
    // without any similarity signal is never fixed — its uniform sim
    // distribution "agrees" with everything, but carries no evidence.
    if (options_.use_coherence && options_.use_coherence_test && prior_ok) {
      double sim_mass = 0.0;
      for (double s : sims[m]) sim_mass += s;
      std::vector<double> prior_dist = robustness::ToDistribution(priors[m]);
      double l1 = robustness::PriorSimilarityL1(prior_dist, sim_dist);
      // Fix when similarity evidence agrees with the dominant prior, or
      // when there is no similarity evidence to contradict it.
      if (sim_mass == 0.0 || l1 <= options_.coherence_threshold) {
        fixed[m] = 1;
        fixed_choice[m] = robustness::ArgMax(combined[m]);
      }
    }
  }

  // ---- Local-only path -------------------------------------------------------
  auto fill_result = [&](size_t m, int32_t chosen,
                         const std::vector<double>& scores) {
    MentionResult& out = result.mentions[m];
    const std::vector<Candidate>& cands = *candidates[m];
    out.candidate_entities.reserve(cands.size());
    out.candidate_scores = scores;
    for (const Candidate& cand : cands) {
      out.candidate_entities.push_back(cand.entity);
      out.candidate_is_placeholder.push_back(cand.is_placeholder);
    }
    if (chosen >= 0) {
      const Candidate& cand = cands[static_cast<size_t>(chosen)];
      out.entity = cand.is_placeholder ? kb::kNoEntity : cand.entity;
      out.chose_placeholder = cand.is_placeholder;
      out.score = scores[static_cast<size_t>(chosen)];
    }
  };

  result.stats.local_seconds = phase_watch.ElapsedSeconds();

  auto fill_local_only = [&] {
    for (size_t m = 0; m < num_mentions; ++m) {
      // A cancel during the local phase leaves the mentions it never
      // reached unresolved: their results stay empty, as after a
      // pre-phase cancel.
      if (candidates[m] == nullptr) continue;
      if (candidates[m]->empty()) {
        fill_result(m, -1, {});
        continue;
      }
      fill_result(m, static_cast<int32_t>(robustness::ArgMax(combined[m])),
                  combined[m]);
    }
    result.stats.total_seconds = total_watch.ElapsedSeconds();
  };

  // A token that tripped during the local phase skips everything
  // downstream and degrades to local-only choices.
  if (tripped()) {
    fill_local_only();
    result.cancelled = true;
    return result;
  }

  if (!options_.use_coherence) {
    fill_local_only();
    return result;
  }

  // ---- Graph construction ----------------------------------------------------
  phase_watch.Reset();
  // One table of the document's candidate entities, with the measure's
  // kept pairs, serves both the graph build and the re-scoring below, so
  // the solver and the final scores read one coherence model. Reused per
  // thread across requests.
  thread_local DocumentEntityTable entities;
  entities.Build(candidates, *relatedness_);
  // However the request ends, the worker keeps a bounded part of the
  // document's relatedness values.
  const struct ReleaseOnExit {
    DocumentEntityTable& table;
    ~ReleaseOnExit() { table.Release(); }
  } release_on_exit{entities};
  GraphBuildInput input;
  input.me_scale = options_.me_scale;
  input.ee_scale = options_.ee_scale;
  input.mentions.resize(num_mentions);
  for (size_t m = 0; m < num_mentions; ++m) {
    GraphBuildInput::MentionEntry& entry = input.mentions[m];
    entry.candidates = candidates[m];
    if (fixed[m]) {
      entry.first = fixed_choice[m];
      entry.me_weights.push_back(combined[m][fixed_choice[m]]);
    } else {
      entry.me_weights = combined[m];
    }
  }

  MentionEntityGraph meg =
      BuildMentionEntityGraph(input, entities, *relatedness_,
                              GraphBuildContext{.cancel = options.cancel});
  result.stats.relatedness_computations = meg.relatedness_computations;
  result.stats.graph_relatedness_computations = meg.relatedness_computations;
  result.stats.relatedness_cache_hits = meg.relatedness_cache_hits;
  result.stats.graph_build_seconds = phase_watch.ElapsedSeconds();

  // Deadline tripped while building the graph (the relatedness-dominated
  // phase, polled inside the pair evaluation loop): skip the solver and
  // the full candidate re-scoring.
  if (meg.aborted || tripped()) {
    fill_local_only();
    result.cancelled = true;
    return result;
  }

  phase_watch.Reset();
  GraphSolution sol = SolveMentionEntityGraph(
      meg, options_.graph, GraphSolveContext{.cancel = options.cancel});
  result.stats.graph_iterations = sol.iterations;
  result.stats.graph_solve_seconds = phase_watch.ElapsedSeconds();

  // The solver polls the token inside its pre-prune, peel, and
  // post-processing loops; an aborted solution is partial and discarded.
  if (sol.aborted) {
    fill_local_only();
    result.cancelled = true;
    return result;
  }

  // ---- Map back and score all original candidates -----------------------------
  std::vector<const Candidate*> chosen(num_mentions, nullptr);
  std::vector<uint32_t> chosen_slot(num_mentions,
                                    DocumentEntityTable::kNoSlot);
  std::vector<int32_t> chosen_original(num_mentions, -1);
  for (size_t m = 0; m < num_mentions; ++m) {
    if (sol.chosen_candidate[m] < 0) continue;
    const size_t c =
        input.mentions[m].first + static_cast<size_t>(sol.chosen_candidate[m]);
    chosen_original[m] = static_cast<int32_t>(c);
    chosen[m] = &(*candidates[m])[c];
    chosen_slot[m] = entities.Slots(m)[c];
  }

  // Weighted-degree style candidate scores: local weight plus coherence to
  // the entities chosen for the other mentions (used by the confidence
  // machinery of Section 5.4). A pair the measure's filter does not keep
  // adds nothing, as it adds no edge to the graph. A pair of in-KB
  // entities reads the value the graph build or an earlier candidate
  // already had from the measure; only the others reach the measure.
  entities.Project(chosen_slot);
  std::vector<std::vector<double>> rescored(num_mentions);
  for (size_t m = 0; m < num_mentions; ++m) {
    if (tripped()) break;
    const std::vector<Candidate>& cands = *candidates[m];
    if (cands.empty()) continue;
    const std::span<const uint32_t> slots = entities.Slots(m);
    std::vector<double>& scores = rescored[m];
    scores.assign(cands.size(), 0.0);
    for (size_t c = 0; c < cands.size(); ++c) {
      double coherence = 0.0;
      for (size_t other = 0; other < num_mentions; ++other) {
        if (other == m || chosen[other] == nullptr) continue;
        if (!entities.Kept(slots[c], chosen_slot[other])) continue;
        double rel;
        if (!entities.Recall(slots[c], chosen_slot[other], &rel)) {
          bool cache_hit = false;
          rel = relatedness_->RelatednessTracked(cands[c], *chosen[other],
                                                 &cache_hit);
          if (cache_hit) {
            ++result.stats.relatedness_cache_hits;
          } else {
            ++result.stats.relatedness_computations;
          }
          entities.Remember(slots[c], chosen_slot[other], rel);
        }
        coherence += cands[c].weight_scale * chosen[other]->weight_scale * rel;
      }
      scores[c] = options_.me_scale * combined[m][c] +
                  options_.ee_scale * coherence /
                      std::max<double>(1.0, static_cast<double>(num_mentions));
    }
  }
  if (tripped()) {
    fill_local_only();
    result.cancelled = true;
    return result;
  }
  for (size_t m = 0; m < num_mentions; ++m) {
    if (candidates[m]->empty()) {
      fill_result(m, -1, {});
      continue;
    }
    fill_result(m, chosen_original[m], rescored[m]);
  }
  result.stats.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace aida::core
