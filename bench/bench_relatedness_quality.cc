// Reproduces Table 4.2: Spearman correlation of the relatedness measures
// (KWCS, KPCS, MW, KORE, KORE-LSH-G, KORE-LSH-F) with the gold candidate
// ranking, per domain, plus the link-poor-seed average where KORE's
// advantage over the link-based MW measure shows.
//
// Exits nonzero unless the paper's shape holds: KPCS and KORE above MW on
// the all-seeds average, KORE at least 0.1 above MW on link-poor seeds,
// and KORE-LSH-G within 0.02 of exact KORE on all seeds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "bench_common.h"
#include "core/candidates.h"
#include "core/relatedness.h"
#include "eval/spearman.h"
#include "kore/keyterm_cosine.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "synth/relatedness_gold.h"

using namespace aida;

namespace {

// Scores all 20 candidates of one seed under `measure`, honoring the
// measure's pair filter the way NED does (pruned pairs count as 0).
std::vector<double> ScoreCandidates(const core::RelatednessMeasure& measure,
                                    const core::CandidateModelStore& models,
                                    const synth::RelatednessSeed& seed) {
  core::Candidate seed_cand;
  seed_cand.entity = seed.seed;
  seed_cand.model = models.ModelFor(seed.seed);

  std::vector<core::Candidate> cands;
  for (kb::EntityId e : seed.ranked_candidates) {
    core::Candidate c;
    c.entity = e;
    c.model = models.ModelFor(e);
    cands.push_back(std::move(c));
  }

  std::set<size_t> allowed;  // candidate indices allowed by the filter
  if (measure.has_pair_filter()) {
    std::vector<const core::Candidate*> all;
    all.push_back(&seed_cand);
    for (const core::Candidate& c : cands) all.push_back(&c);
    for (const auto& [i, j] : measure.FilterPairs(all)) {
      if (i == 0) allowed.insert(j - 1);
      if (j == 0) allowed.insert(i - 1);
    }
  }

  std::vector<double> scores;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (measure.has_pair_filter() && allowed.count(i) == 0) {
      scores.push_back(0.0);
      continue;
    }
    scores.push_back(measure.Relatedness(seed_cand, cands[i]));
  }
  return scores;
}

}  // namespace

int main() {
  synth::RelatednessGoldConfig config;
  synth::RelatednessGold gold = synth::GenerateRelatednessGold(config);
  core::CandidateModelStore models(gold.knowledge_base.get());

  kore::KeytermCosineRelatedness kwcs(
      kore::KeytermCosineRelatedness::Mode::kKeyword);
  kore::KeytermCosineRelatedness kpcs(
      kore::KeytermCosineRelatedness::Mode::kKeyphrase);
  core::MilneWittenRelatedness mw(gold.knowledge_base.get());
  kore::KoreRelatedness kore;
  kore::KoreLshRelatedness lsh_g =
      kore::KoreLshRelatedness::Good(&gold.knowledge_base->keyphrases());
  kore::KoreLshRelatedness lsh_f =
      kore::KoreLshRelatedness::Fast(&gold.knowledge_base->keyphrases());

  std::vector<std::pair<std::string, const core::RelatednessMeasure*>>
      measures = {{"KWCS", &kwcs},   {"KPCS", &kpcs}, {"MW", &mw},
                  {"KORE", &kore},   {"KORE-LSH-G", &lsh_g},
                  {"KORE-LSH-F", &lsh_f}};

  // Gold scores: 20 for the top candidate down to 1 for the last.
  const size_t k = config.candidates_per_seed;
  std::vector<double> gold_scores(k);
  for (size_t i = 0; i < k; ++i) {
    gold_scores[i] = static_cast<double>(k - i);
  }

  // Per-measure, per-domain correlation sums; plus link-poor average.
  std::map<std::string, std::map<std::string, std::vector<double>>> by_domain;
  std::map<std::string, std::vector<double>> link_poor;
  std::map<std::string, std::vector<double>> all_seeds;
  const size_t kLinkPoorThreshold = 40;

  for (size_t s = 0; s < gold.seeds.size(); ++s) {
    const synth::RelatednessSeed& seed = gold.seeds[s];
    for (const auto& [name, measure] : measures) {
      std::vector<double> scores = ScoreCandidates(*measure, models, seed);
      double rho = eval::SpearmanCorrelation(scores, gold_scores);
      by_domain[name][seed.domain].push_back(rho);
      all_seeds[name].push_back(rho);
      if (gold.seed_inlinks[s] <= kLinkPoorThreshold) {
        link_poor[name].push_back(rho);
      }
    }
  }

  auto mean = [](const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double total = 0;
    for (double x : v) total += x;
    return total / static_cast<double>(v.size());
  };

  bench::PrintHeader(
      "Table 4.2 — Spearman correlation of relatedness measures with the "
      "gold ranking");
  std::printf("%-26s", "domain");
  for (const auto& [name, measure] : measures) {
    std::printf(" %10s", name.c_str());
  }
  std::printf("\n");
  bench::PrintRule(92);
  std::vector<std::string> domains = {"it_companies", "hollywood_celebrities",
                                      "television_series", "video_games",
                                      "chuck_norris"};
  for (const std::string& domain : domains) {
    std::printf("%-26s", domain.c_str());
    for (const auto& [name, measure] : measures) {
      std::printf(" %10.3f", mean(by_domain[name][domain]));
    }
    std::printf("\n");
  }
  bench::PrintRule(92);
  std::printf("%-26s", "avg (link-poor seeds)");
  for (const auto& [name, measure] : measures) {
    std::printf(" %10.3f", mean(link_poor[name]));
  }
  std::printf("\n%-26s", "avg (all seeds)");
  for (const auto& [name, measure] : measures) {
    std::printf(" %10.3f", mean(all_seeds[name]));
  }
  std::printf("\n");
  bench::PrintRule(92);
  std::printf(
      "Paper shape: keyphrase measures (KPCS ~0.70, KORE ~0.67) beat MW\n"
      "(~0.61) overall; on link-poor seeds KORE leads (0.64 vs MW 0.51);\n"
      "KORE-LSH-G stays close to exact KORE, KORE-LSH-F degrades.\n");
  const double mw_all = mean(all_seeds["MW"]);
  const double kpcs_all = mean(all_seeds["KPCS"]);
  const double kore_all = mean(all_seeds["KORE"]);
  const double lsh_g_all = mean(all_seeds["KORE-LSH-G"]);
  const double mw_poor = mean(link_poor["MW"]);
  const double kore_poor = mean(link_poor["KORE"]);
  const bool keyphrases_beat_mw = kpcs_all > mw_all && kore_all > mw_all;
  const bool kore_leads_link_poor = kore_poor >= mw_poor + 0.1;
  const bool lsh_g_tracks_kore = std::abs(lsh_g_all - kore_all) <= 0.02;
  std::printf("  %s KPCS %.3f and KORE %.3f > MW %.3f (all seeds)\n",
              keyphrases_beat_mw ? "PASS" : "FAIL", kpcs_all, kore_all,
              mw_all);
  std::printf("  %s KORE %.3f >= MW %.3f + 0.1 (link-poor seeds)\n",
              kore_leads_link_poor ? "PASS" : "FAIL", kore_poor, mw_poor);
  std::printf("  %s |KORE-LSH-G %.3f - KORE %.3f| <= 0.02 (all seeds)\n",
              lsh_g_tracks_kore ? "PASS" : "FAIL", lsh_g_all, kore_all);
  if (!keyphrases_beat_mw || !kore_leads_link_poor || !lsh_g_tracks_kore) {
    std::fprintf(stderr, "paper shape check FAILED (see above)\n");
    return 1;
  }
  return 0;
}
