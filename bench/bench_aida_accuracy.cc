// Reproduces Figure 3.3 / Table 3.2: macro and micro accuracy of the AIDA
// feature ablations against the Cucerzan and Kulkarni baselines on the
// held-out test split of the CoNLL-like corpus. The paper's split uses
// documents 1163-1393 as test; we do the same on the synthetic corpus.
//
// Results are also written to BENCH_aida_accuracy.json at the repo root
// for machine consumption.
//
// Exits nonzero unless the "r-coh + rel-cache" row, full AIDA behind a
// shared RelatednessCache, has exactly the macro and micro accuracy of
// the uncached full-AIDA row and evaluates fewer relatedness pairs.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/aida.h"
#include "core/baselines.h"
#include "core/relatedness_cache.h"
#include "eval/metrics.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"
#include "util/stopwatch.h"

using namespace aida;

namespace {

struct Row {
  std::string name;
  double macro = 0;
  double micro = 0;
  double seconds = 0;
  core::DisambiguationStats stats;
};

Row Evaluate(const std::string& name, const core::NedSystem& system,
             const corpus::Corpus& docs, size_t first, size_t last) {
  eval::NedEvaluator evaluator;
  util::Stopwatch watch;
  Row row;
  for (size_t d = first; d < last && d < docs.size(); ++d) {
    core::DisambiguationProblem problem = bench::ToProblem(docs[d]);
    core::DisambiguationResult result = system.Disambiguate(problem, {});
    row.stats += result.stats;
    evaluator.AddDocument(docs[d], result);
  }
  row.name = name;
  row.macro = 100.0 * evaluator.MacroAccuracy();
  row.micro = 100.0 * evaluator.MicroAccuracy();
  row.seconds = watch.ElapsedSeconds();
  return row;
}

}  // namespace

int main() {
  synth::CorpusPreset preset = synth::ConllPreset();
  synth::World world = synth::WorldGenerator(preset.world).Generate();
  corpus::Corpus docs =
      synth::CorpusGenerator(&world, preset.corpus).Generate();
  const size_t test_first = 1162;  // documents 1163..1393, as in the paper
  const size_t test_last = docs.size();

  core::CandidateModelStore models(world.knowledge_base.get());
  core::MilneWittenRelatedness mw(world.knowledge_base.get());

  std::vector<Row> rows;

  {  // prior only
    core::PriorBaseline system(&models);
    rows.push_back(Evaluate("prior", system, docs, test_first, test_last));
  }
  {  // sim-k: keyphrase similarity only
    core::AidaOptions options;
    options.use_prior = false;
    options.use_coherence = false;
    core::Aida system(&models, &mw, options);
    rows.push_back(Evaluate("sim-k", system, docs, test_first, test_last));
  }
  {  // prior sim-k: unconditional combination
    core::AidaOptions options;
    options.use_prior = true;
    options.use_prior_test = false;
    options.use_coherence = false;
    core::Aida system(&models, &mw, options);
    rows.push_back(
        Evaluate("prior sim-k", system, docs, test_first, test_last));
  }
  {  // r-prior sim-k: prior behind the robustness test
    core::AidaOptions options;
    options.use_coherence = false;
    core::Aida system(&models, &mw, options);
    rows.push_back(
        Evaluate("r-prior sim-k", system, docs, test_first, test_last));
  }
  {  // r-prior sim-k coh: plus graph coherence, no coherence test
    core::AidaOptions options;
    options.use_coherence_test = false;
    core::Aida system(&models, &mw, options);
    rows.push_back(
        Evaluate("r-prior sim-k coh", system, docs, test_first, test_last));
  }
  const size_t full_row = rows.size();
  {  // r-prior sim-k r-coh: full AIDA
    core::AidaOptions options;
    core::Aida system(&models, &mw, options);
    rows.push_back(
        Evaluate("r-prior sim-k r-coh", system, docs, test_first, test_last));
  }
  const size_t cached_row = rows.size();
  {  // full AIDA with a shared relatedness cache: same accuracy, fewer
     // relatedness evaluations (cross-document pair reuse)
    core::RelatednessCache cache;
    core::CachedRelatednessMeasure cached_mw(&mw, &cache);
    core::AidaOptions options;
    core::Aida system(&models, &cached_mw, options);
    rows.push_back(
        Evaluate("r-coh + rel-cache", system, docs, test_first, test_last));
  }
  {  // Cucerzan
    core::CucerzanBaseline system(&models);
    rows.push_back(Evaluate("cuc", system, docs, test_first, test_last));
  }
  {  // Kulkarni similarity
    core::KulkarniBaseline system(&models, nullptr,
                                  core::KulkarniBaseline::Mode::kSimilarity);
    rows.push_back(Evaluate("kul-s", system, docs, test_first, test_last));
  }
  {  // Kulkarni similarity + prior
    core::KulkarniBaseline system(
        &models, nullptr, core::KulkarniBaseline::Mode::kSimilarityPrior);
    rows.push_back(Evaluate("kul-sp", system, docs, test_first, test_last));
  }
  {  // Kulkarni collective inference
    core::KulkarniBaseline system(&models, &mw,
                                  core::KulkarniBaseline::Mode::kCollective);
    rows.push_back(Evaluate("kul-ci", system, docs, test_first, test_last));
  }

  bench::PrintHeader(
      "Table 3.2 / Figure 3.3 — NED accuracy on the CoNLL-like test split "
      "(231 docs)");
  std::printf("%-22s %9s %9s %9s %12s %8s\n", "method", "MacA %", "MicA %",
              "sec", "rel evals", "hit %");
  bench::PrintRule(76);
  for (const Row& row : rows) {
    std::printf("%-22s %9.2f %9.2f %9.2f %12llu %7.1f%%\n", row.name.c_str(),
                row.macro, row.micro, row.seconds,
                static_cast<unsigned long long>(
                    row.stats.relatedness_computations),
                100.0 * row.stats.RelatednessCacheHitRate());
  }
  bench::PrintRule(76);
  std::printf(
      "Paper shape: prior ~70/75, sim-k ~79/78, r-prior sim-k ~80/81,\n"
      "+coh ~82/82, +r-coh best (82.6/82.0); Cuc ~44/51, Kul s ~58/63,\n"
      "Kul sp ~77/72, Kul CI ~77/73. Expected ordering:\n"
      "full AIDA > ablations > collective Kulkarni > prior > Cucerzan.\n"
      "'r-coh + rel-cache' must match full AIDA's accuracy exactly while\n"
      "evaluating fewer relatedness pairs (the rest are cache hits).\n");
  const Row& full = rows[full_row];
  const Row& cached = rows[cached_row];
  const bool same_accuracy =
      cached.macro == full.macro && cached.micro == full.micro;
  const bool fewer_evals = cached.stats.relatedness_computations <
                           full.stats.relatedness_computations;
  std::printf("  %s rel-cache accuracy %.2f / %.2f == r-coh %.2f / %.2f\n",
              same_accuracy ? "PASS" : "FAIL", cached.macro, cached.micro,
              full.macro, full.micro);
  std::printf("  %s rel-cache evaluations %llu < r-coh %llu\n",
              fewer_evals ? "PASS" : "FAIL",
              static_cast<unsigned long long>(
                  cached.stats.relatedness_computations),
              static_cast<unsigned long long>(
                  full.stats.relatedness_computations));

  const std::string json_path =
      bench::JsonOutputPath("BENCH_aida_accuracy.json");
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"test_docs\": %zu,\n  \"methods\": [\n",
               test_last - test_first);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"method\": \"%s\", \"macro\": %.2f, \"micro\": %.2f, "
                 "\"seconds\": %.2f, \"relatedness_evals\": %llu, "
                 "\"cache_hit_rate\": %.4f}%s\n",
                 row.name.c_str(), row.macro, row.micro, row.seconds,
                 static_cast<unsigned long long>(
                     row.stats.relatedness_computations),
                 row.stats.RelatednessCacheHitRate(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  if (!same_accuracy || !fewer_evals) {
    std::fprintf(stderr, "rel-cache check FAILED (see above)\n");
    return 1;
  }
  return 0;
}
