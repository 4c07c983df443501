// Google-benchmark microbenchmarks for the performance-critical
// primitives: min-hash sketching, two-stage LSH grouping, KORE and
// Milne-Witten pair computation, the document word index and
// keyphrase-cover context scoring, the constrained dense-subgraph solver,
// and Algorithm 1 end to end on one mention-entity graph.

#include <benchmark/benchmark.h>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/context_similarity.h"
#include "core/graph_disambiguator.h"
#include "core/mention_entity_graph.h"
#include "core/relatedness.h"
#include "core/robustness.h"
#include "graph/dense_subgraph.h"
#include "hashing/minhash.h"
#include "hashing/two_stage_hasher.h"
#include "kore/kore_relatedness.h"
#include "synth/corpus_generator.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "util/rng.h"

namespace {

using namespace aida;

// A mid-sized shared world for all micro benchmarks.
struct Fixture {
  synth::World world;
  corpus::Corpus docs;
  std::unique_ptr<core::CandidateModelStore> models;

  static const Fixture& Get() {
    static const Fixture& fixture = *new Fixture();
    return fixture;
  }

 private:
  Fixture() {
    synth::WorldConfig config;
    config.seed = 31337;
    config.num_topics = 20;
    config.num_entities = 2000;
    config.num_shared_names = 500;
    world = synth::WorldGenerator(config).Generate();
    synth::CorpusConfig corpus_config;
    corpus_config.num_documents = 10;
    corpus_config.doc_tokens = 216;
    corpus_config.entities_per_doc = 12;
    docs = synth::CorpusGenerator(&world, corpus_config).Generate();
    models = std::make_unique<core::CandidateModelStore>(
        world.knowledge_base.get());
  }
};

void BM_MinHashSketch(benchmark::State& state) {
  hashing::MinHasher hasher(static_cast<size_t>(state.range(0)), 7);
  std::vector<uint32_t> items;
  util::Rng rng(1);
  for (int i = 0; i < 60; ++i) {
    items.push_back(static_cast<uint32_t>(rng.UniformInt(1 << 20)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Sketch(items));
  }
}
BENCHMARK(BM_MinHashSketch)->Arg(4)->Arg(200)->Arg(2000);

void BM_TwoStageGrouping(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  hashing::TwoStageHasher hasher(fixture.world.knowledge_base->keyphrases(),
                                 hashing::LshGoodConfig());
  std::vector<kb::EntityId> entities;
  for (kb::EntityId e = 0; e < static_cast<kb::EntityId>(state.range(0));
       ++e) {
    entities.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.GroupEntities(entities));
  }
}
BENCHMARK(BM_TwoStageGrouping)->Arg(50)->Arg(200);

void BM_KorePair(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  kore::KoreRelatedness kore;
  core::Candidate a;
  a.entity = 0;
  a.model = fixture.models->ModelFor(0);
  core::Candidate b;
  b.entity = 1;
  b.model = fixture.models->ModelFor(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kore.Relatedness(a, b));
  }
}
BENCHMARK(BM_KorePair);

void BM_MilneWittenPair(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  core::MilneWittenRelatedness mw(fixture.world.knowledge_base.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mw.RelatednessById(0, 1));
  }
}
BENCHMARK(BM_MilneWittenPair);

// Every fixture document's index, with the candidate lists of its gold
// mentions: the local-feature phase's inputs, built once.
struct ContextFixture {
  core::ExtendedVocabulary vocab;
  std::vector<core::DocumentContext> contexts;
  std::vector<std::vector<std::vector<core::Candidate>>> candidates;
  size_t scores = 0;

  static const ContextFixture& Get() {
    static const ContextFixture& fixture = *new ContextFixture();
    return fixture;
  }

 private:
  ContextFixture()
      : vocab(&Fixture::Get().world.knowledge_base->keyphrases()) {
    const Fixture& base = Fixture::Get();
    for (const corpus::Document& doc : base.docs) {
      contexts.emplace_back(doc.tokens, vocab);
      candidates.emplace_back();
      for (const corpus::GoldMention& gm : doc.mentions) {
        candidates.back().push_back(
            core::LookupCandidates(*base.models, gm.surface));
        scores += candidates.back().back().size();
      }
    }
  }
};

// Scores every candidate of every fixture document at its mention's span,
// as the local-feature phase of a request does.
void BM_ContextSimilarity(benchmark::State& state) {
  const Fixture& base = Fixture::Get();
  const ContextFixture& fixture = ContextFixture::Get();
  core::ContextSimilarity similarity;
  for (auto _ : state) {
    double total = 0.0;
    for (size_t d = 0; d < base.docs.size(); ++d) {
      const std::vector<corpus::GoldMention>& mentions = base.docs[d].mentions;
      for (size_t m = 0; m < mentions.size(); ++m) {
        for (const core::Candidate& cand : fixture.candidates[d][m]) {
          total += similarity.Score(fixture.contexts[d],
                                    mentions[m].begin_token,
                                    mentions[m].end_token, *cand.model);
        }
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.scores));
}
BENCHMARK(BM_ContextSimilarity);

// Builds the index of every fixture document.
void BM_DocumentContext(benchmark::State& state) {
  const Fixture& base = Fixture::Get();
  const ContextFixture& fixture = ContextFixture::Get();
  for (auto _ : state) {
    for (const corpus::Document& doc : base.docs) {
      core::DocumentContext context(doc.tokens, fixture.vocab);
      benchmark::DoNotOptimize(context);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.docs.size()));
}
BENCHMARK(BM_DocumentContext);

void BM_DenseSubgraph(benchmark::State& state) {
  // Random bipartite-ish instance: m mentions, 5m entities.
  const size_t mentions = static_cast<size_t>(state.range(0));
  const size_t entities = mentions * 5;
  util::Rng rng(11);
  graph::WeightedGraph g(mentions + entities);
  std::vector<bool> removable(mentions + entities, false);
  std::vector<std::vector<graph::NodeId>> groups(mentions);
  for (size_t m = 0; m < mentions; ++m) {
    for (int c = 0; c < 5; ++c) {
      graph::NodeId node =
          static_cast<graph::NodeId>(mentions + rng.UniformInt(entities));
      removable[node] = true;
      groups[m].push_back(node);
      g.AddEdge(static_cast<graph::NodeId>(m), node, rng.UniformDouble());
    }
  }
  for (size_t e = 0; e < entities; ++e) {
    graph::NodeId u = static_cast<graph::NodeId>(mentions + e);
    graph::NodeId v = static_cast<graph::NodeId>(
        mentions + rng.UniformInt(entities));
    if (u != v && removable[u] && removable[v]) {
      g.AddEdge(u, v, rng.UniformDouble() * 0.4);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::ConstrainedDenseSubgraph(g, removable, groups));
  }
}
BENCHMARK(BM_DenseSubgraph)->Arg(10)->Arg(25)->Arg(50);

// A heavy-shaped document's mention-entity graph (500 tokens, 35
// entities x 1.5 mentions, MW coherence; local weights blend prior and
// keyphrase similarity as Aida does): the first of a seeded corpus whose
// post-processing enumerates at least 10,000 assignments exhaustively.
struct SolverFixture {
  std::vector<std::vector<core::Candidate>> candidates;
  core::MentionEntityGraph graph;
  uint64_t leaves = 0;

  static const SolverFixture& Get() {
    static const SolverFixture& fixture = *new SolverFixture();
    return fixture;
  }

 private:
  SolverFixture() {
    const Fixture& base = Fixture::Get();
    synth::CorpusConfig config;
    config.seed = 4711;
    config.num_documents = 200;
    config.doc_tokens = 500;
    config.entities_per_doc = 35;
    config.mention_repeat = 1.5;
    const corpus::Corpus docs =
        synth::CorpusGenerator(&base.world, config).Generate();
    core::MilneWittenRelatedness mw(base.world.knowledge_base.get());
    core::ExtendedVocabulary vocab(
        &base.world.knowledge_base->keyphrases());
    core::ContextSimilarity similarity;
    const core::AidaOptions defaults;
    // With no combination allowed and no local-search step, a solve
    // counts only the greedy peel; the difference is the leaf count.
    core::GraphDisambiguatorOptions greedy_only;
    greedy_only.max_exhaustive_combinations = 0;
    greedy_only.local_search_iterations = 0;
    for (const corpus::Document& doc : docs) {
      core::DocumentContext context(doc.tokens, vocab);
      core::GraphBuildInput input;
      candidates.assign(doc.mentions.size(), {});
      input.mentions.resize(doc.mentions.size());
      for (size_t m = 0; m < doc.mentions.size(); ++m) {
        const corpus::GoldMention& mention = doc.mentions[m];
        candidates[m] = core::LookupCandidates(*base.models, mention.surface);
        std::vector<double> sims;
        for (const core::Candidate& cand : candidates[m]) {
          sims.push_back(similarity.Score(context, mention.begin_token,
                                          mention.end_token, *cand.model));
        }
        const std::vector<double> sim_dist =
            core::robustness::ToDistribution(sims);
        input.mentions[m].candidates = &candidates[m];
        for (size_t c = 0; c < candidates[m].size(); ++c) {
          input.mentions[m].me_weights.push_back(
              defaults.prior_weight * candidates[m][c].prior +
              defaults.sim_weight * sim_dist[c]);
        }
      }
      input.me_scale = defaults.me_scale;
      input.ee_scale = defaults.ee_scale;
      std::vector<const std::vector<core::Candidate>*> lists;
      for (const auto& entry : input.mentions) {
        lists.push_back(entry.candidates);
      }
      core::DocumentEntityTable entities;
      entities.Build(lists, mw);
      graph = core::BuildMentionEntityGraph(input, entities, mw);
      leaves = core::SolveMentionEntityGraph(graph, {}).iterations -
               core::SolveMentionEntityGraph(graph, greedy_only).iterations;
      if (leaves >= 10000) return;
    }
    leaves = 0;
  }
};

void BM_SolveMentionEntityGraph(benchmark::State& state) {
  const SolverFixture& fixture = SolverFixture::Get();
  if (fixture.leaves == 0) {
    state.SkipWithError("no seeded document reaches 10,000 leaves");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SolveMentionEntityGraph(fixture.graph, {}));
  }
  state.counters["mentions"] =
      static_cast<double>(fixture.graph.num_mentions);
  state.counters["leaves"] = static_cast<double>(fixture.leaves);
}
BENCHMARK(BM_SolveMentionEntityGraph)->Unit(benchmark::kMillisecond);

void BM_AidaDocument(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  core::MilneWittenRelatedness mw(fixture.world.knowledge_base.get());
  core::Aida aida(fixture.models.get(), &mw, core::AidaOptions());
  const corpus::Document& doc = fixture.docs.front();
  core::DisambiguationProblem problem;
  problem.tokens = &doc.tokens;
  for (const corpus::GoldMention& gm : doc.mentions) {
    core::ProblemMention pm;
    pm.surface = gm.surface;
    pm.begin_token = gm.begin_token;
    pm.end_token = gm.end_token;
    problem.mentions.push_back(std::move(pm));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(aida.Disambiguate(problem, {}));
  }
}
BENCHMARK(BM_AidaDocument);

}  // namespace

BENCHMARK_MAIN();
