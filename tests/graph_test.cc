#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aida.h"
#include "core/candidates.h"
#include "core/context_similarity.h"
#include "core/graph_disambiguator.h"
#include "core/mention_entity_graph.h"
#include "core/relatedness.h"
#include "core/robustness.h"
#include "graph/dense_subgraph.h"
#include "graph/shortest_paths.h"
#include "graph/weighted_graph.h"
#include "kore/kore_lsh.h"
#include "kore/kore_relatedness.h"
#include "synth/presets.h"
#include "test_world.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace aida::graph {
namespace {

TEST(WeightedGraphTest, DegreeAndNeighbors) {
  WeightedGraph g(4);
  g.AddEdge(0, 1, 0.5);
  g.AddEdge(0, 2, 0.25);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 0.75);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 0.5);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(3), 0.0);
  EXPECT_EQ(g.Neighbors(0).size(), 2u);
  EXPECT_EQ(g.Neighbors(1).size(), 1u);
}

TEST(ShortestPathsTest, PrefersHighSimilarityEdges) {
  // 0 -(0.9)- 1 -(0.9)- 3 and 0 -(0.1)- 2 -(0.1)- 3: the high-similarity
  // two-hop path is cheaper than the low-similarity one.
  WeightedGraph g(4);
  g.AddEdge(0, 1, 0.9);
  g.AddEdge(1, 3, 0.9);
  g.AddEdge(0, 2, 0.1);
  g.AddEdge(2, 3, 0.1);
  std::vector<double> dist =
      ShortestPathDistances(g, 0, InverseSimilarityCost);
  EXPECT_LT(dist[1], dist[2]);
  EXPECT_NEAR(dist[3], dist[1] * 2.0, 1e-6);
}

TEST(ShortestPathsTest, UnreachableIsInfinite) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 1.0);
  std::vector<double> dist =
      ShortestPathDistances(g, 0, InverseSimilarityCost);
  EXPECT_TRUE(std::isinf(dist[2]));
  EXPECT_EQ(dist[0], 0.0);
}

// Dense subgraph on a toy disambiguation instance: two mentions
// (nodes 0, 1), four entities (nodes 2..5). Entities 2 and 4 are coherent
// (heavy edge); entities 3 and 5 are isolated junk.
TEST(DenseSubgraphTest, KeepsCoherentEntities) {
  WeightedGraph g(6);
  g.AddEdge(0, 2, 0.5);  // mention 0 - good entity
  g.AddEdge(0, 3, 0.4);  // mention 0 - junk entity
  g.AddEdge(1, 4, 0.5);  // mention 1 - good entity
  g.AddEdge(1, 5, 0.4);  // mention 1 - junk entity
  g.AddEdge(2, 4, 0.9);  // coherence between the good entities

  std::vector<bool> removable = {false, false, true, true, true, true};
  std::vector<std::vector<NodeId>> groups = {{2, 3}, {4, 5}};
  DenseSubgraphResult result = ConstrainedDenseSubgraph(g, removable, groups);

  EXPECT_TRUE(result.alive[2]);
  EXPECT_TRUE(result.alive[4]);
  EXPECT_FALSE(result.alive[3]);
  EXPECT_FALSE(result.alive[5]);
  EXPECT_GT(result.objective, 0.0);
  EXPECT_EQ(result.iterations, 2u);
}

TEST(DenseSubgraphTest, GroupConstraintKeepsLastCandidate) {
  // A mention whose only candidate has tiny weight must keep it.
  WeightedGraph g(3);
  g.AddEdge(0, 1, 0.01);  // mention 0 -> entity 1 (only candidate)
  g.AddEdge(0, 2, 0.9);   // a much heavier unrelated removable node

  std::vector<bool> removable = {false, true, true};
  std::vector<std::vector<NodeId>> groups = {{1}};
  DenseSubgraphResult result = ConstrainedDenseSubgraph(g, removable, groups);
  EXPECT_TRUE(result.alive[1]);
}

TEST(DenseSubgraphTest, SharedCandidateAcrossGroups) {
  // Entity node 2 is the last candidate of group 0 AND group 1; it is
  // taboo even though group 1 has another member.
  WeightedGraph g(5);
  g.AddEdge(0, 2, 0.5);
  g.AddEdge(1, 2, 0.5);
  g.AddEdge(1, 3, 0.4);
  std::vector<bool> removable = {false, false, true, true, true};
  std::vector<std::vector<NodeId>> groups = {{2}, {2, 3}};
  DenseSubgraphResult result = ConstrainedDenseSubgraph(g, removable, groups);
  EXPECT_TRUE(result.alive[2]);
}

TEST(DenseSubgraphTest, EmptyGroupsRemoveEverything) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 0.5);
  g.AddEdge(1, 2, 0.5);
  std::vector<bool> removable = {true, true, true};
  DenseSubgraphResult result = ConstrainedDenseSubgraph(g, removable, {});
  // With no group constraints the greedy loop can peel everything; the
  // best intermediate subgraph is still recorded.
  EXPECT_EQ(result.iterations, 3u);
}

}  // namespace
}  // namespace aida::graph

// ---- Algorithm 1 against the solver it replaced -----------------------------

namespace aida::core {
namespace {

using ::aida::testing::TestWorld;

// What a solve of the oracle went through, so the tests can show that
// their inputs reach every branch the post-processing has.
struct OracleTrace {
  bool pre_pruned = false;
  bool exhaustive = false;
  // An exhaustive leaf scored exactly the best total seen before it.
  bool tied = false;
};

constexpr double kUnreachablePenalty = 1e6;

uint64_t EdgeKey(graph::NodeId u, graph::NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// SolveMentionEntityGraph as it read while its post-processing looked up
// every edge weight in an unordered_map inside a std::function recursion:
// the reference the dense occurrence table must reproduce bit for bit.
// Unchanged apart from the trace.
GraphSolution OracleSolve(const MentionEntityGraph& meg,
                          const GraphDisambiguatorOptions& options,
                          const GraphSolveContext& context,
                          OracleTrace* trace) {
  const size_t num_mentions = meg.num_mentions;
  const size_t num_entities = meg.entity_node_count();
  const graph::WeightedGraph& full = *meg.graph;
  const util::CancellationToken* cancel = context.cancel;

  GraphSolution solution;
  solution.chosen_candidate.assign(num_mentions, -1);

  std::vector<size_t> active_mentions;
  for (size_t m = 0; m < num_mentions; ++m) {
    if (!meg.mention_candidate_nodes[m].empty()) active_mentions.push_back(m);
  }
  const size_t mentions_with_candidates = active_mentions.size();
  if (mentions_with_candidates == 0) return solution;

  // ---- Pre-pruning phase ---------------------------------------------------
  // Keep the entity nodes closest to the mention set, measured by the sum
  // of squared shortest-path distances; always retain each mention's
  // heaviest candidate so every mention stays coverable. One Dijkstra per
  // mention, its squared distances summed in mention order.
  std::vector<bool> keep_entity(num_entities, true);
  const size_t budget =
      options.entities_per_mention_budget * mentions_with_candidates;
  if (num_entities > budget) {
    trace->pre_pruned = true;
    std::vector<double> distance_sum(num_entities, 0.0);
    for (size_t mention : active_mentions) {
      if (cancel != nullptr && cancel->cancelled()) {
        solution.aborted = true;
        return solution;
      }
      std::vector<double> dist = graph::ShortestPathDistances(
          full, static_cast<graph::NodeId>(mention),
          graph::InverseSimilarityCost);
      for (size_t e = 0; e < num_entities; ++e) {
        double d = dist[meg.EntityNodeId(e)];
        if (!std::isfinite(d)) d = kUnreachablePenalty;
        distance_sum[e] += d * d;
      }
    }
    std::vector<size_t> order(num_entities);
    for (size_t e = 0; e < num_entities; ++e) order[e] = e;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return distance_sum[a] < distance_sum[b];
    });
    keep_entity.assign(num_entities, false);
    for (size_t i = 0; i < budget && i < order.size(); ++i) {
      keep_entity[order[i]] = true;
    }
    // Coverage repair: each mention keeps its best mention-entity edge.
    for (size_t m = 0; m < num_mentions; ++m) {
      const auto& nodes = meg.mention_candidate_nodes[m];
      if (nodes.empty()) continue;
      bool covered = false;
      for (graph::NodeId node : nodes) {
        if (keep_entity[meg.EntityIndexOf(node)]) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      double best_w = -1.0;
      graph::NodeId best_node = nodes.front();
      for (const graph::Edge& e :
           full.Neighbors(static_cast<graph::NodeId>(m))) {
        if (e.weight > best_w) {
          best_w = e.weight;
          best_node = e.to;
        }
      }
      keep_entity[meg.EntityIndexOf(best_node)] = true;
    }
  }

  // ---- Induced subgraph over kept nodes ------------------------------------
  std::vector<graph::NodeId> old_to_new(num_mentions + num_entities,
                                        std::numeric_limits<uint32_t>::max());
  size_t next_id = 0;
  for (size_t m = 0; m < num_mentions; ++m) {
    old_to_new[m] = static_cast<graph::NodeId>(next_id++);
  }
  for (size_t e = 0; e < num_entities; ++e) {
    if (keep_entity[e]) {
      old_to_new[meg.EntityNodeId(e)] = static_cast<graph::NodeId>(next_id++);
    }
  }
  graph::WeightedGraph pruned(next_id);
  std::unordered_map<uint64_t, double> edge_weight;
  for (graph::NodeId u = 0; u < full.node_count(); ++u) {
    if (old_to_new[u] == std::numeric_limits<uint32_t>::max()) continue;
    for (const graph::Edge& e : full.Neighbors(u)) {
      if (e.to <= u) continue;  // visit each undirected edge once
      if (old_to_new[e.to] == std::numeric_limits<uint32_t>::max()) continue;
      pruned.AddEdge(old_to_new[u], old_to_new[e.to], e.weight);
      edge_weight[EdgeKey(old_to_new[u], old_to_new[e.to])] = e.weight;
    }
  }

  std::vector<bool> removable(next_id, false);
  for (size_t node = num_mentions; node < next_id; ++node) {
    removable[node] = true;
  }
  // Groups: per mention with candidates, the kept candidate nodes.
  std::vector<std::vector<graph::NodeId>> groups;
  // For mapping back: per mention, (new node id, candidate index).
  std::vector<std::vector<std::pair<graph::NodeId, uint32_t>>> mention_nodes(
      num_mentions);
  for (size_t m = 0; m < num_mentions; ++m) {
    const auto& nodes = meg.mention_candidate_nodes[m];
    std::vector<graph::NodeId> group;
    for (uint32_t c = 0; c < nodes.size(); ++c) {
      size_t e = meg.EntityIndexOf(nodes[c]);
      if (!keep_entity[e]) continue;
      graph::NodeId new_node = old_to_new[nodes[c]];
      group.push_back(new_node);
      mention_nodes[m].emplace_back(new_node, c);
    }
    if (!group.empty()) groups.push_back(std::move(group));
  }

  // ---- Main greedy loop -----------------------------------------------------
  graph::DenseSubgraphResult dense = graph::ConstrainedDenseSubgraph(
      pruned, removable, groups, graph::DenseSubgraphOptions{.cancel = cancel});
  solution.objective = dense.objective;
  solution.iterations += dense.iterations;
  if (dense.aborted) {
    solution.aborted = true;
    return solution;
  }

  // ---- Post-processing: resolve remaining per-mention choices ---------------
  // Alive candidates per mention.
  std::vector<std::vector<std::pair<graph::NodeId, uint32_t>>> alive(
      num_mentions);
  for (size_t m = 0; m < num_mentions; ++m) {
    for (const auto& [node, c] : mention_nodes[m]) {
      if (dense.alive[node]) alive[m].emplace_back(node, c);
    }
    // The greedy loop guarantees one candidate per non-empty group; fall
    // back to all kept candidates if anything went sideways.
    if (alive[m].empty()) alive[m] = mention_nodes[m];
  }

  auto me_weight = [&](size_t m, graph::NodeId node) {
    auto it = edge_weight.find(
        EdgeKey(static_cast<graph::NodeId>(m), node));
    return it == edge_weight.end() ? 0.0 : it->second;
  };
  auto ee_weight = [&](graph::NodeId a, graph::NodeId b) {
    if (a == b) return 0.0;
    auto it = edge_weight.find(EdgeKey(a, b));
    return it == edge_weight.end() ? 0.0 : it->second;
  };

  std::vector<size_t> active;  // mentions that have alive candidates
  uint64_t combinations = 1;
  bool overflow = false;
  for (size_t m = 0; m < num_mentions; ++m) {
    if (alive[m].empty()) continue;
    active.push_back(m);
    if (combinations > options.max_exhaustive_combinations) {
      overflow = true;
    } else {
      combinations *= alive[m].size();
      if (combinations > options.max_exhaustive_combinations) overflow = true;
    }
  }

  std::vector<uint32_t> pick(active.size(), 0);  // index into alive[m]
  std::vector<uint32_t> best_pick = pick;
  double best_total = -std::numeric_limits<double>::infinity();

  auto total_weight = [&](const std::vector<uint32_t>& p) {
    double total = 0.0;
    for (size_t i = 0; i < active.size(); ++i) {
      graph::NodeId ni = alive[active[i]][p[i]].first;
      total += me_weight(active[i], ni);
      for (size_t j = i + 1; j < active.size(); ++j) {
        total += ee_weight(ni, alive[active[j]][p[j]].first);
      }
    }
    return total;
  };

  trace->exhaustive = !overflow;
  if (!overflow) {
    // Exhaustive enumeration with incremental scoring. Cancellation is
    // polled every 256 evaluated leaves so a slow enumeration cannot
    // outlive its request deadline.
    std::vector<uint32_t> current(active.size(), 0);
    bool dfs_aborted = false;
    std::function<void(size_t, double)> dfs = [&](size_t depth, double acc) {
      if (dfs_aborted) return;
      if (depth == active.size()) {
        ++solution.iterations;
        if ((solution.iterations & 0xFF) == 0 && cancel != nullptr &&
            cancel->cancelled()) {
          dfs_aborted = true;
          return;
        }
        if (acc == best_total) trace->tied = true;
        if (acc > best_total) {
          best_total = acc;
          best_pick = current;
        }
        return;
      }
      for (uint32_t c = 0; c < alive[active[depth]].size(); ++c) {
        current[depth] = c;
        graph::NodeId node = alive[active[depth]][c].first;
        double add = me_weight(active[depth], node);
        for (size_t j = 0; j < depth; ++j) {
          add += ee_weight(node, alive[active[j]][current[j]].first);
        }
        dfs(depth + 1, acc + add);
        if (dfs_aborted) return;
      }
    };
    dfs(0, 0.0);
    if (dfs_aborted) {
      solution.aborted = true;
      return solution;
    }
  } else {
    // Randomized local search: start from the heaviest candidates, then
    // propose single-mention swaps with probability proportional to the
    // candidates' weighted degrees.
    util::Rng rng(options.seed);
    for (size_t i = 0; i < active.size(); ++i) {
      double best_deg = -1.0;
      for (uint32_t c = 0; c < alive[active[i]].size(); ++c) {
        double deg = pruned.WeightedDegree(alive[active[i]][c].first);
        if (deg > best_deg) {
          best_deg = deg;
          pick[i] = c;
        }
      }
    }
    best_pick = pick;
    best_total = total_weight(pick);
    double current_total = best_total;
    std::vector<double> degrees;
    for (size_t iter = 0; iter < options.local_search_iterations; ++iter) {
      if ((iter & 0x3F) == 0 && cancel != nullptr && cancel->cancelled()) {
        solution.aborted = true;
        return solution;
      }
      ++solution.iterations;
      size_t i = rng.UniformInt(active.size());
      const auto& cands = alive[active[i]];
      if (cands.size() < 2) continue;
      degrees.clear();
      for (const auto& [node, c] : cands) {
        degrees.push_back(pruned.WeightedDegree(node) + 1e-9);
      }
      uint32_t proposal = static_cast<uint32_t>(rng.Categorical(degrees));
      if (proposal == pick[i]) continue;
      // Incremental delta.
      graph::NodeId old_node = cands[pick[i]].first;
      graph::NodeId new_node = cands[proposal].first;
      double delta = me_weight(active[i], new_node) -
                     me_weight(active[i], old_node);
      for (size_t j = 0; j < active.size(); ++j) {
        if (j == i) continue;
        graph::NodeId other = alive[active[j]][pick[j]].first;
        delta += ee_weight(new_node, other) - ee_weight(old_node, other);
      }
      if (delta > 0) {
        pick[i] = proposal;
        current_total += delta;
        if (current_total > best_total) {
          best_total = current_total;
          best_pick = pick;
        }
      }
    }
  }

  solution.total_weight = best_total;
  for (size_t i = 0; i < active.size(); ++i) {
    solution.chosen_candidate[active[i]] =
        static_cast<int32_t>(alive[active[i]][best_pick[i]].second);
  }
  return solution;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameSolution(const GraphSolution& got, const GraphSolution& want) {
  EXPECT_EQ(got.chosen_candidate, want.chosen_candidate);
  EXPECT_EQ(Bits(got.total_weight), Bits(want.total_weight));
  EXPECT_EQ(Bits(got.objective), Bits(want.objective));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.aborted, want.aborted);
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Relatedness drawn from a seeded hash of the unordered entity pair: half
// the pairs are unrelated (no edge) and most of the rest share one of two
// levels, so equal edge weights are common.
class StubRelatedness final : public RelatednessMeasure {
 public:
  explicit StubRelatedness(uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "stub"; }
  double Relatedness(const Candidate& a, const Candidate& b) const override {
    CountComparison();
    const uint64_t lo = std::min(a.entity, b.entity);
    const uint64_t hi = std::max(a.entity, b.entity);
    const uint64_t h = Mix(seed_ ^ Mix((lo << 32) | hi));
    switch (h % 8) {
      case 4:
      case 5:
        return 0.5;
      case 6:
        return 0.25;
      case 7:
        return static_cast<double>(h >> 11) * 0x1.0p-53;
      default:
        return 0.0;
    }
  }

 private:
  uint64_t seed_;
};

// A seeded random disambiguation instance: up to ten mentions drawing
// candidates from a small entity pool, so entities recur across mentions
// (one shared node) and sometimes within one mention (parallel edges).
// Some mentions have no candidates, some candidates are mention-private
// placeholders, and mention-entity weights are often zero or one of a few
// repeated levels. Low per-mention budgets force pre-pruning, and low
// combination bounds send the solve to the local search.
struct RandomInstance {
  std::vector<std::vector<Candidate>> candidates;
  GraphBuildInput input;
  GraphDisambiguatorOptions options;
};

RandomInstance MakeRandomInstance(uint64_t seed) {
  static constexpr double kLevels[] = {0.0, 0.2, 0.5, 1.0};
  auto model = std::make_shared<CandidateModel>();
  util::Rng rng(seed);
  RandomInstance instance;
  const size_t mentions = 1 + rng.UniformInt(10);
  const size_t pool = 2 + rng.UniformInt(30);
  instance.candidates.resize(mentions);
  instance.input.mentions.resize(mentions);
  for (size_t m = 0; m < mentions; ++m) {
    std::vector<Candidate>& cands = instance.candidates[m];
    GraphBuildInput::MentionEntry& entry = instance.input.mentions[m];
    entry.candidates = &cands;
    if (rng.Bernoulli(0.15)) continue;
    const size_t count = 1 + rng.UniformInt(6);
    for (size_t c = 0; c < count; ++c) {
      Candidate cand;
      cand.model = model;
      cand.is_placeholder = rng.Bernoulli(0.08);
      if (!cand.is_placeholder) {
        cand.entity = static_cast<kb::EntityId>(rng.UniformInt(pool));
      }
      cand.weight_scale = rng.Bernoulli(0.1) ? 0.5 : 1.0;
      cands.push_back(cand);
      entry.me_weights.push_back(rng.Bernoulli(0.5)
                                     ? kLevels[rng.UniformInt(4)]
                                     : rng.UniformDouble());
    }
  }
  instance.options.entities_per_mention_budget = 1 + rng.UniformInt(5);
  if (rng.Bernoulli(0.5)) {
    instance.options.max_exhaustive_combinations = 1 + rng.UniformInt(3);
  }
  instance.options.local_search_iterations = 50 + rng.UniformInt(400);
  instance.options.seed = rng.UniformInt(1u << 30);
  return instance;
}

// Builds `input`'s graph as Aida does: over one entity table of the
// mentions' whole candidate lists.
MentionEntityGraph BuildGraph(const GraphBuildInput& input,
                              const RelatednessMeasure& relatedness,
                              const GraphBuildContext& context = {}) {
  std::vector<const std::vector<Candidate>*> lists;
  for (const GraphBuildInput::MentionEntry& entry : input.mentions) {
    lists.push_back(entry.candidates);
  }
  DocumentEntityTable entities;
  entities.Build(lists, relatedness);
  return BuildMentionEntityGraph(input, entities, relatedness, context);
}

bool HasSharedEntity(const MentionEntityGraph& meg) {
  for (const auto& sources : meg.entity_sources) {
    for (const auto& [m, c] : sources) {
      if (m != sources.front().first) return true;
    }
  }
  return false;
}

bool HasMentionWithoutCandidates(const MentionEntityGraph& meg) {
  for (const auto& nodes : meg.mention_candidate_nodes) {
    if (nodes.empty()) return true;
  }
  return false;
}

bool HasZeroWeightEdge(const MentionEntityGraph& meg) {
  for (graph::NodeId u = 0; u < meg.graph->node_count(); ++u) {
    for (const graph::Edge& e : meg.graph->Neighbors(u)) {
      if (e.weight == 0.0) return true;
    }
  }
  return false;
}

TEST(SolverOracleTest, MatchesOracleOnRandomGraphs) {
  constexpr uint64_t kGraphs = 400;
  size_t exhaustive = 0;
  size_t local_search = 0;
  size_t pre_pruned = 0;
  size_t tied = 0;
  size_t shared = 0;
  size_t without_candidates = 0;
  size_t zero_weights = 0;
  for (uint64_t seed = 1; seed <= kGraphs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomInstance instance = MakeRandomInstance(seed);
    StubRelatedness stub(seed);
    MentionEntityGraph meg = BuildGraph(instance.input, stub);
    OracleTrace trace;
    const GraphSolution want = OracleSolve(meg, instance.options, {}, &trace);
    const GraphSolution got = SolveMentionEntityGraph(meg, instance.options);
    ExpectSameSolution(got, want);
    // Graphs whose mentions all lack candidates return before the
    // post-processing and count toward no path.
    if (meg.entity_node_count() > 0) {
      ++(trace.exhaustive ? exhaustive : local_search);
    }
    pre_pruned += trace.pre_pruned;
    tied += trace.tied;
    shared += HasSharedEntity(meg);
    without_candidates += HasMentionWithoutCandidates(meg);
    zero_weights += HasZeroWeightEdge(meg);
  }
  EXPECT_GE(exhaustive, 100u);
  EXPECT_GE(local_search, 100u);
  EXPECT_GE(pre_pruned, 100u);
  EXPECT_GE(tied, 100u);
  EXPECT_GE(shared, 100u);
  EXPECT_GE(without_candidates, 100u);
  EXPECT_GE(zero_weights, 100u);
}

// A document's graph input as Aida builds it before the coherence test
// fixes any mention: dictionary candidates, and mention-entity weights
// blending prior and keyphrase similarity with Aida's default mix. With
// `vary`, every fourth mention also gets a placeholder candidate (its
// first candidate's keyphrase model at half weight, or an entity's model
// when the dictionary has none), and every third mention keeps one
// candidate in the graph, as a mention the coherence test fixed: the
// graph then sees part of the lists its entity table covers.
struct DocumentInstance {
  std::vector<std::vector<Candidate>> candidates;
  GraphBuildInput input;
};

DocumentInstance MakeDocumentInstance(const corpus::Document& doc,
                                      const CandidateModelStore& models,
                                      bool vary = false) {
  const AidaOptions defaults;
  ExtendedVocabulary vocab(&models.knowledge_base().keyphrases());
  DocumentContext context(doc.tokens, vocab);
  ContextSimilarity similarity;
  DocumentInstance instance;
  GraphBuildInput& input = instance.input;
  instance.candidates.assign(doc.mentions.size(), {});
  input.mentions.resize(doc.mentions.size());
  for (size_t m = 0; m < doc.mentions.size(); ++m) {
    const corpus::GoldMention& mention = doc.mentions[m];
    std::vector<Candidate>& cands = instance.candidates[m];
    cands = LookupCandidates(models, mention.surface);
    if (vary && m % 4 == 1) {
      auto model = std::make_shared<CandidateModel>(
          *(cands.empty() ? models.ModelFor(static_cast<kb::EntityId>(m))
                          : cands.front().model));
      model->entity = kb::kNoEntity;
      Candidate placeholder;
      placeholder.model = std::move(model);
      placeholder.is_placeholder = true;
      placeholder.weight_scale = 0.5;
      cands.push_back(std::move(placeholder));
    }
    std::vector<double> sims;
    for (const Candidate& cand : cands) {
      sims.push_back(cand.weight_scale *
                     similarity.Score(context, mention.begin_token,
                                      mention.end_token, *cand.model));
    }
    const std::vector<double> sim_dist = robustness::ToDistribution(sims);
    GraphBuildInput::MentionEntry& entry = input.mentions[m];
    entry.candidates = &cands;
    for (size_t c = 0; c < cands.size(); ++c) {
      entry.me_weights.push_back(defaults.prior_weight * cands[c].prior +
                                 defaults.sim_weight * sim_dist[c]);
    }
    if (vary && m % 3 == 0 && !cands.empty()) {
      entry.first = m % cands.size();
      entry.me_weights = {entry.me_weights[entry.first]};
    }
  }
  input.me_scale = defaults.me_scale;
  input.ee_scale = defaults.ee_scale;
  return instance;
}

TEST(SolverOracleTest, MatchesOracleOnTestWorldDocuments) {
  const synth::World& world = TestWorld::Get().world;
  CandidateModelStore models(world.knowledge_base.get());
  MilneWittenRelatedness mw(world.knowledge_base.get());
  struct Shape {
    const char* name;
    size_t documents;
    size_t doc_tokens;
    size_t entities_per_doc;
    double mention_repeat;
  };
  // CoNLL-like documents, and the serving benchmark's heavy shape.
  const synth::CorpusConfig conll = synth::ConllPreset().corpus;
  const Shape shapes[] = {
      {"conll", 60, conll.doc_tokens, conll.entities_per_doc,
       conll.mention_repeat},
      {"heavy", 20, 500, 35, 1.5},
  };
  GraphDisambiguatorOptions local_search;
  local_search.max_exhaustive_combinations = 1;
  for (const Shape& shape : shapes) {
    synth::CorpusConfig config = conll;
    config.seed = 991;
    config.num_documents = shape.documents;
    config.doc_tokens = shape.doc_tokens;
    config.entities_per_doc = shape.entities_per_doc;
    config.mention_repeat = shape.mention_repeat;
    const corpus::Corpus docs =
        synth::CorpusGenerator(&world, config).Generate();
    ASSERT_EQ(docs.size(), shape.documents);
    size_t exhaustive = 0;
    for (size_t d = 0; d < docs.size(); ++d) {
      SCOPED_TRACE(std::string(shape.name) + " document " +
                   std::to_string(d));
      DocumentInstance instance = MakeDocumentInstance(docs[d], models);
      const MentionEntityGraph meg =
          BuildGraph(instance.input, mw);
      OracleTrace trace;
      ExpectSameSolution(SolveMentionEntityGraph(meg, {}),
                         OracleSolve(meg, {}, {}, &trace));
      exhaustive += trace.exhaustive;
      OracleTrace local_trace;
      ExpectSameSolution(
          SolveMentionEntityGraph(meg, local_search),
          OracleSolve(meg, local_search, {}, &local_trace));
    }
    // Most documents take the exhaustive path with the default bound.
    EXPECT_GE(exhaustive * 2, docs.size()) << shape.name;
  }
}

TEST(SolverOracleTest, PreTrippedTokenAbortsBothPaths) {
  size_t exhaustive = 0;
  size_t local_search = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomInstance instance = MakeRandomInstance(seed);
    StubRelatedness stub(seed);
    MentionEntityGraph meg = BuildGraph(instance.input, stub);
    if (meg.entity_node_count() == 0) continue;
    OracleTrace trace;
    OracleSolve(meg, instance.options, {}, &trace);
    ++(trace.exhaustive ? exhaustive : local_search);

    util::CancellationToken token;
    token.Cancel();
    const GraphSolveContext context{.cancel = &token};
    const GraphSolution got =
        SolveMentionEntityGraph(meg, instance.options, context);
    EXPECT_TRUE(got.aborted);
    OracleTrace unused;
    ExpectSameSolution(got,
                       OracleSolve(meg, instance.options, context, &unused));
  }
  EXPECT_GT(exhaustive, 0u);
  EXPECT_GT(local_search, 0u);
}


// ---- The graph build against the one it replaced ----------------------------

// BuildMentionEntityGraph as it read before the document entity table: its
// own entity-id map numbered the nodes, and its own FilterPairs call over
// the graph's entity nodes chose the pairs. The reference the table-driven
// build must reproduce: the same nodes, neighbour order and weight bits.
MentionEntityGraph OracleBuild(const GraphBuildInput& input,
                               const RelatednessMeasure& relatedness,
                               const GraphBuildContext& context = {}) {
  struct PendingEdge {
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    double weight = 0.0;
  };
  MentionEntityGraph meg;
  meg.num_mentions = input.mentions.size();

  std::unordered_map<kb::EntityId, size_t> entity_index;
  meg.mention_candidate_nodes.resize(meg.num_mentions);
  for (uint32_t m = 0; m < input.mentions.size(); ++m) {
    const auto& entry = input.mentions[m];
    for (uint32_t c = 0; c < entry.me_weights.size(); ++c) {
      const Candidate& cand = (*entry.candidates)[entry.first + c];
      size_t index;
      if (!cand.is_placeholder) {
        auto [it, inserted] =
            entity_index.emplace(cand.entity, meg.entity_candidates.size());
        index = it->second;
        if (inserted) {
          meg.entity_candidates.push_back(&cand);
          meg.entity_sources.emplace_back();
        }
      } else {
        index = meg.entity_candidates.size();
        meg.entity_candidates.push_back(&cand);
        meg.entity_sources.emplace_back();
      }
      meg.entity_sources[index].emplace_back(m, c);
      meg.mention_candidate_nodes[m].push_back(meg.EntityNodeId(index));
    }
  }

  const size_t total_nodes = meg.num_mentions + meg.entity_candidates.size();

  std::vector<PendingEdge> me_edges;
  double me_max = 0.0;
  for (uint32_t m = 0; m < input.mentions.size(); ++m) {
    const auto& entry = input.mentions[m];
    for (uint32_t c = 0; c < entry.me_weights.size(); ++c) {
      double w = std::max(0.0, entry.me_weights[c]);
      me_edges.push_back({m, meg.mention_candidate_nodes[m][c], w});
      me_max = std::max(me_max, w);
    }
  }

  auto serves_two_mentions = [&](size_t i, size_t j) {
    for (const auto& [mi, ci] : meg.entity_sources[i]) {
      for (const auto& [mj, cj] : meg.entity_sources[j]) {
        if (mi != mj) return true;
      }
    }
    return false;
  };

  std::vector<PendingEdge> ee_edges;
  double ee_max = 0.0;
  const size_t ec = meg.entity_candidates.size();
  constexpr size_t kCancelStride = 32;
  const util::CancellationToken* cancel = context.cancel;
  size_t evaluated = 0;
  auto add_pair = [&](size_t i, size_t j) {
    if (!serves_two_mentions(i, j)) return;
    if (evaluated++ % kCancelStride == 0 && cancel != nullptr &&
        cancel->cancelled()) {
      meg.aborted = true;
      return;
    }
    bool cache_hit = false;
    double rel = relatedness.RelatednessTracked(
        *meg.entity_candidates[i], *meg.entity_candidates[j], &cache_hit);
    rel *= meg.entity_candidates[i]->weight_scale *
           meg.entity_candidates[j]->weight_scale;
    if (cache_hit) {
      ++meg.relatedness_cache_hits;
    } else {
      ++meg.relatedness_computations;
    }
    if (rel <= 0.0) return;
    ee_edges.push_back({meg.EntityNodeId(i), meg.EntityNodeId(j), rel});
    ee_max = std::max(ee_max, rel);
  };
  if (relatedness.has_pair_filter()) {
    std::vector<const Candidate*> all(meg.entity_candidates.begin(),
                                      meg.entity_candidates.end());
    for (const auto& [i, j] : relatedness.FilterPairs(all)) {
      if (meg.aborted) break;
      add_pair(i, j);
    }
  } else {
    for (size_t i = 0; i < ec && !meg.aborted; ++i) {
      for (size_t j = i + 1; j < ec && !meg.aborted; ++j) add_pair(i, j);
    }
  }
  if (meg.aborted) return meg;

  if (me_max > 0.0) {
    for (PendingEdge& e : me_edges) e.weight /= me_max;
  }
  if (ee_max > 0.0) {
    for (PendingEdge& e : ee_edges) e.weight /= ee_max;
  }
  double me_avg = 0.0;
  for (const PendingEdge& e : me_edges) me_avg += e.weight;
  if (!me_edges.empty()) me_avg /= static_cast<double>(me_edges.size());
  double ee_avg = 0.0;
  for (const PendingEdge& e : ee_edges) ee_avg += e.weight;
  if (!ee_edges.empty()) ee_avg /= static_cast<double>(ee_edges.size());
  double balance = (ee_avg > 0.0 && me_avg > 0.0) ? me_avg / ee_avg : 1.0;

  meg.graph = std::make_unique<graph::WeightedGraph>(total_nodes);
  for (const PendingEdge& e : me_edges) {
    meg.graph->AddEdge(e.u, e.v, e.weight * input.me_scale);
  }
  for (const PendingEdge& e : ee_edges) {
    meg.graph->AddEdge(e.u, e.v, e.weight * balance * input.ee_scale);
  }
  return meg;
}

void ExpectSameGraph(const MentionEntityGraph& got,
                     const MentionEntityGraph& want) {
  ASSERT_EQ(got.num_mentions, want.num_mentions);
  EXPECT_EQ(got.entity_candidates, want.entity_candidates);
  EXPECT_EQ(got.entity_sources, want.entity_sources);
  EXPECT_EQ(got.mention_candidate_nodes, want.mention_candidate_nodes);
  EXPECT_EQ(got.relatedness_computations, want.relatedness_computations);
  EXPECT_EQ(got.relatedness_cache_hits, want.relatedness_cache_hits);
  EXPECT_EQ(got.aborted, want.aborted);
  ASSERT_EQ(got.graph == nullptr, want.graph == nullptr);
  if (got.graph == nullptr) return;
  ASSERT_EQ(got.graph->node_count(), want.graph->node_count());
  for (graph::NodeId u = 0; u < got.graph->node_count(); ++u) {
    const std::vector<graph::Edge>& g = got.graph->Neighbors(u);
    const std::vector<graph::Edge>& w = want.graph->Neighbors(u);
    ASSERT_EQ(g.size(), w.size()) << "node " << u;
    for (size_t k = 0; k < g.size(); ++k) {
      EXPECT_EQ(g[k].to, w[k].to) << "node " << u << " edge " << k;
      EXPECT_EQ(Bits(g[k].weight), Bits(w[k].weight))
          << "node " << u << " edge " << k;
    }
  }
}

// The stub measure behind a seeded pair filter that keeps about half the
// entity pairs and every pair with a placeholder, sorted and unique as
// FilterPairs returns them.
class FilteredStubRelatedness final : public RelatednessMeasure {
 public:
  explicit FilteredStubRelatedness(uint64_t seed) : stub_(seed), seed_(seed) {}
  std::string name() const override { return "filtered-stub"; }
  double Relatedness(const Candidate& a, const Candidate& b) const override {
    return stub_.Relatedness(a, b);
  }
  bool has_pair_filter() const override { return true; }
  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const Candidate*>& candidates) const override {
    std::vector<std::pair<uint32_t, uint32_t>> kept;
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      for (uint32_t j = i + 1; j < candidates.size(); ++j) {
        const Candidate& a = *candidates[i];
        const Candidate& b = *candidates[j];
        const uint64_t lo = std::min(a.entity, b.entity);
        const uint64_t hi = std::max(a.entity, b.entity);
        if (a.is_placeholder || b.is_placeholder ||
            Mix(~seed_ ^ Mix((lo << 32) | hi)) % 2 == 0) {
          kept.emplace_back(i, j);
        }
      }
    }
    return kept;
  }

 private:
  StubRelatedness stub_;
  uint64_t seed_;
};

size_t EntityEdgeCount(const MentionEntityGraph& meg) {
  size_t edges = 0;
  for (graph::NodeId u = meg.num_mentions; u < meg.graph->node_count(); ++u) {
    for (const graph::Edge& e : meg.graph->Neighbors(u)) {
      edges += e.to >= meg.num_mentions;
    }
  }
  return edges / 2;
}

TEST(GraphBuildOracleTest, MatchesOracleOnRandomInstances) {
  size_t shared = 0;
  size_t placeholders = 0;
  size_t filtered_edges = 0;
  size_t edges = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomInstance instance = MakeRandomInstance(seed);
    const StubRelatedness stub(seed);
    const FilteredStubRelatedness filtered(seed);
    for (const RelatednessMeasure* measure :
         std::initializer_list<const RelatednessMeasure*>{&stub,
                                                          &filtered}) {
      SCOPED_TRACE(measure->name());
      const MentionEntityGraph got =
          BuildGraph(instance.input, *measure);
      const MentionEntityGraph want = OracleBuild(instance.input, *measure);
      ExpectSameGraph(got, want);
      (measure == &stub ? edges : filtered_edges) += EntityEdgeCount(got);
    }
    shared += HasSharedEntity(OracleBuild(instance.input, stub));
    for (const std::vector<Candidate>& cands : instance.candidates) {
      for (const Candidate& cand : cands) placeholders += cand.is_placeholder;
    }
  }
  EXPECT_GE(shared, 100u);
  EXPECT_GE(placeholders, 100u);
  // The filter drops edges, but not all of them.
  EXPECT_GT(filtered_edges, 0u);
  EXPECT_LT(filtered_edges, edges);
}

// Test-world documents, CoNLL-like and heavy-shaped, with placeholders and
// fixed mentions, under every measure of Table 4.4.
TEST(GraphBuildOracleTest, MatchesOracleOnTestWorldDocuments) {
  const synth::World& world = TestWorld::Get().world;
  CandidateModelStore models(world.knowledge_base.get());
  const kb::KeyphraseStore& store = world.knowledge_base->keyphrases();
  const MilneWittenRelatedness mw(world.knowledge_base.get());
  const kore::KoreRelatedness kore;
  const kore::KoreLshRelatedness lsh_g = kore::KoreLshRelatedness::Good(&store);
  const kore::KoreLshRelatedness lsh_f = kore::KoreLshRelatedness::Fast(&store);
  const synth::CorpusConfig conll = synth::ConllPreset().corpus;
  struct Shape {
    const char* name;
    size_t documents;
    size_t doc_tokens;
    size_t entities_per_doc;
  };
  const Shape shapes[] = {
      {"conll", 30, conll.doc_tokens, conll.entities_per_doc},
      {"heavy", 10, 500, 35}};
  for (const Shape& shape : shapes) {
    synth::CorpusConfig config = conll;
    config.seed = 992;
    config.num_documents = shape.documents;
    config.doc_tokens = shape.doc_tokens;
    config.entities_per_doc = shape.entities_per_doc;
    config.mention_repeat = 1.5;
    const corpus::Corpus docs =
        synth::CorpusGenerator(&world, config).Generate();
    for (const RelatednessMeasure* measure :
         std::initializer_list<const RelatednessMeasure*>{&mw, &kore, &lsh_g,
                                                          &lsh_f}) {
      size_t edges = 0;
      for (size_t d = 0; d < docs.size(); ++d) {
        for (const bool vary : {false, true}) {
          SCOPED_TRACE(std::string(shape.name) + " document " +
                       std::to_string(d) + " " + measure->name() +
                       (vary ? " varied" : ""));
          DocumentInstance instance =
              MakeDocumentInstance(docs[d], models, vary);
          const MentionEntityGraph got =
              BuildGraph(instance.input, *measure);
          ExpectSameGraph(got, OracleBuild(instance.input, *measure));
          edges += EntityEdgeCount(got);
        }
      }
      EXPECT_GT(edges, 0u) << shape.name << " " << measure->name();
    }
  }
}

// Trips a token on its `limit`-th evaluation, so that a build stops at its
// next cancellation poll.
class TrippingRelatedness final : public RelatednessMeasure {
 public:
  TrippingRelatedness(const RelatednessMeasure* inner,
                      const util::CancellationToken* token, uint64_t limit)
      : inner_(inner), token_(token), limit_(limit) {}
  std::string name() const override { return inner_->name(); }
  double Relatedness(const Candidate& a, const Candidate& b) const override {
    if (++calls_ == limit_) token_->Cancel();
    return inner_->Relatedness(a, b);
  }
  bool has_pair_filter() const override { return inner_->has_pair_filter(); }
  std::vector<std::pair<uint32_t, uint32_t>> FilterPairs(
      const std::vector<const Candidate*>& candidates) const override {
    return inner_->FilterPairs(candidates);
  }

 private:
  const RelatednessMeasure* inner_;
  const util::CancellationToken* token_;
  uint64_t limit_;
  mutable uint64_t calls_ = 0;
};

// The cancellation poll counts only the kept pairs that serve two
// mentions, so a build stops after exactly as many evaluations as before.
TEST(GraphBuildOracleTest, CancelPollsTheSamePairs) {
  const synth::World& world = TestWorld::Get().world;
  CandidateModelStore models(world.knowledge_base.get());
  const kb::KeyphraseStore& store = world.knowledge_base->keyphrases();
  const MilneWittenRelatedness mw(world.knowledge_base.get());
  const kore::KoreLshRelatedness lsh_g = kore::KoreLshRelatedness::Good(&store);
  synth::CorpusConfig config = synth::ConllPreset().corpus;
  config.seed = 993;
  config.num_documents = 4;
  config.doc_tokens = 500;
  config.entities_per_doc = 35;
  config.mention_repeat = 1.5;
  const corpus::Corpus docs = synth::CorpusGenerator(&world, config).Generate();
  size_t aborted = 0;
  for (const RelatednessMeasure* measure :
       std::initializer_list<const RelatednessMeasure*>{&mw, &lsh_g}) {
    for (size_t d = 0; d < docs.size(); ++d) {
      for (const uint64_t limit : {1, 31, 32, 33, 64, 65, 200}) {
        SCOPED_TRACE(measure->name() + " document " + std::to_string(d) +
                     " limit " + std::to_string(limit));
        DocumentInstance instance = MakeDocumentInstance(docs[d], models, true);
        util::CancellationToken got_token;
        const TrippingRelatedness got_measure(measure, &got_token, limit);
        const MentionEntityGraph got =
            BuildGraph(instance.input, got_measure,
                       GraphBuildContext{.cancel = &got_token});
        util::CancellationToken want_token;
        const TrippingRelatedness want_measure(measure, &want_token, limit);
        const MentionEntityGraph want =
            OracleBuild(instance.input, want_measure,
                        GraphBuildContext{.cancel = &want_token});
        ExpectSameGraph(got, want);
        aborted += got.aborted;
      }
    }
  }
  EXPECT_GE(aborted, 20u);
}

}  // namespace
}  // namespace aida::core
