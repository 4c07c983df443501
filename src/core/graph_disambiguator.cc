#include "core/graph_disambiguator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/dense_subgraph.h"
#include "graph/shortest_paths.h"
#include "util/rng.h"
#include "util/status.h"

namespace aida::core {

namespace {

// Distance charged for unreachable nodes in the pre-pruning phase.
constexpr double kUnreachablePenalty = 1e6;

}  // namespace

GraphSolution SolveMentionEntityGraph(
    const MentionEntityGraph& meg, const GraphDisambiguatorOptions& options,
    const GraphSolveContext& context) {
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
  for (graph::NodeId u = 0; u < full.node_count(); ++u) {
    if (old_to_new[u] == std::numeric_limits<uint32_t>::max()) continue;
    for (const graph::Edge& e : full.Neighbors(u)) {
      if (e.to <= u) continue;  // visit each undirected edge once
      if (old_to_new[e.to] == std::numeric_limits<uint32_t>::max()) continue;
      pruned.AddEdge(old_to_new[u], old_to_new[e.to], e.weight);
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
  // Occurrences: the alive (new node id, candidate index) pairs, active
  // mentions in mention order and candidates in candidate order; active
  // mention i owns occurrences [first[i], first[i + 1]). The greedy loop
  // guarantees one alive candidate per non-empty group; fall back to all
  // kept candidates if anything went sideways.
  std::vector<size_t> active;  // mentions that have alive candidates
  std::vector<uint32_t> first;
  std::vector<std::pair<graph::NodeId, uint32_t>> occ;
  uint64_t combinations = 1;
  bool overflow = false;
  for (size_t m = 0; m < num_mentions; ++m) {
    const uint32_t begin = static_cast<uint32_t>(occ.size());
    for (const auto& node_candidate : mention_nodes[m]) {
      if (dense.alive[node_candidate.first]) occ.push_back(node_candidate);
    }
    if (occ.size() == begin) {
      occ.insert(occ.end(), mention_nodes[m].begin(), mention_nodes[m].end());
    }
    if (occ.size() == begin) continue;
    active.push_back(m);
    first.push_back(begin);
    if (combinations > options.max_exhaustive_combinations) {
      overflow = true;
    } else {
      combinations *= occ.size() - begin;
      if (combinations > options.max_exhaustive_combinations) overflow = true;
    }
  }
  first.push_back(static_cast<uint32_t>(occ.size()));

  // Dense occurrence table: me[u] is the weight of u's mention-entity edge
  // and w[u * A + v] the weight of the edge between the entity nodes of u
  // and v, 0.0 for the same node or no edge. Entries are copied from
  // `pruned`'s adjacency (the last of any parallel edges wins), so every
  // sum below adds the same operands in the same order as a per-edge
  // lookup would, and rounds identically.
  const size_t A = occ.size();
  std::vector<double> me(A);
  std::vector<double> w(A * A);
  std::vector<double> row(next_id, 0.0);
  for (size_t i = 0; i < active.size(); ++i) {
    for (uint32_t u = first[i]; u < first[i + 1]; ++u) {
      const graph::NodeId node = occ[u].first;
      for (const graph::Edge& e : pruned.Neighbors(node)) row[e.to] = e.weight;
      me[u] = row[active[i]];
      double* wu = &w[u * A];
      for (size_t v = 0; v < A; ++v) {
        wu[v] = occ[v].first == node ? 0.0 : row[occ[v].first];
      }
      for (const graph::Edge& e : pruned.Neighbors(node)) row[e.to] = 0.0;
    }
  }

  // The occurrence chosen per active mention.
  std::vector<uint32_t> pick(first.begin(), first.end() - 1);
  std::vector<uint32_t> best_pick = pick;
  double best_total = -std::numeric_limits<double>::infinity();

  if (!overflow) {
    // Exhaustive enumeration with incremental scoring. Cancellation is
    // polled every 256 evaluated leaves so a slow enumeration cannot
    // outlive its request deadline.
    bool dfs_aborted = false;
    auto dfs = [&](auto& self, size_t depth, double acc) -> void {
      if (depth == active.size()) {
        ++solution.iterations;
        if ((solution.iterations & 0xFF) == 0 && cancel != nullptr &&
            cancel->cancelled()) {
          dfs_aborted = true;
          return;
        }
        if (acc > best_total) {
          best_total = acc;
          best_pick = pick;
        }
        return;
      }
      for (uint32_t u = first[depth]; u < first[depth + 1]; ++u) {
        pick[depth] = u;
        const double* wu = &w[u * A];
        double add = me[u];
        for (size_t j = 0; j < depth; ++j) add += wu[pick[j]];
        self(self, depth + 1, acc + add);
        if (dfs_aborted) return;
      }
    };
    dfs(dfs, 0, 0.0);
    if (dfs_aborted) {
      solution.aborted = true;
      return solution;
    }
  } else {
    // Randomized local search: start from the heaviest candidates, then
    // propose single-mention swaps with probability proportional to the
    // candidates' weighted degrees.
    util::Rng rng(options.seed);
    std::vector<double> occ_degree(A);
    for (size_t u = 0; u < A; ++u) {
      occ_degree[u] = pruned.WeightedDegree(occ[u].first);
    }
    for (size_t i = 0; i < active.size(); ++i) {
      double best_deg = -1.0;
      for (uint32_t u = first[i]; u < first[i + 1]; ++u) {
        if (occ_degree[u] > best_deg) {
          best_deg = occ_degree[u];
          pick[i] = u;
        }
      }
    }
    best_pick = pick;
    best_total = 0.0;
    for (size_t i = 0; i < active.size(); ++i) {
      const double* wi = &w[pick[i] * A];
      best_total += me[pick[i]];
      for (size_t j = i + 1; j < active.size(); ++j) {
        best_total += wi[pick[j]];
      }
    }
    double current_total = best_total;
    std::vector<double> degrees;
    for (size_t iter = 0; iter < options.local_search_iterations; ++iter) {
      if ((iter & 0x3F) == 0 && cancel != nullptr && cancel->cancelled()) {
        solution.aborted = true;
        return solution;
      }
      ++solution.iterations;
      size_t i = rng.UniformInt(active.size());
      if (first[i + 1] - first[i] < 2) continue;
      degrees.clear();
      for (uint32_t u = first[i]; u < first[i + 1]; ++u) {
        degrees.push_back(occ_degree[u] + 1e-9);
      }
      uint32_t proposal =
          first[i] + static_cast<uint32_t>(rng.Categorical(degrees));
      if (proposal == pick[i]) continue;
      // Incremental delta.
      const double* w_new = &w[proposal * A];
      const double* w_old = &w[pick[i] * A];
      double delta = me[proposal] - me[pick[i]];
      for (size_t j = 0; j < active.size(); ++j) {
        if (j == i) continue;
        delta += w_new[pick[j]] - w_old[pick[j]];
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
        static_cast<int32_t>(occ[best_pick[i]].second);
  }
  return solution;
}

}  // namespace aida::core
