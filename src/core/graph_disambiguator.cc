#include "core/graph_disambiguator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

#include "graph/dense_subgraph.h"
#include "graph/shortest_paths.h"
#include "util/rng.h"
#include "util/status.h"

namespace aida::core {

namespace {

// Distance charged for unreachable nodes in the pre-pruning phase.
constexpr double kUnreachablePenalty = 1e6;

uint64_t EdgeKey(graph::NodeId u, graph::NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

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

}  // namespace aida::core
