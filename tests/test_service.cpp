// The scheduling service (src/service/): canonical instance hashing
// (relabeling invariance + sensitivity), the plan cache's LRU behavior,
// admission control, the request/response wire format, end-to-end
// ScheduleService semantics (hit/miss/bypass, isomorphic plan mapping),
// and in-process schedd runs over string streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "service/api.hpp"
#include "service/daemon.hpp"
#include "service/graph_hash.hpp"
#include "service/plan_cache.hpp"
#include "service/service.hpp"
#include "topology/builders.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dagsched {
namespace {

using service::CacheStatus;
using service::CanonicalInstance;
using service::PlanCache;
using service::ResponseStatus;
using service::ScheduleRequest;
using service::ScheduleResponse;
using service::ScheduleService;
using service::ServeOptions;
using service::canonicalize_instance;
using service::instance_cache_key;

TaskGraph diamond_graph() {
  TaskGraph graph("diamond");
  graph.add_task("a", us(std::int64_t{100}));
  graph.add_task("b", us(std::int64_t{200}));
  graph.add_task("c", us(std::int64_t{300}));
  graph.add_task("d", us(std::int64_t{50}));
  graph.add_edge(0, 1, us(std::int64_t{10}));
  graph.add_edge(0, 2, us(std::int64_t{20}));
  graph.add_edge(1, 3, us(std::int64_t{5}));
  graph.add_edge(2, 3, us(std::int64_t{5}));
  return graph;
}

/// `permutation[old]` = new label; edges re-added in permuted order.
TaskGraph relabel(const TaskGraph& graph,
                  const std::vector<TaskId>& permutation) {
  std::vector<TaskId> inverse(permutation.size());
  for (std::size_t t = 0; t < permutation.size(); ++t) {
    inverse[static_cast<std::size_t>(permutation[t])] =
        static_cast<TaskId>(t);
  }
  TaskGraph out(graph.name());
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    const TaskId old = inverse[static_cast<std::size_t>(t)];
    out.add_task(graph.task_name(old), graph.duration(old));
  }
  // Reversed edge order doubles as the edge-reordering invariance check.
  const auto& edges = graph.edges();
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    out.add_edge(permutation[static_cast<std::size_t>(it->from)],
                 permutation[static_cast<std::size_t>(it->to)], it->weight);
  }
  return out;
}

// ------------------------------------- canonicalization differential

// A copy of the full-refinement labeling the incremental refinement in
// service/graph_hash.cpp replaced: every round recomputes every node's
// signature, and every individualization re-refines the whole graph.  The
// incremental version must reproduce its key and both permutations byte
// for byte.
namespace full_refine {

/// A node-and-edge-labeled graph in the shape the refinement works on:
/// per-node integer keys seeding the initial coloring, and (edge key,
/// neighbor) adjacency.  Directed graphs fill both lists; undirected ones
/// mirror every edge into `out` and leave `in` empty.
struct RefinementGraph {
  std::vector<std::int64_t> node_key;
  std::vector<std::vector<std::pair<std::int64_t, int>>> in;
  std::vector<std::vector<std::pair<std::int64_t, int>>> out;
};

using NeighborList = std::vector<std::pair<std::int64_t, int>>;

/// (own color, in-profile, out-profile) — the 1-WL signature.  Leading
/// with the old color makes each refinement round a strict refinement of
/// the previous partition, so dense re-numbering preserves class order.
using Signature = std::tuple<int, NeighborList, NeighborList>;

/// Individualization-refinement canonical labeling.  Returns the
/// canonical order: `order[c]` is the node at canonical index c.
std::vector<int> canonical_order(const RefinementGraph& graph) {
  const int n = static_cast<int>(graph.node_key.size());
  std::vector<int> color(static_cast<std::size_t>(n), 0);
  int num_colors = 0;

  // Initial colors: dense rank of the node key (label-invariant).
  {
    std::vector<std::int64_t> keys = graph.node_key;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (int v = 0; v < n; ++v) {
      color[static_cast<std::size_t>(v)] = static_cast<int>(
          std::lower_bound(keys.begin(), keys.end(),
                           graph.node_key[static_cast<std::size_t>(v)]) -
          keys.begin());
    }
    num_colors = static_cast<int>(keys.size());
  }

  std::vector<Signature> signature(static_cast<std::size_t>(n));
  std::vector<int> order(static_cast<std::size_t>(n));

  const auto refine = [&]() {
    while (num_colors < n) {
      for (int v = 0; v < n; ++v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        NeighborList in_profile, out_profile;
        in_profile.reserve(graph.in[vi].size());
        for (const auto& [key, u] : graph.in[vi]) {
          in_profile.emplace_back(key, color[static_cast<std::size_t>(u)]);
        }
        out_profile.reserve(graph.out[vi].size());
        for (const auto& [key, u] : graph.out[vi]) {
          out_profile.emplace_back(key, color[static_cast<std::size_t>(u)]);
        }
        std::sort(in_profile.begin(), in_profile.end());
        std::sort(out_profile.begin(), out_profile.end());
        signature[vi] = {color[vi], std::move(in_profile),
                         std::move(out_profile)};
      }
      for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return signature[static_cast<std::size_t>(a)] <
               signature[static_cast<std::size_t>(b)];
      });
      int fresh = 0;
      for (int i = 0; i < n; ++i) {
        if (i > 0 && signature[static_cast<std::size_t>(order[
                         static_cast<std::size_t>(i)])] !=
                         signature[static_cast<std::size_t>(order[
                             static_cast<std::size_t>(i - 1)])]) {
          ++fresh;
        }
        color[static_cast<std::size_t>(
            order[static_cast<std::size_t>(i)])] = fresh;
      }
      ++fresh;
      if (fresh == num_colors) break;  // stable partition
      num_colors = fresh;
    }
  };

  refine();
  // Individualize until discrete: split the first non-singleton class.
  // Which member is chosen is label-dependent, but for automorphic tie
  // classes (every class the sweep's generator families produce) all
  // choices yield the same canonical form — and a non-automorphic tie can
  // only cost a cache hit, never correctness, because the cache compares
  // full keys exactly.
  while (num_colors < n) {
    std::vector<int> population(static_cast<std::size_t>(num_colors), 0);
    for (int v = 0; v < n; ++v)
      ++population[static_cast<std::size_t>(color[static_cast<std::size_t>(v)])];
    int target = -1;
    for (int c = 0; c < num_colors; ++c) {
      if (population[static_cast<std::size_t>(c)] > 1) {
        target = c;
        break;
      }
    }
    require(target >= 0, "canonical_order: no splittable class");
    for (int v = 0; v < n; ++v) {
      if (color[static_cast<std::size_t>(v)] == target) {
        color[static_cast<std::size_t>(v)] = num_colors;  // unique tag
        break;
      }
    }
    ++num_colors;
    refine();
  }

  std::vector<int> canonical(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    canonical[static_cast<std::size_t>(
        color[static_cast<std::size_t>(v)])] = v;
  }
  return canonical;
}

void append_int(std::string& out, std::int64_t value) {
  out += std::to_string(value);
}

CanonicalInstance full_refine_canonicalize(const TaskGraph& graph,
                                           const Topology& topology,
                                           const CommModel& comm) {
  CanonicalInstance instance;
  const int num_tasks = graph.num_tasks();
  const int num_procs = topology.num_procs();

  // --- canonical task labeling ---
  {
    RefinementGraph rg;
    rg.node_key.resize(static_cast<std::size_t>(num_tasks));
    rg.in.resize(rg.node_key.size());
    rg.out.resize(rg.node_key.size());
    for (TaskId t = 0; t < num_tasks; ++t) {
      rg.node_key[static_cast<std::size_t>(t)] = graph.duration(t);
    }
    for (const Edge& edge : graph.edges()) {
      rg.out[static_cast<std::size_t>(edge.from)].emplace_back(edge.weight,
                                                               edge.to);
      rg.in[static_cast<std::size_t>(edge.to)].emplace_back(edge.weight,
                                                            edge.from);
    }
    const std::vector<int> order = canonical_order(rg);
    instance.task_of_canonical.assign(order.begin(), order.end());
    instance.canonical_of_task.resize(static_cast<std::size_t>(num_tasks));
    for (int c = 0; c < num_tasks; ++c) {
      instance.canonical_of_task[static_cast<std::size_t>(
          order[static_cast<std::size_t>(c)])] = c;
    }
  }

  // --- canonical processor labeling ---
  // Links are undirected; the refinement edge key is the *size* of the
  // link's contention channel (its sharing degree), which is all the
  // label-invariant information a single link carries.  Full channel
  // identity goes into the serialization below.
  std::vector<std::tuple<ProcId, ProcId, ChannelId>> links;
  {
    std::vector<int> channel_size(
        static_cast<std::size_t>(topology.num_channels()), 0);
    for (ProcId a = 0; a < num_procs; ++a) {
      for (ProcId b = a + 1; b < num_procs; ++b) {
        const ChannelId channel = topology.channel(a, b);
        if (channel == kInvalidChannel) continue;
        links.emplace_back(a, b, channel);
        ++channel_size[static_cast<std::size_t>(channel)];
      }
    }
    RefinementGraph rg;
    rg.node_key.assign(static_cast<std::size_t>(num_procs), 0);
    rg.in.resize(rg.node_key.size());
    rg.out.resize(rg.node_key.size());
    for (const auto& [a, b, channel] : links) {
      const std::int64_t key =
          channel_size[static_cast<std::size_t>(channel)];
      rg.out[static_cast<std::size_t>(a)].emplace_back(key, b);
      rg.out[static_cast<std::size_t>(b)].emplace_back(key, a);
    }
    const std::vector<int> order = canonical_order(rg);
    instance.proc_of_canonical.assign(order.begin(), order.end());
    instance.canonical_of_proc.resize(static_cast<std::size_t>(num_procs));
    for (int c = 0; c < num_procs; ++c) {
      instance.canonical_of_proc[static_cast<std::size_t>(
          order[static_cast<std::size_t>(c)])] = c;
    }
  }

  // --- serialization under the canonical labels ---
  std::string& key = instance.key;
  key.reserve(64 + 16 * static_cast<std::size_t>(num_tasks) +
              8 * links.size());
  key += "g:";
  append_int(key, num_tasks);
  key += ";d:";
  for (int c = 0; c < num_tasks; ++c) {
    if (c > 0) key += ',';
    append_int(key,
               graph.duration(instance.task_of_canonical[
                   static_cast<std::size_t>(c)]));
  }
  key += ";e:";
  {
    std::vector<std::tuple<int, int, Time>> edges;
    edges.reserve(static_cast<std::size_t>(graph.num_edges()));
    for (const Edge& edge : graph.edges()) {
      edges.emplace_back(
          instance.canonical_of_task[static_cast<std::size_t>(edge.from)],
          instance.canonical_of_task[static_cast<std::size_t>(edge.to)],
          edge.weight);
    }
    std::sort(edges.begin(), edges.end());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i > 0) key += ';';
      append_int(key, std::get<0>(edges[i]));
      key += '-';
      append_int(key, std::get<1>(edges[i]));
      key += '-';
      append_int(key, std::get<2>(edges[i]));
    }
  }
  key += "|p:";
  append_int(key, num_procs);
  key += ";l:";
  {
    // Canonical link list with channels renumbered by first appearance,
    // so channel-sharing structure (bus vs. point-to-point) is captured
    // without depending on the builder's channel numbering.
    std::vector<std::tuple<int, int, ChannelId>> canonical_links;
    canonical_links.reserve(links.size());
    for (const auto& [a, b, channel] : links) {
      int ca = instance.canonical_of_proc[static_cast<std::size_t>(a)];
      int cb = instance.canonical_of_proc[static_cast<std::size_t>(b)];
      if (ca > cb) std::swap(ca, cb);
      canonical_links.emplace_back(ca, cb, channel);
    }
    std::sort(canonical_links.begin(), canonical_links.end());
    std::vector<int> channel_rank(
        static_cast<std::size_t>(topology.num_channels()), -1);
    int next_rank = 0;
    for (std::size_t i = 0; i < canonical_links.size(); ++i) {
      const auto& [ca, cb, channel] = canonical_links[i];
      int& rank = channel_rank[static_cast<std::size_t>(channel)];
      if (rank < 0) rank = next_rank++;
      if (i > 0) key += ';';
      append_int(key, ca);
      key += '-';
      append_int(key, cb);
      key += '-';
      append_int(key, rank);
    }
  }
  key += "|c:";
  if (comm.enabled) {
    key += "1,";
    append_int(key, comm.sigma);
    key += ',';
    append_int(key, comm.tau);
    key += ',';
    key += to_string(comm.send_cpu);
  } else {
    key += "0";
  }

  instance.hash = service::fnv1a(key);
  return instance;
}

}  // namespace full_refine

// ---------------------------------------------------------- graph hash

TEST(GraphHash, TaskRelabelingAndEdgeOrderInvariant) {
  const TaskGraph graph = diamond_graph();
  const Topology topology = topo::hypercube(2);
  const CommModel comm = CommModel::paper_default();
  const CanonicalInstance base =
      canonicalize_instance(graph, topology, comm);

  const std::vector<TaskId> permutation{2, 3, 0, 1};
  const CanonicalInstance relabeled =
      canonicalize_instance(relabel(graph, permutation), topology, comm);
  EXPECT_EQ(base.key, relabeled.key);
  EXPECT_EQ(base.hash, relabeled.hash);
  // The canonical index of a task is label-independent, so composing the
  // permutation with the relabeled mapping recovers the original one.
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    EXPECT_EQ(base.canonical_of_task[static_cast<std::size_t>(t)],
              relabeled.canonical_of_task[static_cast<std::size_t>(
                  permutation[static_cast<std::size_t>(t)])]);
  }
}

TEST(GraphHash, ProcessorRelabelingInvariant) {
  const TaskGraph graph = diamond_graph();
  const CommModel comm = CommModel::paper_default();
  // A 4-ring and the same ring with rotated processor labels.
  const Topology ring =
      Topology::from_links(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, "ring:4");
  const Topology rotated =
      Topology::from_links(4, {{1, 2}, {2, 3}, {3, 0}, {0, 1}}, "ring:4");
  const Topology shuffled =
      Topology::from_links(4, {{2, 0}, {0, 3}, {3, 1}, {1, 2}}, "ring:4");
  EXPECT_EQ(canonicalize_instance(graph, ring, comm).key,
            canonicalize_instance(graph, rotated, comm).key);
  EXPECT_EQ(canonicalize_instance(graph, ring, comm).key,
            canonicalize_instance(graph, shuffled, comm).key);
}

TEST(GraphHash, SensitiveToEveryInstanceComponent) {
  const TaskGraph graph = diamond_graph();
  const Topology topology = topo::hypercube(2);
  const CommModel comm = CommModel::paper_default();
  const std::string base = canonicalize_instance(graph, topology, comm).key;

  TaskGraph duration_changed = diamond_graph();
  duration_changed.set_duration(1, us(std::int64_t{201}));
  EXPECT_NE(base,
            canonicalize_instance(duration_changed, topology, comm).key);

  TaskGraph weight_changed("diamond");
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    weight_changed.add_task(graph.task_name(t), graph.duration(t));
  }
  weight_changed.add_edge(0, 1, us(std::int64_t{11}));
  weight_changed.add_edge(0, 2, us(std::int64_t{20}));
  weight_changed.add_edge(1, 3, us(std::int64_t{5}));
  weight_changed.add_edge(2, 3, us(std::int64_t{5}));
  EXPECT_NE(base,
            canonicalize_instance(weight_changed, topology, comm).key);

  EXPECT_NE(base,
            canonicalize_instance(graph, topo::hypercube(3), comm).key);
  EXPECT_NE(base, canonicalize_instance(graph, topo::bus(4), comm).key);

  CommModel sigma_changed = comm;
  sigma_changed.sigma += us(std::int64_t{1});
  EXPECT_NE(base,
            canonicalize_instance(graph, topology, sigma_changed).key);
  EXPECT_NE(base,
            canonicalize_instance(graph, topology,
                                  CommModel::disabled()).key);
}

TEST(GraphHash, RandomRelabelingSweepNoCollisions) {
  // Across several generator families and seeds: every instance's key is
  // unique, and a random relabeling of each maps to the same key.
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  std::set<std::string> keys;
  Rng rng(2026);
  int instances = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::GnpDagOptions gnp;
    gnp.num_tasks = 12;
    gnp.edge_probability = 0.3;
    gnp.min_duration = us(std::int64_t{10});
    gnp.max_duration = us(std::int64_t{500});
    gnp.min_weight = us(std::int64_t{1});
    gnp.max_weight = us(std::int64_t{50});
    gnp.seed = seed;
    gen::LayeredDagOptions layered;
    layered.layers = 4;
    layered.min_width = 2;
    layered.max_width = 4;
    layered.edge_probability = 0.5;
    layered.min_duration = us(std::int64_t{10});
    layered.max_duration = us(std::int64_t{300});
    layered.min_weight = us(std::int64_t{1});
    layered.max_weight = us(std::int64_t{20});
    layered.seed = seed;
    for (const TaskGraph& graph :
         {gen::gnp_dag(gnp), gen::layered_dag(layered),
          gen::out_tree(3, 2, us(100 + 7 * static_cast<Time>(seed)),
                        us(std::int64_t{10}))}) {
      const CanonicalInstance base =
          canonicalize_instance(graph, topology, comm);
      EXPECT_TRUE(keys.insert(base.key).second)
          << "key collision between structurally different instances";
      std::vector<TaskId> permutation(
          static_cast<std::size_t>(graph.num_tasks()));
      std::iota(permutation.begin(), permutation.end(), 0);
      for (std::size_t i = permutation.size(); i > 1; --i) {
        std::swap(permutation[i - 1], permutation[rng.uniform_index(i)]);
      }
      EXPECT_EQ(base.key,
                canonicalize_instance(relabel(graph, permutation), topology,
                                      comm).key)
          << "random relabeling changed the canonical key";
      ++instances;
    }
  }
  EXPECT_EQ(instances, 24);
}

/// A random permutation of 0..n-1.
std::vector<int> shuffled_labels(int n, Rng& rng) {
  std::vector<int> permutation(static_cast<std::size_t>(n));
  std::iota(permutation.begin(), permutation.end(), 0);
  for (std::size_t i = permutation.size(); i > 1; --i) {
    std::swap(permutation[i - 1], permutation[rng.uniform_index(i)]);
  }
  return permutation;
}

/// `topology`'s links under the processor relabeling `permutation`, with
/// the link list itself shuffled.  Point-to-point topologies only.
Topology relabel_links(const Topology& topology,
                       const std::vector<int>& permutation, Rng& rng) {
  std::vector<std::pair<int, int>> links;
  for (ProcId a = 0; a < topology.num_procs(); ++a) {
    for (ProcId b = a + 1; b < topology.num_procs(); ++b) {
      if (topology.channel(a, b) == kInvalidChannel) continue;
      links.emplace_back(permutation[static_cast<std::size_t>(b)],
                         permutation[static_cast<std::size_t>(a)]);
    }
  }
  for (std::size_t i = links.size(); i > 1; --i) {
    std::swap(links[i - 1], links[rng.uniform_index(i)]);
  }
  return Topology::from_links(topology.num_procs(), links,
                              topology.name() + "-relabeled");
}

void expect_same_canonical_form(const TaskGraph& graph,
                                const Topology& topology,
                                const CommModel& comm) {
  const CanonicalInstance want =
      full_refine::full_refine_canonicalize(graph, topology, comm);
  const CanonicalInstance got = canonicalize_instance(graph, topology, comm);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.task_of_canonical, want.task_of_canonical);
  EXPECT_EQ(got.canonical_of_task, want.canonical_of_task);
  EXPECT_EQ(got.proc_of_canonical, want.proc_of_canonical);
  EXPECT_EQ(got.canonical_of_proc, want.canonical_of_proc);
  EXPECT_EQ(got.hash, want.hash);
}

TEST(GraphHash, IncrementalRefinementMatchesFullRefinement) {
  // Symmetric and tie-heavy graphs, where refinement stalls and
  // individualization does most of the work, plus random graphs whose
  // narrow duration and weight ranges make equal signatures common.
  const Time d5 = us(std::int64_t{5});
  const Time d10 = us(std::int64_t{10});
  std::vector<std::pair<std::string, TaskGraph>> graphs;
  for (int width = 1; width <= 64; ++width) {
    graphs.emplace_back("fork_join/" + std::to_string(width),
                        gen::fork_join(3, width, d10, us(std::int64_t{20}),
                                       d10, us(std::int64_t{4})));
  }
  graphs.emplace_back("out_tree", gen::out_tree(4, 3, d10, d5));
  graphs.emplace_back("in_tree", gen::in_tree(4, 3, d10, d5));
  graphs.emplace_back("out_tree/binary", gen::out_tree(6, 2, d10, 0));
  graphs.emplace_back("independent", gen::independent(40, d5));
  graphs.emplace_back("chain", gen::chain(30, d5, d5));
  // Generators draw durations and weights in nanoseconds: ranges a few
  // nanoseconds wide leave only a handful of distinct values.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::GnpDagOptions gnp;
    gnp.num_tasks = 60;
    gnp.edge_probability = 0.06;
    gnp.min_duration = d5;
    gnp.max_duration = d5 + 2;
    gnp.min_weight = 0;
    gnp.max_weight = 1;
    gnp.seed = seed;
    graphs.emplace_back("gnp/" + std::to_string(seed), gen::gnp_dag(gnp));
    gen::LayeredDagOptions layered;
    layered.layers = 5;
    layered.min_width = 3;
    layered.max_width = 8;
    layered.edge_probability = 0.3;
    layered.min_duration = d5;
    layered.max_duration = d5;
    layered.min_weight = 1;
    layered.max_weight = 2;
    layered.seed = seed;
    graphs.emplace_back("layered/" + std::to_string(seed),
                        gen::layered_dag(layered));
  }
  // Small dense DAGs over one to three durations and weights: refinement
  // rounds split several cells at once, so they catch a refinement that
  // lets one cell's split reorder another cell of the same round.
  Rng shapes(7);
  for (int i = 0; i < 60; ++i) {
    const int n = 6 + static_cast<int>(shapes.uniform_index(40));
    const std::size_t durations = 1 + shapes.uniform_index(3);
    const std::size_t weights = 1 + shapes.uniform_index(3);
    const double density = 0.05 + 0.3 * shapes.uniform01();
    TaskGraph graph("tiny-alphabet");
    for (int t = 0; t < n; ++t) {
      graph.add_task("t" + std::to_string(t),
                     d5 + static_cast<Time>(shapes.uniform_index(durations)));
    }
    for (TaskId a = 0; a < n; ++a) {
      for (TaskId b = a + 1; b < n; ++b) {
        if (shapes.uniform01() < density) {
          graph.add_edge(a, b,
                         static_cast<Time>(shapes.uniform_index(weights)));
        }
      }
    }
    graphs.emplace_back("tiny-alphabet/" + std::to_string(i), std::move(graph));
  }
  {
    gen::GnpDagOptions gnp;
    gnp.num_tasks = 4000;
    gnp.edge_probability = 4.0 / 4000;
    gnp.min_duration = d5;
    gnp.max_duration = d5 + 3;
    gnp.max_weight = 2;
    gnp.seed = 41;
    graphs.emplace_back("gnp4k", gen::gnp_dag(gnp));
  }

  // Processor labeling does not depend on the task graph, so the graphs
  // take the topologies in turn rather than all three each.
  const Topology topologies[] = {topo::hypercube(3), topo::bus(4),
                                 topo::ring(5)};
  const CommModel comm = CommModel::paper_default();
  Rng rng(13);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& [name, graph] = graphs[i];
    const Topology& topology = topologies[i % 3];
    SCOPED_TRACE(name + " on " + topology.name());
    const std::vector<int> labels = shuffled_labels(graph.num_tasks(), rng);
    const TaskGraph relabeled =
        relabel(graph, std::vector<TaskId>(labels.begin(), labels.end()));
    expect_same_canonical_form(graph, topology, comm);
    expect_same_canonical_form(relabeled, topology, comm);
    if (topology.num_channels() == topology.num_links()) {
      const Topology procs_relabeled = relabel_links(
          topology, shuffled_labels(topology.num_procs(), rng), rng);
      expect_same_canonical_form(relabeled, procs_relabeled, comm);
    }
  }
}

TEST(GraphHash, RefinementWorkIsLinearOnForkJoin) {
  // Deterministic complexity guard (no clock): the signatures computed to
  // canonicalize fork_join(8, w) grow linearly in the graph size.  A full
  // re-refinement per individualization computes about n per chosen node,
  // i.e. grows like n^2.
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  for (const int width : {64, 256, 1024}) {
    const TaskGraph graph =
        gen::fork_join(8, width, us(std::int64_t{10}), us(std::int64_t{20}),
                       us(std::int64_t{10}), us(std::int64_t{4}));
    const std::int64_t size = graph.num_tasks() + graph.num_edges();
    const CanonicalInstance instance =
        canonicalize_instance(graph, topology, comm);
    EXPECT_GT(instance.refined_nodes, 0) << "width " << width;
    EXPECT_LE(instance.refined_nodes, 8 * size) << "width " << width;
  }
}

TEST(GraphHash, CacheKeySeedPolicyComposition) {
  const TaskGraph graph = diamond_graph();
  const CanonicalInstance instance = canonicalize_instance(
      graph, topo::hypercube(2), CommModel::paper_default());
  const std::string deterministic =
      instance_cache_key(instance, "heft(ranking=heft)", false, 7);
  EXPECT_EQ(deterministic,
            instance_cache_key(instance, "heft(ranking=heft)", false, 8))
      << "seed must not key deterministic policies";
  EXPECT_NE(instance_cache_key(instance, "gsa(chains=2)", true, 7),
            instance_cache_key(instance, "gsa(chains=2)", true, 8));
  EXPECT_NE(deterministic,
            instance_cache_key(instance, "heft(ranking=peft)", false, 7));
}

// ---------------------------------------------------------- plan cache

TEST(PlanCacheTest, LruEvictionAndPromotion) {
  PlanCache cache(2);
  PlanCache::Entry entry;
  entry.makespan = us(std::int64_t{100});
  cache.insert("a", entry);
  cache.insert("b", entry);
  ASSERT_TRUE(cache.lookup("a").has_value());  // promotes a over b
  cache.insert("c", entry);                    // evicts b, the LRU
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);

  const service::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  PlanCache::Entry entry;
  cache.insert("a", entry);
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().insertions, 0);
}

// ---------------------------------------------------- admission control

TEST(Admission, QueueFullAndDeadlineRules) {
  service::ScheddOptions options;
  options.max_in_flight = 2;
  options.max_queue = 3;
  options.default_cost_ms = 0.0;

  EXPECT_TRUE(service::admit_request(0.0, 2, 100.0, options).admitted);
  const auto full = service::admit_request(0.0, 3, 0.0, options);
  EXPECT_FALSE(full.admitted);
  EXPECT_NE(full.reason.find("queue_full"), std::string::npos);

  // 100 ms of queued work over 2 workers = 50 ms expected wait: a 49 ms
  // budget is unmeetable, a 51 ms budget is fine, no budget never sheds.
  const auto late = service::admit_request(49.0, 1, 100.0, options);
  EXPECT_FALSE(late.admitted);
  EXPECT_NE(late.reason.find("deadline_unmeetable"), std::string::npos);
  EXPECT_TRUE(service::admit_request(51.0, 1, 100.0, options).admitted);
  EXPECT_TRUE(service::admit_request(0.0, 1, 100.0, options).admitted);
}

// -------------------------------------------------------- wire format

TEST(ServiceApi, RequestJsonRoundTrip) {
  ScheduleRequest request;
  request.id = "r1";
  request.graph = diamond_graph();
  request.topology = "ring:5";
  request.policy = "gsa(chains=4)";
  request.seed = 42;
  request.time_budget_ms = 12.5;
  request.priority = 3;
  request.comm.sigma = us(std::int64_t{7});

  const ScheduleRequest parsed =
      service::request_from_json_text(service::to_json(request));
  EXPECT_EQ(parsed.id, "r1");
  EXPECT_EQ(parsed.policy, "gsa(chains=4)");
  EXPECT_EQ(parsed.seed, 42u);
  EXPECT_DOUBLE_EQ(parsed.time_budget_ms, 12.5);
  EXPECT_EQ(parsed.priority, 3);
  EXPECT_EQ(parsed.topology, "ring:5");
  EXPECT_EQ(parsed.comm.sigma, us(std::int64_t{7}));
  EXPECT_EQ(parsed.graph.num_tasks(), 4);
  EXPECT_EQ(parsed.graph.duration(2), us(std::int64_t{300}));
  EXPECT_EQ(parsed.graph.task_name(3), "d");
  // Canonical form: a second round trip is byte-identical.
  EXPECT_EQ(service::to_json(request), service::to_json(parsed));
}

TEST(ServiceApi, RejectsMalformedRequests) {
  const auto message = [](const std::string& text) {
    try {
      service::request_from_json_text(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_NE(message("{}").find("missing 'graph'"), std::string::npos);
  EXPECT_NE(message(R"({"graph":{"durations_us":[1]},"polcy":"sa"})")
                .find("no key 'polcy'"),
            std::string::npos);
  EXPECT_NE(message(R"({"graph":{"durations_us":[1],"durations_ns":[1]}})")
                .find("exactly one"),
            std::string::npos);
  EXPECT_NE(message(R"({"graph":{"durations_us":[]}})").find("no tasks"),
            std::string::npos);
  EXPECT_NE(
      message(R"({"graph":{"durations_us":[1,2],"edges":[[0,1]]}})")
          .find("[from, to, weight]"),
      std::string::npos);
  EXPECT_NE(
      message(R"({"graph":{"durations_us":[1,2],"edges":[[0,5,1]]}})")
          .find("out of range"),
      std::string::npos);
  EXPECT_NE(
      message(R"({"graph":{"durations_us":[1,2],"names":["only"]}})")
          .find("length differs"),
      std::string::npos);
  EXPECT_NE(message("[1,2]").find("must be a JSON object"),
            std::string::npos);
}

// ----------------------------------------------------- ScheduleService

TEST(ScheduleServiceTest, MissThenHitWithIdenticalPlan) {
  ScheduleService schedule_service(16);
  ScheduleRequest request;
  request.graph = diamond_graph();
  request.topology = "hypercube:2";
  request.policy = "heft";

  const ScheduleResponse first = schedule_service.serve(request);
  ASSERT_EQ(first.status, ResponseStatus::Ok);
  EXPECT_EQ(first.cache, CacheStatus::Miss);
  EXPECT_GT(first.makespan, 0);
  EXPECT_GT(first.predicted_makespan, 0);

  const ScheduleResponse second = schedule_service.serve(request);
  EXPECT_EQ(second.cache, CacheStatus::Hit);
  EXPECT_EQ(second.makespan, first.makespan);
  EXPECT_EQ(second.predicted_makespan, first.predicted_makespan);
  EXPECT_EQ(second.placement, first.placement);
  EXPECT_EQ(second.graph_hash, first.graph_hash);
}

TEST(ScheduleServiceTest, IsomorphicRequestHitsWithMappedPlan) {
  ScheduleService schedule_service(16);
  ScheduleRequest request;
  request.graph = diamond_graph();
  request.topology = "hypercube:2";
  request.policy = "heft";
  const ScheduleResponse first = schedule_service.serve(request);
  ASSERT_EQ(first.cache, CacheStatus::Miss);

  const std::vector<TaskId> permutation{2, 3, 0, 1};
  ScheduleRequest relabeled = request;
  relabeled.graph = relabel(request.graph, permutation);
  const ScheduleResponse second = schedule_service.serve(relabeled);
  ASSERT_EQ(second.status, ResponseStatus::Ok);
  EXPECT_EQ(second.cache, CacheStatus::Hit);
  EXPECT_EQ(second.makespan, first.makespan);
  EXPECT_EQ(second.graph_hash, first.graph_hash);
  // The cached canonical plan maps back through the permutation: task t
  // of the original is task permutation[t] of the relabeling.
  for (TaskId t = 0; t < request.graph.num_tasks(); ++t) {
    EXPECT_EQ(second.placement[static_cast<std::size_t>(
                  permutation[static_cast<std::size_t>(t)])],
              first.placement[static_cast<std::size_t>(t)]);
  }
}

TEST(ScheduleServiceTest, SeedKeysOnlyNondeterministicPolicies) {
  ScheduleService schedule_service(16);
  ScheduleRequest request;
  request.graph = diamond_graph();
  request.topology = "hypercube:2";

  request.policy = "heft";
  request.seed = 1;
  EXPECT_EQ(schedule_service.serve(request).cache, CacheStatus::Miss);
  request.seed = 99;  // deterministic policy: seed ignored by the key
  EXPECT_EQ(schedule_service.serve(request).cache, CacheStatus::Hit);

  request.policy = "gsa(max_steps=4,chains=1)";
  request.seed = 1;
  EXPECT_EQ(schedule_service.serve(request).cache, CacheStatus::Miss);
  request.seed = 2;  // rng policy: a new seed is a new plan
  EXPECT_EQ(schedule_service.serve(request).cache, CacheStatus::Miss);
  request.seed = 1;
  EXPECT_EQ(schedule_service.serve(request).cache, CacheStatus::Hit);
}

TEST(ScheduleServiceTest, TraceAndFaultRunsBypassTheCache) {
  ScheduleService schedule_service(16);
  ScheduleRequest request;
  request.graph = diamond_graph();
  request.topology = "hypercube:2";
  request.policy = "heft";
  schedule_service.serve(request);  // warm the cache

  ServeOptions options;
  options.record_trace = true;
  EXPECT_EQ(schedule_service.serve(request, options).cache,
            CacheStatus::Off);
  sim::FaultSpec faults;
  faults.machine_mtbf = us(std::int64_t{100000});
  faults.machine_mttr = us(std::int64_t{100});
  ServeOptions fault_options;
  fault_options.faults = &faults;
  EXPECT_EQ(schedule_service.serve(request, fault_options).cache,
            CacheStatus::Off);
}

TEST(ScheduleServiceTest, ErrorsAreStructuredOrPropagated) {
  ScheduleService schedule_service(0);
  ScheduleRequest request;
  request.graph = diamond_graph();
  request.policy = "no-such-policy";
  const ScheduleResponse response = schedule_service.serve(request);
  EXPECT_EQ(response.status, ResponseStatus::Error);
  EXPECT_NE(response.error.find("unknown policy"), std::string::npos);
  EXPECT_EQ(schedule_service.stats().errors, 1);

  ServeOptions options;
  options.propagate_errors = true;
  EXPECT_THROW(schedule_service.serve(request, options),
               std::invalid_argument);
}

// --------------------------------------------------------------- schedd

std::string run_daemon(const std::string& input,
                       const service::ScheddOptions& options,
                       std::string* trace_out = nullptr,
                       service::ScheddStats* stats_out = nullptr) {
  service::Schedd daemon(options);
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream trace;
  EXPECT_EQ(daemon.run(in, out, trace_out != nullptr ? &trace : nullptr), 0);
  if (trace_out != nullptr) *trace_out = trace.str();
  if (stats_out != nullptr) *stats_out = daemon.stats();
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

const char* kDaemonScript =
    "{\"op\":\"list_policies\",\"id\":\"lp\"}\n"
    "{\"id\":\"one\",\"policy\":\"heft\",\"topology\":\"hypercube:2\","
    "\"graph\":{\"durations_us\":[100,200,50],\"edges\":[[0,1,5],[0,2,5]]}}"
    "\n"
    "{\"id\":\"two\",\"policy\":\"heft\",\"topology\":\"hypercube:2\","
    "\"graph\":{\"durations_us\":[100,200,50],\"edges\":[[0,1,5],[0,2,5]]}}"
    "\n"
    "not json at all\n"
    "{\"op\":\"stats\",\"id\":\"st\"}\n";

TEST(ScheddTest, OrderedResponsesCountersAndTrace) {
  service::ScheddOptions options;
  options.max_in_flight = 1;
  std::string trace;
  service::ScheddStats stats;
  const std::vector<std::string> lines =
      lines_of(run_daemon(kDaemonScript, options, &trace, &stats));

  ASSERT_EQ(lines.size(), 5u);  // responses in request order
  EXPECT_NE(lines[0].find("\"id\":\"lp\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"heft\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"predicted_makespan_us\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"received\":4,\"completed\":3,\"shed\":0,"
                          "\"errors\":1,\"cache_hits\":1,"
                          "\"cache_misses\":1"),
            std::string::npos);

  EXPECT_EQ(stats.received, 5);
  EXPECT_EQ(stats.completed, 4);  // lp + two schedules + the stats op
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.cache_hits, 1);

  // The trace records arrival/start/finish per request plus the drain
  // summary, and a repeated run is byte-identical.
  EXPECT_NE(trace.find("\"event\":\"arrival\""), std::string::npos);
  EXPECT_NE(trace.find("\"event\":\"start\""), std::string::npos);
  EXPECT_NE(trace.find("\"event\":\"finish\""), std::string::npos);
  EXPECT_NE(trace.find("\"event\":\"drain\""), std::string::npos);
  std::string trace_again;
  run_daemon(kDaemonScript, options, &trace_again);
  EXPECT_EQ(trace, trace_again);
}

TEST(ScheddTest, ZeroQueueShedsWithStructuredReason) {
  service::ScheddOptions options;
  options.max_in_flight = 1;
  options.max_queue = 0;
  const std::string input =
      "{\"id\":\"a\",\"graph\":{\"durations_us\":[10]}}\n"
      "{\"id\":\"b\",\"graph\":{\"durations_us\":[10]}}\n";
  service::ScheddStats stats;
  const std::string output = run_daemon(input, options, nullptr, &stats);
  const std::vector<std::string> lines = lines_of(output);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"status\":\"shed\""), std::string::npos);
    EXPECT_NE(line.find("queue_full"), std::string::npos);
  }
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.completed, 0);
}

TEST(ScheddTest, MultiWorkerStillEmitsInRequestOrder) {
  service::ScheddOptions options;
  options.max_in_flight = 4;
  options.cache_capacity = 0;
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += "{\"id\":\"r" + std::to_string(i) +
             "\",\"policy\":\"hlf\",\"topology\":\"hypercube:2\","
             "\"graph\":{\"durations_us\":[40,30,20,10],"
             "\"edges\":[[0,1,2],[0,2,2],[1,3,1]]}}\n";
  }
  const std::vector<std::string> lines =
      lines_of(run_daemon(input, options));
  ASSERT_EQ(lines.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\":\"r" + std::to_string(i) + "\""),
              std::string::npos)
        << "responses must come back in request order";
  }
}

/// An input buffer that hands out one byte per read and records, on each
/// read, what its stream is tied to.
class TieRecordingBuffer : public std::streambuf {
 public:
  explicit TieRecordingBuffer(std::string text) : text_(std::move(text)) {}

  void watch(const std::istream* stream) { stream_ = stream; }
  const std::vector<std::ostream*>& ties_seen() const { return ties_seen_; }

 protected:
  int_type underflow() override {
    ties_seen_.push_back(stream_->tie());
    if (next_ >= text_.size()) return traits_type::eof();
    char* byte = &text_[next_++];
    setg(byte, byte, byte + 1);
    return traits_type::to_int_type(*byte);
  }

 private:
  std::string text_;
  std::size_t next_ = 0;
  const std::istream* stream_ = nullptr;
  std::vector<std::ostream*> ties_seen_;
};

// A tied input stream flushes its tie on every read, from the reader
// thread; the daemon's output belongs to the emit path alone.
TEST(Schedd, RunUntiesAndRestoresInputTie) {
  TieRecordingBuffer buffer(
      "{\"id\":\"a\",\"graph\":{\"durations_us\":[10]}}\n"
      "{\"op\":\"stats\",\"id\":\"s\"}\n");
  std::istream in(&buffer);
  buffer.watch(&in);
  std::ostringstream tied_to;
  in.tie(&tied_to);

  service::ScheddOptions options;
  options.max_in_flight = 2;
  service::Schedd daemon(options);
  std::ostringstream out;
  EXPECT_EQ(daemon.run(in, out), 0);

  ASSERT_FALSE(buffer.ties_seen().empty());
  for (const std::ostream* tie : buffer.ties_seen()) {
    EXPECT_EQ(tie, nullptr) << "the input was still tied during the run";
  }
  EXPECT_EQ(in.tie(), &tied_to) << "run() must restore the caller's tie";
  EXPECT_EQ(lines_of(out.str()).size(), 2u);
}

}  // namespace
}  // namespace dagsched
