#include "service/graph_hash.hpp"

#include <algorithm>
#include <compare>
#include <tuple>
#include <utility>


namespace dagsched::service {

namespace {

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

/// Individualization-refinement canonical labeling (1-WL color refinement
/// with deterministic tie-breaking).  Returns the canonical order:
/// `order[c]` is the node at canonical index c.  Adds the number of node
/// signatures it computes to `refined_nodes`.
///
/// The partition is kept ordered: `order` lists the nodes cell by cell,
/// cells in color order, and a live node's color is the start position of
/// its cell.  A refinement round sorts one cell's slice by the signature
/// (in-profile, out-profile) — the sorted (edge key, neighbor color)
/// pairs — and splits it into runs of equal signatures, which keeps the
/// cells in the order a full re-sort by (color, in, out) would give.
/// Profile comparisons are invariant under order-preserving recoloring,
/// so these start-position colors make the same decisions as dense ranks.
///
/// Each round computes signatures only for the non-singleton cells with a
/// neighbor in a piece that split off in the previous round; for every
/// split cell, one largest piece is left out.  This matches a full round:
/// every cell's members have equal profiles over the partition before the
/// split, and a node's pairs into a split cell's left-out piece are its
/// pairs into the whole cell minus those into the other pieces, so a cell
/// with no neighbor in those other pieces cannot split.  Colors change
/// only after every signature of the round is computed, as in a full
/// round.
///
/// Individualization takes the lowest-id node of the first non-singleton
/// cell and gives it a color above every existing one (n, n + 1, ...), so
/// it leaves the ordered cells for good; a final pass ranks the colors
/// densely.  Each cell's slice is kept in descending node id, so the
/// chosen node is the slice's last entry, and the "first non-singleton
/// cell" pointer only moves forward.  An individualization therefore costs
/// the signatures of the cells next to the chosen node and of what splits
/// after, with no O(n) pass.
std::vector<int> canonical_order(const RefinementGraph& graph,
                                 std::int64_t& refined_nodes) {
  const int n = static_cast<int>(graph.node_key.size());
  const auto at = [](auto& vec, int index) -> auto& {
    return vec[static_cast<std::size_t>(index)];
  };
  std::vector<int> order(static_cast<std::size_t>(n));
  std::vector<int> color(order.size());
  std::vector<int> cell_end(order.size());  ///< indexed by cell start
  std::vector<int> stamp(order.size(), -1);  ///< last round a cell queued

  // Initial cells: runs of equal node keys (label-invariant).
  for (int v = 0; v < n; ++v) at(order, v) = v;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::int64_t ka = at(graph.node_key, a);
    const std::int64_t kb = at(graph.node_key, b);
    return ka != kb ? ka < kb : a > b;
  });
  std::vector<int> queued;  ///< cell starts to refine in the next round
  for (int start = 0; start < n;) {
    int end = start + 1;
    while (end < n && at(graph.node_key, at(order, end)) ==
                          at(graph.node_key, at(order, start))) {
      ++end;
    }
    at(cell_end, start) = end;
    for (int pos = start; pos < end; ++pos) at(color, at(order, pos)) = start;
    if (end - start > 1) queued.push_back(start);
    start = end;
  }

  // Per-round scratch.  A member's signature is the flat range
  // profile[first[i], first[i + 1]) with its in-profile ending at mid[i].
  NeighborList profile;
  std::vector<std::size_t> first, mid;
  std::vector<int> rank;
  std::vector<int> slice;
  std::vector<std::pair<int, int>> recolor;  ///< pieces taking new colors
  std::vector<std::pair<int, int>> touched;  ///< pieces whose nbrs requeue
  int round = 0;

  const auto append_profile = [&](const NeighborList& adjacency) {
    const std::size_t begin = profile.size();
    for (const auto& [key, u] : adjacency) {
      profile.emplace_back(key, at(color, u));
    }
    std::sort(profile.begin() + static_cast<std::ptrdiff_t>(begin),
              profile.end());
  };
  const auto range = [&](std::size_t lo, std::size_t hi) {
    return std::pair{profile.begin() + static_cast<std::ptrdiff_t>(lo),
                     profile.begin() + static_cast<std::ptrdiff_t>(hi)};
  };
  const auto compare = [&](int a, int b) {
    const std::size_t ia = static_cast<std::size_t>(a);
    const std::size_t ib = static_cast<std::size_t>(b);
    const auto [a0, a1] = range(first[ia], mid[ia]);
    const auto [b0, b1] = range(first[ib], mid[ib]);
    const auto in = std::lexicographical_compare_three_way(a0, a1, b0, b1);
    if (in != 0) return in;
    const auto [c0, c1] = range(mid[ia], first[ia + 1]);
    const auto [d0, d1] = range(mid[ib], first[ib + 1]);
    return std::lexicographical_compare_three_way(c0, c1, d0, d1);
  };

  // Re-sorts `start`'s cell by signature and cuts it into pieces of equal
  // signature.  New pieces are queued for recoloring; all but one largest
  // piece are queued for the next round's neighbor scan.
  const auto split_cell = [&](int start) {
    const int end = at(cell_end, start);
    const int size = end - start;
    profile.clear();
    first.clear();
    mid.clear();
    for (int pos = start; pos < end; ++pos) {
      const int v = at(order, pos);
      first.push_back(profile.size());
      append_profile(at(graph.in, v));
      mid.push_back(profile.size());
      append_profile(at(graph.out, v));
    }
    first.push_back(profile.size());
    refined_nodes += size;

    rank.resize(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) at(rank, i) = i;
    std::sort(rank.begin(), rank.end(), [&](int a, int b) {
      const auto cmp = compare(a, b);
      // Ties keep descending node id within the slice.
      return cmp != 0 ? cmp < 0 : at(order, start + a) > at(order, start + b);
    });
    slice.assign(order.begin() + start, order.begin() + end);
    for (int i = 0; i < size; ++i) {
      at(order, start + i) = at(slice, at(rank, i));
    }

    int largest = start;
    int piece = start;
    for (int i = 1; i <= size; ++i) {
      if (i < size && compare(at(rank, i - 1), at(rank, i)) == 0) continue;
      const int piece_end = start + i;
      at(cell_end, piece) = piece_end;
      if (piece != start) recolor.emplace_back(piece, piece_end);
      if (piece_end - piece > at(cell_end, largest) - largest) largest = piece;
      piece = piece_end;
    }
    if (at(cell_end, start) == end) return;  // no split
    for (int p = start; p < end; p = at(cell_end, p)) {
      if (p != largest) touched.emplace_back(p, at(cell_end, p));
    }
  };

  // Queues every non-singleton cell with a neighbor in a touched piece.
  const auto queue_neighbors = [&]() {
    ++round;
    const auto queue_cell_of = [&](int u) {
      const int c = at(color, u);
      if (c >= n || at(cell_end, c) - c < 2 || at(stamp, c) == round) return;
      at(stamp, c) = round;
      queued.push_back(c);
    };
    for (const auto& [start, end] : touched) {
      for (int pos = start; pos < end; ++pos) {
        const int v = at(order, pos);
        for (const auto& edge : at(graph.in, v)) queue_cell_of(edge.second);
        for (const auto& edge : at(graph.out, v)) queue_cell_of(edge.second);
      }
    }
    touched.clear();
  };

  // Runs rounds until no queued cell splits.
  const auto refine = [&]() {
    while (!queued.empty()) {
      for (const int start : queued) split_cell(start);
      queued.clear();
      for (const auto& [start, end] : recolor) {
        for (int pos = start; pos < end; ++pos) {
          at(color, at(order, pos)) = start;
        }
      }
      recolor.clear();
      queue_neighbors();
    }
  };

  refine();
  // Individualize until discrete: split the first non-singleton cell.
  // Which member is chosen is label-dependent, but for automorphic tie
  // classes (every class the sweep's generator families produce) all
  // choices yield the same canonical form — and a non-automorphic tie can
  // only cost a cache hit, never correctness, because the cache compares
  // full keys exactly.
  std::vector<int> individualized;
  for (int target = 0;;) {
    while (target < n && at(cell_end, target) - target < 2) {
      target = at(cell_end, target);
    }
    if (target == n) break;
    const int last = at(cell_end, target) - 1;
    const int v = at(order, last);  // the cell's lowest id
    at(color, v) = n + static_cast<int>(individualized.size());
    individualized.push_back(v);
    at(cell_end, target) = last;
    at(cell_end, last) = last + 1;
    touched.emplace_back(last, last + 1);
    queue_neighbors();
    refine();
  }

  // Dense rank: the ordered cells (now singletons), then the
  // individualized nodes in the order they were chosen.
  std::vector<int> canonical;
  canonical.reserve(static_cast<std::size_t>(n));
  for (const int v : order) {
    if (at(color, v) < n) canonical.push_back(v);
  }
  canonical.insert(canonical.end(), individualized.begin(),
                   individualized.end());
  return canonical;
}

void append_int(std::string& out, std::int64_t value) {
  out += std::to_string(value);
}

}  // namespace

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

CanonicalInstance canonicalize_instance(const TaskGraph& graph,
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
    const std::vector<int> order =
        canonical_order(rg, instance.refined_nodes);
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
    const std::vector<int> order =
        canonical_order(rg, instance.refined_nodes);
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

  instance.hash = fnv1a(key);
  return instance;
}

std::string instance_cache_key(const CanonicalInstance& instance,
                               const std::string& canonical_policy,
                               bool include_seed, std::uint64_t seed) {
  std::string key = instance.key;
  key += "|policy=";
  key += canonical_policy;
  if (include_seed) {
    key += "|seed=";
    key += std::to_string(seed);
  }
  return key;
}

}  // namespace dagsched::service
