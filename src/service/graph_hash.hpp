#pragma once

// Canonical instance hashing for the plan cache.
//
// Two schedule requests that differ only by task / processor labels (and
// edge or link insertion order) describe the same scheduling problem, so
// the service keys its plan cache on a *canonical form* of the instance:
// a relabeling-invariant serialization of the task graph (structure +
// durations + edge weights), the topology (links + channel sharing) and
// the comm model.  The canonicalization is an individualization-refinement
// labeling (iterated 1-WL color refinement with deterministic
// tie-breaking), which makes key equality *imply* isomorphism — the key
// is a full serialization of a relabeled instance, so a cache hit can
// never serve a plan for a structurally different problem.  The converse
// holds for automorphic refinement ties (every generator family in the
// sweep); a non-automorphic WL tie can at worst miss a hit, never corrupt
// one.
//
// Cost: the refinement keeps an ordered partition and, after the first
// full round, recomputes signatures only for cells next to a piece that
// just split off (all pieces of a split cell but one largest).  An
// individualization moves one node out of its cell and re-examines only
// the cells around it, so symmetric graphs — fork-join stages of hundreds
// of interchangeable tasks — cost roughly linear work rather than a full
// O(n log n) re-refinement per individualized node.  `refined_nodes`
// counts the signatures computed.
//
// The exposed 64-bit FNV-1a hash is for display and bucketing only; the
// cache compares full key strings exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/taskgraph.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"

namespace dagsched::service {

/// Canonical form of one (graph, topology, comm) instance plus the label
/// permutations needed to translate plans between the request's labels
/// and the canonical ones.
struct CanonicalInstance {
  /// canonical task index -> request TaskId (and its inverse).
  std::vector<TaskId> task_of_canonical;
  std::vector<int> canonical_of_task;
  /// canonical processor index -> request ProcId (and its inverse).
  std::vector<ProcId> proc_of_canonical;
  std::vector<int> canonical_of_proc;
  /// Exact canonical serialization of graph + topology + comm.
  std::string key;
  /// FNV-1a of `key` (display / bucketing; never trusted for equality).
  std::uint64_t hash = 0;
  /// Node signatures the task and processor refinements computed — a
  /// deterministic measure of canonicalization work (see the file comment).
  std::int64_t refined_nodes = 0;
};

/// Canonicalizes one instance.  Deterministic; label-invariant for
/// automorphic refinement ties (see file comment).
CanonicalInstance canonicalize_instance(const TaskGraph& graph,
                                        const Topology& topology,
                                        const CommModel& comm);

/// Appends the policy configuration (canonical effective call string) and
/// — for non-deterministic policies — the seed to an instance key,
/// producing the full plan-cache key.
std::string instance_cache_key(const CanonicalInstance& instance,
                               const std::string& canonical_policy,
                               bool include_seed, std::uint64_t seed);

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& text);

}  // namespace dagsched::service
