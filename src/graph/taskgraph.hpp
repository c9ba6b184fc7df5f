#pragma once

// Directed taskgraph TG = {T, R, W, <*} (paper §2).
//
// Nodes are tasks t_i with an estimated CPU load r_i (a duration); edges are
// precedence constraints t_i <* t_j labelled with a communication weight
// w_ij, the time needed to carry the message produced by t_i for t_j over
// one link (w = L / BW for a message of L bits on a BW bits/s link).
//
// The structure is append-only: tasks and edges can be added and their
// attributes (duration, weight, name) can be changed, but nothing can be
// removed.  All consumers (analysis, simulator, schedulers) treat a
// TaskGraph as immutable once the run starts.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace dagsched {

/// Index of a task within its TaskGraph.
using TaskId = std::int32_t;

/// Sentinel meaning "no task".
inline constexpr TaskId kInvalidTask = -1;

/// One directed edge t_from <* t_to carrying a message of duration `weight`.
struct Edge {
  TaskId from = kInvalidTask;
  TaskId to = kInvalidTask;
  Time weight = 0;
};

/// Adjacency view: the task on the other side of an edge plus the weight.
struct EdgeRef {
  TaskId task = kInvalidTask;
  Time weight = 0;
};

class TaskGraph {
 public:
  TaskGraph() = default;
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Adds a task with the given display name and CPU load r_i >= 0.
  /// Returns its TaskId (ids are dense, starting at 0, in insertion order).
  TaskId add_task(std::string name, Time duration);

  /// Adds the precedence edge from <* to with message weight >= 0.
  /// Self-loops and duplicate edges are rejected.
  void add_edge(TaskId from, TaskId to, Time weight);

  /// Sizes the task and edge storage for a graph about to be filled, so
  /// the add_task/add_edge calls that follow do not regrow it.
  void reserve(std::size_t tasks, std::size_t edges);

  // -- attribute updates (used by the workload tuners) ---------------------
  void set_duration(TaskId task, Time duration);
  void set_edge_weight(TaskId from, TaskId to, Time weight);
  void set_name(std::string name) { name_ = std::move(name); }

  // -- queries -------------------------------------------------------------
  int num_tasks() const { return static_cast<int>(durations_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::string& name() const { return name_; }

  bool is_valid_task(TaskId task) const {
    return task >= 0 && task < num_tasks();
  }

  Time duration(TaskId task) const;
  const std::string& task_name(TaskId task) const;

  /// In-edges of `task` as (predecessor, weight) pairs, insertion order.
  std::span<const EdgeRef> predecessors(TaskId task) const;

  /// Out-edges of `task` as (successor, weight) pairs, insertion order.
  std::span<const EdgeRef> successors(TaskId task) const;

  int in_degree(TaskId task) const;
  int out_degree(TaskId task) const;

  /// All edges in insertion order.
  const std::vector<Edge>& edges() const { return edges_; }

  bool has_edge(TaskId from, TaskId to) const;
  Time edge_weight(TaskId from, TaskId to) const;

  /// Sum of all task durations (the paper's sequential time T_1).
  Time total_work() const;

  /// Sum of all edge weights.
  Time total_comm() const;

  /// Tasks without predecessors / successors, ascending id.
  std::vector<TaskId> roots() const;
  std::vector<TaskId> leaves() const;

  /// True when the edge relation is acyclic (it must be; add_edge cannot
  /// check this incrementally at O(1), so validation is explicit).
  bool is_acyclic() const;

  /// Throws std::invalid_argument when the graph is empty or cyclic.
  void validate() const;

 private:
  std::uint64_t edge_key(TaskId from, TaskId to) const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  std::string name_;
  std::vector<Time> durations_;
  std::vector<std::string> task_names_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeRef>> preds_;
  std::vector<std::vector<EdgeRef>> succs_;
  std::unordered_map<std::uint64_t, std::size_t> edge_index_;
};

}  // namespace dagsched
