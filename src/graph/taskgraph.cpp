#include "graph/taskgraph.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace dagsched {

TaskId TaskGraph::add_task(std::string name, Time duration) {
  require(duration >= 0, "TaskGraph::add_task: negative duration");
  const TaskId id = num_tasks();
  durations_.push_back(duration);
  task_names_.push_back(std::move(name));
  preds_.emplace_back();
  succs_.emplace_back();
  return id;
}

void TaskGraph::add_edge(TaskId from, TaskId to, Time weight) {
  require(is_valid_task(from), "TaskGraph::add_edge: bad `from` task");
  require(is_valid_task(to), "TaskGraph::add_edge: bad `to` task");
  require(from != to, "TaskGraph::add_edge: self-loop");
  require(weight >= 0, "TaskGraph::add_edge: negative weight");
  require(!has_edge(from, to), "TaskGraph::add_edge: duplicate edge");
  edge_index_.emplace(edge_key(from, to), edges_.size());
  edges_.push_back(Edge{from, to, weight});
  succs_[static_cast<std::size_t>(from)].push_back(EdgeRef{to, weight});
  preds_[static_cast<std::size_t>(to)].push_back(EdgeRef{from, weight});
}

void TaskGraph::reserve(std::size_t tasks, std::size_t edges) {
  durations_.reserve(tasks);
  task_names_.reserve(tasks);
  preds_.reserve(tasks);
  succs_.reserve(tasks);
  edges_.reserve(edges);
  edge_index_.reserve(edges);
}

void TaskGraph::set_duration(TaskId task, Time duration) {
  require(is_valid_task(task), "TaskGraph::set_duration: bad task");
  require(duration >= 0, "TaskGraph::set_duration: negative duration");
  durations_[static_cast<std::size_t>(task)] = duration;
}

void TaskGraph::set_edge_weight(TaskId from, TaskId to, Time weight) {
  require(weight >= 0, "TaskGraph::set_edge_weight: negative weight");
  auto it = edge_index_.find(edge_key(from, to));
  require(it != edge_index_.end(), "TaskGraph::set_edge_weight: no such edge");
  Edge& edge = edges_[it->second];
  edge.weight = weight;
  for (EdgeRef& ref : succs_[static_cast<std::size_t>(from)]) {
    if (ref.task == to) ref.weight = weight;
  }
  for (EdgeRef& ref : preds_[static_cast<std::size_t>(to)]) {
    if (ref.task == from) ref.weight = weight;
  }
}

Time TaskGraph::duration(TaskId task) const {
  require(is_valid_task(task), "TaskGraph::duration: bad task");
  return durations_[static_cast<std::size_t>(task)];
}

const std::string& TaskGraph::task_name(TaskId task) const {
  require(is_valid_task(task), "TaskGraph::task_name: bad task");
  return task_names_[static_cast<std::size_t>(task)];
}

std::span<const EdgeRef> TaskGraph::predecessors(TaskId task) const {
  require(is_valid_task(task), "TaskGraph::predecessors: bad task");
  return preds_[static_cast<std::size_t>(task)];
}

std::span<const EdgeRef> TaskGraph::successors(TaskId task) const {
  require(is_valid_task(task), "TaskGraph::successors: bad task");
  return succs_[static_cast<std::size_t>(task)];
}

int TaskGraph::in_degree(TaskId task) const {
  return static_cast<int>(predecessors(task).size());
}

int TaskGraph::out_degree(TaskId task) const {
  return static_cast<int>(successors(task).size());
}

bool TaskGraph::has_edge(TaskId from, TaskId to) const {
  if (!is_valid_task(from) || !is_valid_task(to)) return false;
  return edge_index_.contains(edge_key(from, to));
}

Time TaskGraph::edge_weight(TaskId from, TaskId to) const {
  auto it = edge_index_.find(edge_key(from, to));
  require(it != edge_index_.end(), "TaskGraph::edge_weight: no such edge");
  return edges_[it->second].weight;
}

Time TaskGraph::total_work() const {
  Time total = 0;
  for (Time d : durations_) total += d;
  return total;
}

Time TaskGraph::total_comm() const {
  Time total = 0;
  for (const Edge& e : edges_) total += e.weight;
  return total;
}

std::vector<TaskId> TaskGraph::roots() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (preds_[static_cast<std::size_t>(t)].empty()) result.push_back(t);
  }
  return result;
}

std::vector<TaskId> TaskGraph::leaves() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (succs_[static_cast<std::size_t>(t)].empty()) result.push_back(t);
  }
  return result;
}

bool TaskGraph::is_acyclic() const {
  // Kahn's algorithm: the graph is acyclic iff all tasks can be peeled.
  std::vector<int> in_deg(static_cast<std::size_t>(num_tasks()));
  std::vector<TaskId> frontier;
  for (TaskId t = 0; t < num_tasks(); ++t) {
    in_deg[static_cast<std::size_t>(t)] = in_degree(t);
    if (in_deg[static_cast<std::size_t>(t)] == 0) frontier.push_back(t);
  }
  int peeled = 0;
  while (!frontier.empty()) {
    const TaskId t = frontier.back();
    frontier.pop_back();
    ++peeled;
    for (const EdgeRef& succ : succs_[static_cast<std::size_t>(t)]) {
      if (--in_deg[static_cast<std::size_t>(succ.task)] == 0) {
        frontier.push_back(succ.task);
      }
    }
  }
  return peeled == num_tasks();
}

void TaskGraph::validate() const {
  require(num_tasks() > 0, "TaskGraph::validate: empty graph");
  require(is_acyclic(), "TaskGraph::validate: precedence relation has a cycle");
}

}  // namespace dagsched
