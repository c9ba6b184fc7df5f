#include "service/api.hpp"

#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "util/string_util.hpp"
#include "util/time.hpp"

namespace dagsched::service {

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::Ok: return "ok";
    case ResponseStatus::Shed: return "shed";
    case ResponseStatus::Error: return "error";
  }
  return "?";
}

const char* to_string(CacheStatus status) {
  switch (status) {
    case CacheStatus::Off: return "off";
    case CacheStatus::Miss: return "miss";
    case CacheStatus::Hit: return "hit";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("request: " + what);
}

void check_keys(const JsonValue& object, const char* where,
                std::initializer_list<const char*> known) {
  for (const auto& [key, value] : object.members()) {
    bool ok = false;
    for (const char* name : known) {
      if (key == name) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      std::string names;
      for (const char* name : known) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      fail(std::string(where) + " has no key '" + key + "' (known keys: " +
           names + ")");
    }
  }
}

double nonnegative_number(const JsonValue& value, const char* what) {
  const double number = value.as_double();
  if (number < 0) fail(std::string(what) + " must be >= 0");
  return number;
}

CommModel parse_comm(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::Object) fail("'comm' must be an object");
  check_keys(value, "'comm'", {"enabled", "sigma_us", "tau_us", "send_cpu"});
  CommModel comm = CommModel::paper_default();
  if (const JsonValue* enabled = value.find("enabled")) {
    comm.enabled = enabled->as_bool();
  }
  if (const JsonValue* sigma = value.find("sigma_us")) {
    comm.sigma = us(nonnegative_number(*sigma, "'comm.sigma_us'"));
  }
  if (const JsonValue* tau = value.find("tau_us")) {
    comm.tau = us(nonnegative_number(*tau, "'comm.tau_us'"));
  }
  if (const JsonValue* send_cpu = value.find("send_cpu")) {
    try {
      comm.send_cpu = send_cpu_from_string(send_cpu->as_string());
    } catch (const std::invalid_argument& error) {
      fail(error.what());
    }
  }
  return comm;
}

TaskGraph parse_graph(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::Object)
    fail("'graph' must be an object");
  check_keys(value, "'graph'",
             {"name", "durations_us", "durations_ns", "names", "edges"});
  std::string name = "request";
  if (const JsonValue* given = value.find("name")) name = given->as_string();
  TaskGraph graph(std::move(name));

  const JsonValue* durations_us = value.find("durations_us");
  const JsonValue* durations_ns = value.find("durations_ns");
  if ((durations_us == nullptr) == (durations_ns == nullptr)) {
    fail("'graph' needs exactly one of 'durations_us' or 'durations_ns'");
  }
  const bool in_us = durations_us != nullptr;
  const JsonValue& durations = in_us ? *durations_us : *durations_ns;
  const std::vector<JsonValue>& duration_items = durations.items();
  if (duration_items.empty()) fail("'graph' has no tasks");

  const JsonValue* names = value.find("names");
  if (names != nullptr && names->items().size() != duration_items.size()) {
    fail("'graph.names' length differs from the duration list");
  }
  // Size the graph up front; a malformed 'edges' is reported later, after
  // the tasks, as before.
  const JsonValue* edges = value.find("edges");
  graph.reserve(duration_items.size(),
                edges != nullptr && edges->kind() == JsonValue::Kind::Array
                    ? edges->items().size()
                    : 0);
  for (std::size_t i = 0; i < duration_items.size(); ++i) {
    const Time duration =
        in_us ? us(nonnegative_number(duration_items[i], "task duration"))
              : duration_items[i].as_int64();
    if (duration < 0) fail("task duration must be >= 0");
    std::string task_name = "t";
    if (names != nullptr) {
      task_name = names->items()[i].as_string();
    } else {
      task_name += std::to_string(i);
    }
    graph.add_task(std::move(task_name), duration);
  }

  if (edges != nullptr) {
    for (const JsonValue& edge : edges->items()) {
      const std::vector<JsonValue>& parts = edge.items();
      if (parts.size() != 3) {
        fail("each edge must be [from, to, weight]");
      }
      const std::int64_t from = parts[0].as_int64();
      const std::int64_t to = parts[1].as_int64();
      const std::int64_t num_tasks = graph.num_tasks();
      if (from < 0 || from >= num_tasks || to < 0 || to >= num_tasks) {
        fail("edge endpoint out of range");
      }
      const Time weight =
          in_us ? us(nonnegative_number(parts[2], "edge weight"))
                : parts[2].as_int64();
      if (weight < 0) fail("edge weight must be >= 0");
      graph.add_edge(static_cast<TaskId>(from), static_cast<TaskId>(to),
                     weight);
    }
  }
  return graph;
}

}  // namespace

ScheduleRequest request_from_json(const JsonValue& value) {
  if (value.kind() != JsonValue::Kind::Object) {
    fail("must be a JSON object");
  }
  check_keys(value, "request",
             {"op", "id", "policy", "seed", "time_budget_ms", "priority",
              "topology", "comm", "graph"});
  ScheduleRequest request;
  if (const JsonValue* id = value.find("id")) request.id = id->as_string();
  if (const JsonValue* policy = value.find("policy")) {
    request.policy = policy->as_string();
  }
  if (const JsonValue* seed = value.find("seed")) {
    request.seed = seed->as_uint64();
  }
  if (const JsonValue* budget = value.find("time_budget_ms")) {
    request.time_budget_ms =
        nonnegative_number(*budget, "'time_budget_ms'");
  }
  if (const JsonValue* priority = value.find("priority")) {
    const std::int64_t parsed = priority->as_int64();
    request.priority = static_cast<int>(parsed);
  }
  if (const JsonValue* topology = value.find("topology")) {
    request.topology = topology->as_string();
  }
  if (const JsonValue* comm = value.find("comm")) {
    request.comm = parse_comm(*comm);
  }
  const JsonValue* graph = value.find("graph");
  if (graph == nullptr) fail("missing 'graph'");
  request.graph = parse_graph(*graph);
  return request;
}

ScheduleRequest request_from_json_text(const std::string& text) {
  return request_from_json(parse_json(text));
}

std::string to_json(const ScheduleRequest& request) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  if (!request.id.empty()) {
    writer.key("id");
    writer.value(request.id);
  }
  writer.key("policy");
  writer.value(request.policy);
  writer.key("seed");
  writer.value(request.seed);
  if (request.time_budget_ms > 0) {
    writer.key("time_budget_ms");
    writer.value(request.time_budget_ms);
  }
  if (request.priority != 0) {
    writer.key("priority");
    writer.value(request.priority);
  }
  writer.key("topology");
  writer.value(request.topology);
  writer.key("comm");
  writer.begin_object();
  writer.key("enabled");
  writer.value(request.comm.enabled);
  writer.key("sigma_us");
  writer.value(to_us(request.comm.sigma));
  writer.key("tau_us");
  writer.value(to_us(request.comm.tau));
  writer.key("send_cpu");
  writer.value(to_string(request.comm.send_cpu));
  writer.end_object();
  writer.key("graph");
  writer.begin_object();
  writer.key("name");
  writer.value(request.graph.name());
  writer.key("durations_ns");
  writer.begin_array();
  for (TaskId t = 0; t < request.graph.num_tasks(); ++t) {
    writer.value(request.graph.duration(t));
  }
  writer.end_array();
  writer.key("names");
  writer.begin_array();
  for (TaskId t = 0; t < request.graph.num_tasks(); ++t) {
    writer.value(request.graph.task_name(t));
  }
  writer.end_array();
  writer.key("edges");
  writer.begin_array();
  for (const Edge& edge : request.graph.edges()) {
    writer.begin_array();
    writer.value(edge.from);
    writer.value(edge.to);
    writer.value(edge.weight);
    writer.end_array();
  }
  writer.end_array();
  writer.end_object();
  writer.end_object();
  return writer.str();
}

std::string to_json(const ScheduleResponse& response, bool include_timing) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("id");
  writer.value(response.id);
  writer.key("status");
  writer.value(to_string(response.status));
  if (response.status != ResponseStatus::Ok) {
    writer.key("error");
    writer.value(response.error);
    writer.end_object();
    return writer.str();
  }
  writer.key("policy");
  writer.value(response.policy);
  writer.key("graph_hash");
  {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(response.graph_hash));
    writer.value(buffer);
  }
  writer.key("cache");
  writer.value(to_string(response.cache));
  writer.key("makespan_us");
  writer.value(to_us(response.makespan));
  writer.key("predicted_makespan_us");
  writer.value(to_us(response.predicted_makespan));
  writer.key("timed_out");
  writer.value(response.timed_out);
  writer.key("placement");
  writer.begin_array();
  for (const ProcId proc : response.placement) writer.value(proc);
  writer.end_array();
  if (include_timing) {
    writer.key("elapsed_ms");
    writer.value(response.elapsed_ms);
  }
  writer.end_object();
  return writer.str();
}

}  // namespace dagsched::service
