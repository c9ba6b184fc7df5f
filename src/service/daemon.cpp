#include "service/daemon.hpp"

#include <condition_variable>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "util/time.hpp"

namespace dagsched::service {

AdmissionDecision admit_request(double time_budget_ms,
                                std::size_t queue_depth,
                                double queued_cost_ms,
                                const ScheddOptions& options) {
  AdmissionDecision decision;
  if (queue_depth >= static_cast<std::size_t>(options.max_queue)) {
    decision.admitted = false;
    decision.reason = "queue_full: " + std::to_string(queue_depth) +
                      " requests waiting (max_queue " +
                      std::to_string(options.max_queue) + ")";
    return decision;
  }
  if (time_budget_ms > 0) {
    const int workers = options.max_in_flight > 0 ? options.max_in_flight : 1;
    const double estimated_wait_ms = queued_cost_ms / workers;
    if (estimated_wait_ms > time_budget_ms) {
      decision.admitted = false;
      decision.reason = "deadline_unmeetable: ~" +
                        format_fixed(estimated_wait_ms, 1) +
                        " ms of queued work ahead, budget " +
                        format_fixed(time_budget_ms, 1) + " ms";
    }
  }
  return decision;
}

namespace {

/// Everything known about one input line once its fate is decided,
/// parked until every earlier line has been emitted.
struct Outcome {
  enum class Kind { Response, Stats };
  Kind kind = Kind::Response;
  std::string id;             ///< Stats: echoed into the built response
  std::string response_line;  ///< Response: ready-to-emit JSON
  std::vector<std::string> trace_lines;
  // Counter deltas applied at emission (so the stats op sees exactly the
  // requests emitted before it).
  bool completed = false;
  bool shed = false;
  bool error = false;
  bool cache_hit = false;
  bool cache_miss = false;
};

std::string arrival_line(std::uint64_t seq, const std::string& id,
                         const std::string& op, int tasks, int priority) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("event");
  writer.value("arrival");
  writer.key("seq");
  writer.value(static_cast<std::int64_t>(seq));
  writer.key("id");
  writer.value(id);
  writer.key("op");
  writer.value(op);
  if (op == "schedule") {
    writer.key("tasks");
    writer.value(tasks);
    writer.key("priority");
    writer.value(priority);
  }
  writer.end_object();
  return writer.str();
}

std::string start_line(std::uint64_t seq, const std::string& id,
                       const std::string& policy, std::uint64_t seed) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("event");
  writer.value("start");
  writer.key("seq");
  writer.value(static_cast<std::int64_t>(seq));
  writer.key("id");
  writer.value(id);
  writer.key("policy");
  writer.value(policy);
  writer.key("seed");
  writer.value(seed);
  writer.end_object();
  return writer.str();
}

/// The finish event mirrors the response minus its one nondeterministic
/// field (elapsed_ms), which is what makes the trace byte-comparable.
std::string finish_line(std::uint64_t seq, const ScheduleResponse& response) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("event");
  writer.value("finish");
  writer.key("seq");
  writer.value(static_cast<std::int64_t>(seq));
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
  writer.end_object();
  return writer.str();
}

std::string list_policies_response(const std::string& id) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("id");
  writer.value(id);
  writer.key("status");
  writer.value("ok");
  writer.key("op");
  writer.value("list_policies");
  writer.key("policies");
  writer.begin_array();
  const auto& registry = sched::PolicyRegistry::instance();
  for (const std::string& name : registry.names()) {
    const sched::PolicyDescriptor& descriptor = registry.descriptor(name);
    writer.begin_object();
    writer.key("name");
    writer.value(descriptor.name);
    writer.key("capabilities");
    writer.value(sched::capability_string(descriptor.caps));
    writer.key("keys");
    writer.value(sched::config_keys_string(descriptor));
    writer.key("doc");
    writer.value(descriptor.doc);
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
  return writer.str();
}

std::string stats_response(const std::string& id, const ScheddStats& stats) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("id");
  writer.value(id);
  writer.key("status");
  writer.value("ok");
  writer.key("op");
  writer.value("stats");
  writer.key("received");
  writer.value(stats.received);
  writer.key("completed");
  writer.value(stats.completed);
  writer.key("shed");
  writer.value(stats.shed);
  writer.key("errors");
  writer.value(stats.errors);
  writer.key("cache_hits");
  writer.value(stats.cache_hits);
  writer.key("cache_misses");
  writer.value(stats.cache_misses);
  writer.end_object();
  return writer.str();
}

std::string drain_line(const ScheddStats& stats) {
  JsonWriter writer(3, JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("event");
  writer.value("drain");
  writer.key("received");
  writer.value(stats.received);
  writer.key("completed");
  writer.value(stats.completed);
  writer.key("shed");
  writer.value(stats.shed);
  writer.key("errors");
  writer.value(stats.errors);
  writer.key("cache_hits");
  writer.value(stats.cache_hits);
  writer.key("cache_misses");
  writer.value(stats.cache_misses);
  writer.end_object();
  return writer.str();
}

struct QueuedRequest {
  std::uint64_t seq = 0;
  ScheduleRequest request;
  double cost_ms = 0.0;
  std::string arrival;
};

}  // namespace

Schedd::Schedd(ScheddOptions options)
    : options_(options), service_(options.cache_capacity) {}

int Schedd::run(std::istream& in, std::ostream& out, std::ostream* trace) {
  stats_ = ScheddStats{};

  // Only the emit path, under emit_mutex, touches `out`.  A stream tied
  // to `in` (std::cin is tied to std::cout) would be flushed by every
  // read on the reader thread, racing the workers' emits, so the tie is
  // cut for the run and restored on the way out.
  struct TieGuard {
    std::istream& in;
    std::ostream* saved;
    ~TieGuard() { in.tie(saved); }
  } const untie{in, in.tie(nullptr)};

  // --- ordered emission state (guarded by emit_mutex) ---
  std::mutex emit_mutex;
  std::map<std::uint64_t, Outcome> parked;
  std::uint64_t next_emit = 1;

  const auto emit_ready = [&]() {
    // Caller holds emit_mutex.  Emits every consecutive ready outcome.
    auto it = parked.find(next_emit);
    for (; it != parked.end(); it = parked.find(next_emit)) {
      Outcome& outcome = it->second;
      if (outcome.kind == Outcome::Kind::Stats) {
        // The snapshot covers every line emitted strictly before this
        // one — the stats op itself is not yet counted.
        ScheddStats snapshot = stats_;
        snapshot.received = static_cast<std::int64_t>(next_emit) - 1;
        outcome.response_line = stats_response(outcome.id, snapshot);
      }
      if (outcome.completed) ++stats_.completed;
      if (outcome.shed) ++stats_.shed;
      if (outcome.error) ++stats_.errors;
      if (outcome.cache_hit) ++stats_.cache_hits;
      if (outcome.cache_miss) ++stats_.cache_misses;
      out << outcome.response_line << '\n';
      if (trace != nullptr) {
        for (const std::string& line : outcome.trace_lines) {
          *trace << line << '\n';
        }
      }
      parked.erase(it);
      ++next_emit;
    }
    out.flush();
    if (trace != nullptr) trace->flush();
  };

  const auto complete = [&](std::uint64_t seq, Outcome outcome) {
    std::lock_guard<std::mutex> lock(emit_mutex);
    parked.emplace(seq, std::move(outcome));
    emit_ready();
  };

  // --- worker pool (guarded by queue_mutex) ---
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  // Keyed (-priority, seq): workers pop the highest-priority, oldest
  // request first.
  std::map<std::pair<int, std::uint64_t>, QueuedRequest> queue;
  double queued_cost_ms = 0.0;
  bool input_done = false;

  const auto worker_main = [&]() {
    while (true) {
      QueuedRequest item;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock,
                      [&]() { return input_done || !queue.empty(); });
        if (queue.empty()) return;  // input_done && drained
        auto first = queue.begin();
        item = std::move(first->second);
        queue.erase(first);
        queued_cost_ms -= item.cost_ms;
      }
      Outcome outcome;
      outcome.trace_lines.push_back(std::move(item.arrival));
      const ScheduleResponse response = service_.serve(item.request);
      outcome.trace_lines.push_back(start_line(
          item.seq, item.request.id, response.policy, item.request.seed));
      outcome.trace_lines.push_back(finish_line(item.seq, response));
      outcome.completed = response.status == ResponseStatus::Ok;
      outcome.error = response.status == ResponseStatus::Error;
      outcome.cache_hit = response.cache == CacheStatus::Hit;
      outcome.cache_miss = response.cache == CacheStatus::Miss;
      outcome.response_line = to_json(response);
      complete(item.seq, std::move(outcome));
    }
  };

  std::vector<std::thread> workers;
  const int num_workers = options_.max_in_flight > 0 ? options_.max_in_flight : 1;
  workers.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) workers.emplace_back(worker_main);

  // --- reader loop ---
  std::uint64_t seq = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (trim(line).empty()) continue;
    ++seq;

    std::string id;
    std::string op = "schedule";
    Outcome immediate;
    try {
      const JsonValue doc = parse_json(line);
      if (const JsonValue* given = doc.find("id")) id = given->as_string();
      if (const JsonValue* given = doc.find("op")) op = given->as_string();

      if (op == "list_policies") {
        immediate.trace_lines.push_back(arrival_line(seq, id, op, 0, 0));
        immediate.response_line = list_policies_response(id);
        immediate.completed = true;
        complete(seq, std::move(immediate));
        continue;
      }
      if (op == "stats") {
        immediate.trace_lines.push_back(arrival_line(seq, id, op, 0, 0));
        immediate.kind = Outcome::Kind::Stats;
        immediate.id = id;
        immediate.completed = true;
        complete(seq, std::move(immediate));
        continue;
      }
      if (op != "schedule") {
        throw std::invalid_argument("request: unknown op '" + op + "'");
      }

      QueuedRequest item;
      item.seq = seq;
      item.request = request_from_json(doc);
      item.cost_ms = item.request.time_budget_ms > 0
                         ? item.request.time_budget_ms
                         : options_.default_cost_ms;
      item.arrival = arrival_line(seq, item.request.id, op,
                                  item.request.graph.num_tasks(),
                                  item.request.priority);
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        const AdmissionDecision decision =
            admit_request(item.request.time_budget_ms, queue.size(),
                          queued_cost_ms, options_);
        if (decision.admitted) {
          queued_cost_ms += item.cost_ms;
          const std::pair<int, std::uint64_t> key{-item.request.priority,
                                                  seq};
          queue.emplace(key, std::move(item));
        } else {
          ScheduleResponse response;
          response.id = item.request.id;
          response.status = ResponseStatus::Shed;
          response.error = decision.reason;
          immediate.trace_lines.push_back(std::move(item.arrival));
          immediate.trace_lines.push_back(finish_line(seq, response));
          immediate.response_line = to_json(response);
          immediate.shed = true;
        }
      }
      if (immediate.shed) {
        complete(seq, std::move(immediate));
      } else {
        queue_cv.notify_one();
      }
    } catch (const std::exception& parse_error) {
      ScheduleResponse response;
      response.id = id;
      response.status = ResponseStatus::Error;
      response.error = parse_error.what();
      immediate.trace_lines.push_back(arrival_line(seq, id, op, 0, 0));
      immediate.trace_lines.push_back(finish_line(seq, response));
      immediate.response_line = to_json(response);
      immediate.error = true;
      complete(seq, std::move(immediate));
    }
  }

  // --- graceful drain: EOF stops intake, workers finish the queue ---
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    input_done = true;
  }
  queue_cv.notify_all();
  for (std::thread& worker : workers) worker.join();

  {
    std::lock_guard<std::mutex> lock(emit_mutex);
    stats_.received = static_cast<std::int64_t>(seq);
    if (trace != nullptr) {
      *trace << drain_line(stats_) << '\n';
      trace->flush();
    }
  }
  return 0;
}

}  // namespace dagsched::service
