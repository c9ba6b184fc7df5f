#include "common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <numeric>

#include "util/json.hpp"
#include "util/time.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(std::string name, std::string tag, int parent) {
  return add(std::move(name), now_ns(), 0, parent, std::move(tag));
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void Tracer::rename(int index, std::string name) {
  spans_[static_cast<std::size_t>(index)].name = std::move(name);
}

int Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::string tag) {
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, std::move(tag)});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::append(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

SpanScope::SpanScope(Tracer* tracer, std::string name, std::string tag,
                     int parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    index_ = tracer_->open(std::move(name), std::move(tag), parent);
  }
}

SpanScope::~SpanScope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void SpanScope::rename(std::string name) {
  if (tracer_ != nullptr) tracer_->rename(index_, std::move(name));
}

void Report::fail(const std::string& key, const std::string& why) {
  failed_keys_.insert(key);
  if (failures_.size() < 20) failures_.push_back(key + ": " + why);
}

void Report::counter(const std::string& name, double value) {
  for (auto& [existing, stored] : counters) {
    if (existing == name) {
      stored = value;
      return;
    }
  }
  counters.emplace_back(name, value);
}

std::vector<double>& Report::sample(const std::string& name) {
  for (auto& [existing, values] : samples) {
    if (existing == name) return values;
  }
  samples.emplace_back(name, std::vector<double>{});
  return samples.back().second;
}

namespace {

void write_list(dagsched::JsonWriter& writer, const std::string& key,
                const std::vector<double>& values) {
  writer.key(key);
  writer.begin_array();
  for (const double value : values) writer.value(value);
  writer.end_array();
}

}  // namespace

std::string Report::to_json() const {
  // Nine decimals keep nanosecond resolution on millisecond samples.
  dagsched::JsonWriter writer(9, dagsched::JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("workload");
  writer.value(workload);
  write_list(writer, "setup_s", setup_s);
  write_list(writer, "latency_ms", latency_ms);
  write_list(writer, "jobs_per_s", jobs_per_s);
  write_list(writer, "makespan_ratio", makespan_ratio);
  writer.key("attempted");
  writer.value(attempted);
  writer.key("failed");
  writer.value(failed());
  writer.key("failures");
  writer.begin_array();
  for (const std::string& failure : failures_) writer.value(failure);
  writer.end_array();
  writer.key("peak_rss_kb");
  writer.value(peak_rss_kb);
  writer.key("counters");
  writer.begin_object();
  for (const auto& [name, value] : counters) {
    writer.key(name);
    writer.value(value);
  }
  writer.end_object();
  writer.key("samples");
  writer.begin_object();
  for (const auto& [name, values] : samples) write_list(writer, name, values);
  writer.end_object();
  writer.key("notes");
  writer.begin_array();
  for (const std::string& note : notes) writer.value(note);
  writer.end_array();
  writer.key("traced");
  writer.value(traced);
  // Spans as [name, start_ms, end_ms, parent, tag], times relative to the
  // earliest span.
  std::int64_t origin = 0;
  for (const Span& span : tracer.spans()) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  writer.key("spans");
  writer.begin_array();
  for (const Span& span : tracer.spans()) {
    writer.begin_array();
    writer.value(span.name);
    writer.value(ms_between(origin, span.start_ns));
    writer.value(ms_between(origin, span.end_ns));
    writer.value(span.parent);
    writer.value(span.tag);
    writer.end_array();
  }
  writer.end_array();
  writer.end_object();
  return writer.str();
}

std::int64_t self_peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int thread_count() {
  int count = 0;
  std::error_code error;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", error);
       !error && it != std::filesystem::directory_iterator();
       it.increment(error)) {
    ++count;
  }
  return count;
}

dagsched::TaskGraph gnp_style_dag(int num_tasks, double edges_per_task,
                                  std::uint64_t seed) {
  using dagsched::us;
  dagsched::Rng rng(seed);
  dagsched::TaskGraph graph("gnp" + std::to_string(num_tasks));
  for (int i = 0; i < num_tasks; ++i) {
    graph.add_task("t" + std::to_string(i),
                   static_cast<dagsched::Time>(rng.uniform_int(
                       us(std::int64_t{5}), us(std::int64_t{50}))));
  }
  if (num_tasks < 2) return graph;
  const double p = std::min(1.0, 2.0 * edges_per_task / (num_tasks - 1));
  const double log_q = std::log1p(-p);
  for (dagsched::TaskId i = 0; i + 1 < num_tasks; ++i) {
    // Geometric skip to the next success among j = i+1 .. n-1.
    double j = static_cast<double>(i);
    while (true) {
      const double u = 1.0 - rng.uniform01();  // (0, 1]
      j += 1.0 + std::floor(std::log(u) / log_q);
      if (j >= num_tasks) break;
      graph.add_edge(i, static_cast<dagsched::TaskId>(j),
                     static_cast<dagsched::Time>(
                         rng.uniform_int(0, us(std::int64_t{16}))));
    }
  }
  return graph;
}

dagsched::TaskGraph relabel(const dagsched::TaskGraph& graph,
                            dagsched::Rng& rng) {
  const int n = graph.num_tasks();
  std::vector<dagsched::TaskId> old_of_new(static_cast<std::size_t>(n));
  std::iota(old_of_new.begin(), old_of_new.end(), 0);
  rng.shuffle(old_of_new);
  std::vector<dagsched::TaskId> new_of_old(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    new_of_old[static_cast<std::size_t>(old_of_new[static_cast<std::size_t>(k)])] = k;
  }
  dagsched::TaskGraph out(graph.name() + "~");
  for (int k = 0; k < n; ++k) {
    const dagsched::TaskId old = old_of_new[static_cast<std::size_t>(k)];
    out.add_task(graph.task_name(old), graph.duration(old));
  }
  std::vector<dagsched::Edge> edges = graph.edges();
  rng.shuffle(edges);
  for (const dagsched::Edge& edge : edges) {
    out.add_edge(new_of_old[static_cast<std::size_t>(edge.from)],
                 new_of_old[static_cast<std::size_t>(edge.to)], edge.weight);
  }
  return out;
}

std::string check_placement(const std::vector<dagsched::ProcId>& placement,
                            int num_tasks, const dagsched::Topology& topology) {
  if (placement.size() != static_cast<std::size_t>(num_tasks)) {
    return "placement covers " + std::to_string(placement.size()) + " of " +
           std::to_string(num_tasks) + " tasks";
  }
  for (std::size_t t = 0; t < placement.size(); ++t) {
    if (placement[t] < 0 || placement[t] >= topology.num_procs()) {
      return "task " + std::to_string(t) + " on processor " +
             std::to_string(placement[t]) + " of " +
             std::to_string(topology.num_procs());
    }
  }
  return "";
}

}  // namespace perfbench
