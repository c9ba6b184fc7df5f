#pragma once

// Shared pieces of the benchmark harness: the workload options, an
// in-memory span tracer, the raw-result report that run.py turns into
// metrics, and the seeded input generators.
//
// The harness measures dagsched from the outside: every span wraps one
// call into a public library function (or a round trip to the schedd
// process), and nothing inside the library is instrumented.

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/taskgraph.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;      ///< raw-result JSON path
  std::string schedd;   ///< schedd executable (schedd_stream)
  std::string spec;     ///< sweep spec path (sweep_anneal)
  int threads = 4;      ///< worker threads the workload may use
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// One traced interval.  `parent` indexes the same tracer's span list
/// (-1 for a root); `tag` groups the spans of one request or job.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::string tag;
};

/// Spans kept in memory and written out with the report.  Not
/// thread-safe: each thread records into its own tracer, and the owner
/// merges them with append() once the threads are joined.
class Tracer {
 public:
  int open(std::string name, std::string tag, int parent);
  void close(int index);
  void rename(int index, std::string name);
  /// Records an interval measured elsewhere.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::string tag);
  void append(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer (tracing off) makes it a no-op that reads no
/// clock.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, std::string tag = "",
            int parent = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return index_; }
  void rename(std::string name);

 private:
  Tracer* tracer_;
  int index_ = -1;
};

/// Everything one workload run measured, before any arithmetic: run.py
/// (perfbench/metrics.py) computes every reported metric from these raw
/// samples, counters and spans.
struct Report {
  std::string workload;
  std::vector<double> setup_s;         ///< one per set-up repetition
  std::vector<double> latency_ms;      ///< per request / job / sweep
  std::vector<double> jobs_per_s;      ///< one per measured pass
  std::vector<double> makespan_ratio;  ///< per completed job, vs HLF
  std::int64_t attempted = 0;
  std::int64_t peak_rss_kb = 0;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::vector<std::string> notes;  ///< informational, printed by run.py
  Tracer tracer;
  bool traced = false;

  /// Marks job `key` failed (counted once however many checks it fails).
  void fail(const std::string& key, const std::string& why);
  std::int64_t failed() const {
    return static_cast<std::int64_t>(failed_keys_.size());
  }

  void counter(const std::string& name, double value);
  std::vector<double>& sample(const std::string& name);

  /// The raw-result document written to Options::out.
  std::string to_json() const;

 private:
  std::set<std::string> failed_keys_;
  std::vector<std::string> failures_;  ///< first few reasons
};

/// Peak resident set of this process, in KiB.
std::int64_t self_peak_rss_kb();

/// Threads of this process right now (/proc/self/task).
int thread_count();

/// gnp-style DAG: every pair i < j is an edge with probability
/// `edges_per_task * 2 / (n - 1)` (so ~edges_per_task edges per task),
/// drawn with geometric skips in O(n + edges).  Durations 5-50 us, edge
/// weights 0-16 us.  Task order is a topological order.
dagsched::TaskGraph gnp_style_dag(int num_tasks, double edges_per_task,
                                  std::uint64_t seed);

/// The same graph under a random relabeling of its tasks (and a shuffled
/// edge insertion order) — an isomorphic instance.
dagsched::TaskGraph relabel(const dagsched::TaskGraph& graph,
                            dagsched::Rng& rng);

/// Empty when `placement` maps each of `num_tasks` tasks to a processor
/// of `topology`; otherwise the reason it does not.
std::string check_placement(const std::vector<dagsched::ProcId>& placement,
                            int num_tasks, const dagsched::Topology& topology);

/// Entry points of the three workloads.
int run_schedd_stream(const Options& options, Report& report);
int run_sweep_anneal(const Options& options, Report& report);
int run_ladder_large(const Options& options, Report& report);

}  // namespace perfbench
