// schedd_stream: the daemon path users hit.  Spawns the shipped schedd
// executable (--max-in-flight 2, default queue 16 and plan cache 256) and
// talks to it over stdin/stdout with a seeded, mixed request stream:
// gnp-style DAGs of 32-512 tasks on hypercube:3 with ~4 edges per task,
// policies hlf, heft, peft, etf, dagprio and hlf-mincomm, plus sa on
// graphs of at most 128 tasks.  About 25% of requests repeat an earlier
// request exactly and about 15% relabel an earlier instance; both draw
// from the last 400 distinct instances, a working set larger than the
// cache.
//
// Each phase runs against a fresh daemon, after untimed warm-up requests,
// from a single client thread:
//  * open loop: Poisson arrivals at a fixed rate over a prefix of the
//    stream; each request is timed from its due time until its response
//    line is read;
//  * capacity, twice: the whole stream with at most 16 requests
//    outstanding, so nothing is shed.
// Every response is checked, and the phases are compared per request id
// (see the agreement comment in run_schedd_stream).  The traced run adds
// a traced capacity pass and replays the stream in process through
// parse_json/request_from_json, ScheduleService::serve and to_json, with
// canonicalize_instance and the sa policy probed on the side.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/sa_scheduler.hpp"
#include "sched/registry.hpp"
#include "service/api.hpp"
#include "service/graph_hash.hpp"
#include "service/service.hpp"
#include "topology/builders.hpp"
#include "util/json.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace service = dagsched::service;

constexpr double kArrivalsPerSecond = 120.0;
constexpr double kCapacityRequestsPerSecond = 150.0;  ///< stream length
constexpr double kMaxLateP99Ms = 10.0;  ///< generator health limit
constexpr int kWindow = 16;            ///< capacity phase: outstanding cap
constexpr int kRecentInstances = 400;  ///< repeat / relabel working set
constexpr double kPhaseDeadlineS = 40.0;  ///< a phase normally takes < 10 s
constexpr int kWarmup = 32;  ///< untimed requests before each phase
constexpr int kCapacityPasses = 2;

// ------------------------------------------------------------- the stream

/// One distinct instance: a fresh graph with its policy and seed.
struct Instance {
  dagsched::TaskGraph graph;
  std::string policy;
  std::uint64_t seed = 1;
};

struct StreamRequest {
  std::string id;
  std::string line;
  int instance = 0;
  bool relabeled = false;
  int tasks = 0;
};

struct Stream {
  std::vector<Instance> instances;
  std::vector<StreamRequest> requests;
  std::vector<double> due_s;        ///< open-loop send offsets
  std::vector<std::string> warmup;  ///< untimed lines sent first
  std::size_t open_count = 0;       ///< the open loop sends this prefix
};

Instance fresh_instance(dagsched::Rng& rng) {
  static const char* const kPolicies[] = {"hlf",     "heft",
                                          "peft",    "etf",
                                          "dagprio", "hlf-mincomm",
                                          "sa"};
  const int tasks =
      static_cast<int>(std::lround(std::exp2(rng.uniform_real(5.0, 9.0))));
  Instance instance;
  instance.graph = gnp_style_dag(tasks, 4.0, rng.next_u64());
  instance.policy = kPolicies[rng.uniform_index(tasks <= 128 ? 7 : 6)];
  instance.seed = 1 + rng.uniform_index(1000);
  return instance;
}

Stream make_stream(std::uint64_t seed, int count, int open_count) {
  dagsched::Rng rng = dagsched::Rng::stream(seed, 1);
  Stream stream;
  std::vector<int> original(0);  ///< request index of each instance's first
  for (int i = 0; i < count; ++i) {
    const double kind = rng.uniform01();
    const int recent_lo = std::max(
        0, static_cast<int>(stream.instances.size()) - kRecentInstances);
    const auto pick_recent = [&]() {
      return recent_lo + static_cast<int>(rng.uniform_index(
                             stream.instances.size() -
                             static_cast<std::size_t>(recent_lo)));
    };
    StreamRequest request;
    request.id = "r" + std::to_string(i);
    service::ScheduleRequest wire;
    if (!stream.instances.empty() && kind < 0.25) {
      // Exact repeat of an instance's first request (new id only).
      const int source = original[static_cast<std::size_t>(pick_recent())];
      request = stream.requests[static_cast<std::size_t>(source)];
      request.id = "r" + std::to_string(i);
      const std::string old_id =
          "\"id\":\"" + stream.requests[static_cast<std::size_t>(source)].id +
          "\"";
      request.line.replace(request.line.find(old_id), old_id.size(),
                           "\"id\":\"" + request.id + "\"");
      stream.requests.push_back(std::move(request));
      continue;
    }
    if (!stream.instances.empty() && kind < 0.40) {
      const int source = pick_recent();
      const Instance& instance =
          stream.instances[static_cast<std::size_t>(source)];
      wire.graph = relabel(instance.graph, rng);
      wire.policy = instance.policy;
      wire.seed = instance.seed;
      request.instance = source;
      request.relabeled = true;
    } else {
      Instance instance = fresh_instance(rng);
      wire.graph = instance.graph;
      wire.policy = instance.policy;
      wire.seed = instance.seed;
      request.instance = static_cast<int>(stream.instances.size());
      original.push_back(i);
      stream.instances.push_back(std::move(instance));
    }
    wire.id = request.id;
    request.tasks = wire.graph.num_tasks();
    request.line = service::to_json(wire);
    stream.requests.push_back(std::move(request));
  }
  stream.open_count = static_cast<std::size_t>(std::min(count, open_count));
  dagsched::Rng arrivals = dagsched::Rng::stream(seed, 2);
  double t = 0.0;
  for (std::size_t i = 0; i < stream.open_count; ++i) {
    t += -std::log(1.0 - arrivals.uniform01()) / kArrivalsPerSecond;
    stream.due_s.push_back(t);
  }
  // Warm-up requests bring a fresh daemon's code and allocator into a
  // steady state before anything is timed; users of a long-running daemon
  // do not pay that cost per request.
  dagsched::Rng warm = dagsched::Rng::stream(seed, 3);
  for (int w = 0; w < kWarmup; ++w) {
    const Instance instance = fresh_instance(warm);
    service::ScheduleRequest wire;
    wire.id = "w" + std::to_string(w);
    wire.graph = instance.graph;
    wire.policy = instance.policy;
    wire.seed = instance.seed;
    stream.warmup.push_back(service::to_json(wire));
  }
  return stream;
}

// ----------------------------------------------------------- the daemon

/// A schedd child process with pipes on its stdin and stdout.
class Daemon {
 public:
  explicit Daemon(const std::string& path) {
    int in[2];
    int out[2];
    if (pipe(in) != 0 || pipe(out) != 0) {
      throw std::runtime_error("schedd_stream: pipe() failed");
    }
    // Larger pipes let a 35 KB request line go out in one write.
    fcntl(in[1], F_SETPIPE_SZ, 1 << 20);
    fcntl(out[0], F_SETPIPE_SZ, 1 << 20);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    for (const int fd : {in[0], in[1], out[0], out[1]}) {
      posix_spawn_file_actions_addclose(&actions, fd);
    }
    std::vector<std::string> args = {path, "--max-in-flight", "2"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int error = posix_spawn(&pid_, path.c_str(), &actions, nullptr,
                                  argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in[0]);
    close(out[1]);
    to_daemon_ = in[1];
    from_daemon_ = out[0];
    if (error != 0) {
      close(to_daemon_);
      close(from_daemon_);
      throw std::runtime_error("schedd_stream: cannot start " + path);
    }
  }
  ~Daemon() {
    close_input();
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      wait();
    }
    if (from_daemon_ >= 0) close(from_daemon_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int to_daemon() const { return to_daemon_; }
  int from_daemon() const { return from_daemon_; }
  void close_input() {
    if (to_daemon_ >= 0) close(to_daemon_);
    to_daemon_ = -1;
  }
  void kill_now() {
    if (pid_ > 0) kill(pid_, SIGKILL);
  }
  /// Reaps the child; returns its exit status (-1 when killed).
  int wait() {
    int status = 0;
    rusage usage{};
    if (pid_ <= 0) return exit_status_;
    while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    peak_rss_kb_ = usage.ru_maxrss;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return exit_status_;
  }
  std::int64_t peak_rss_kb() const { return peak_rss_kb_; }

 private:
  pid_t pid_ = -1;
  int to_daemon_ = -1;
  int from_daemon_ = -1;
  int exit_status_ = -1;
  std::int64_t peak_rss_kb_ = 0;
};

struct PhaseResult {
  std::size_t requests = 0;            ///< how many the phase sends
  std::vector<std::int64_t> due_ns;    ///< when each request was due
  std::vector<std::int64_t> sent_ns;   ///< write start
  std::vector<std::int64_t> late_ns;   ///< generator-caused lateness
  std::vector<std::int64_t> read_ns;   ///< response line read
  std::vector<std::string> lines;      ///< response lines, in order
  std::vector<std::string> warmup_lines;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool timed_out = false;
  bool io_error = false;
  int exit_status = -1;
  std::int64_t peak_rss_kb = 0;
  int max_threads = 0;
};

/// Streams the warm-up lines and then the requests to a fresh daemon, from
/// this one thread: a poll loop that writes each line when it is due and
/// reads responses as they arrive.  `open_loop` sends the open-loop prefix,
/// each request at its due time; otherwise every request goes out with at
/// most kWindow outstanding.
PhaseResult run_phase(const std::string& schedd, const Stream& stream,
                      bool open_loop) {
  const std::size_t n = open_loop ? stream.open_count : stream.requests.size();
  const std::size_t warm = stream.warmup.size();
  const std::size_t total = warm + n;
  PhaseResult phase;
  phase.requests = n;
  phase.due_ns.resize(n);
  phase.sent_ns.resize(n);
  phase.late_ns.resize(n);
  phase.read_ns.reserve(n);
  phase.lines.reserve(n);

  Daemon daemon(schedd);
  fcntl(daemon.to_daemon(), F_SETFL,
        fcntl(daemon.to_daemon(), F_GETFL) | O_NONBLOCK);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kPhaseDeadlineS * 1e9);
  std::string out;            // the line being written
  std::size_t out_pos = 0;
  std::size_t next = 0;       // next line to queue (warm-up lines first)
  std::size_t received = 0;   // response lines read, warm-up included
  std::int64_t previous_end = 0;
  std::string in;
  char chunk[1 << 16];

  while (received < total) {
    std::int64_t now = now_ns();
    if (now > deadline) {
      phase.timed_out = true;
      break;
    }
    // Queue the next line once it is due.
    std::int64_t wake = deadline;
    if (out_pos == out.size() && next < total) {
      bool ready = next < warm;  // warm-up lines go out at once
      if (next >= warm && received >= warm) {
        const std::size_t i = next - warm;
        if (phase.start_ns == 0) phase.start_ns = now;
        phase.due_ns[i] = open_loop ? phase.start_ns +
                                          static_cast<std::int64_t>(
                                              stream.due_s[i] * 1e9)
                                    : now;
        ready = open_loop ? now >= phase.due_ns[i]
                          : next - received < static_cast<std::size_t>(kWindow);
        if (ready) {
          phase.sent_ns[i] = now;
          phase.late_ns[i] = std::max<std::int64_t>(
              0, now - std::max(phase.due_ns[i], previous_end));
        } else if (open_loop) {
          wake = phase.due_ns[i];
        }
      }
      if (ready) {
        out = (next < warm ? stream.warmup[next]
                           : stream.requests[next - warm].line) + "\n";
        out_pos = 0;
        ++next;
        if (next % 256 == 0) {
          phase.max_threads = std::max(phase.max_threads, thread_count());
        }
      }
    }
    if (out_pos < out.size()) {
      const ssize_t wrote = write(daemon.to_daemon(), out.data() + out_pos,
                                  out.size() - out_pos);
      if (wrote > 0) {
        out_pos += static_cast<std::size_t>(wrote);
        if (out_pos == out.size()) {
          previous_end = now_ns();
          continue;  // queue the next line before waiting
        }
      } else if (errno != EAGAIN && errno != EINTR) {
        phase.io_error = true;
        break;
      }
    }
    if (out_pos == out.size() && next == total) daemon.close_input();

    // Wait for a response, for the pipe to drain, or for the next due time.
    pollfd fds[2] = {{daemon.from_daemon(), POLLIN, 0},
                     {daemon.to_daemon(), POLLOUT, 0}};
    const nfds_t count = out_pos < out.size() ? 2 : 1;
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now_ns());
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds, count, &timeout, nullptr) < 0 && errno != EINTR) {
      phase.io_error = true;
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP)) == 0) continue;
    const ssize_t got = read(daemon.from_daemon(), chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // the daemon closed its output
    const std::int64_t at = now_ns();
    in.append(chunk, static_cast<std::size_t>(got));
    std::size_t begin = 0;
    for (std::size_t newline = in.find('\n'); newline != std::string::npos;
         newline = in.find('\n', begin)) {
      if (received < warm) {
        phase.warmup_lines.emplace_back(in, begin, newline - begin);
      } else {
        phase.lines.emplace_back(in, begin, newline - begin);
        phase.read_ns.push_back(at);
      }
      ++received;
      begin = newline + 1;
    }
    in.erase(0, begin);
  }
  if (phase.timed_out || phase.io_error) daemon.kill_now();
  daemon.close_input();
  phase.end_ns = phase.read_ns.empty() ? now_ns() : phase.read_ns.back();
  phase.exit_status = daemon.wait();
  phase.peak_rss_kb = daemon.peak_rss_kb();
  return phase;
}

// ------------------------------------------------------------ the checks

struct Parsed {
  std::string id;
  std::string status;
  std::string error;
  std::string cache;
  std::string graph_hash;
  std::string policy;
  double makespan_us = 0.0;
  double elapsed_ms = 0.0;
  std::vector<dagsched::ProcId> placement;
};

Parsed parse_response(const std::string& line) {
  Parsed parsed;
  const dagsched::JsonValue doc = dagsched::parse_json(line);
  const auto text = [&](const char* key) -> std::string {
    const dagsched::JsonValue* value = doc.find(key);
    return value != nullptr ? value->as_string() : std::string();
  };
  parsed.id = text("id");
  parsed.status = text("status");
  parsed.error = text("error");
  parsed.cache = text("cache");
  parsed.graph_hash = text("graph_hash");
  parsed.policy = text("policy");
  if (const auto* value = doc.find("makespan_us")) {
    parsed.makespan_us = value->as_double();
  }
  if (const auto* value = doc.find("elapsed_ms")) {
    parsed.elapsed_ms = value->as_double();
  }
  if (const auto* value = doc.find("placement")) {
    for (const dagsched::JsonValue& proc : value->items()) {
      parsed.placement.push_back(static_cast<dagsched::ProcId>(proc.as_int64()));
    }
  }
  return parsed;
}

/// Every hit must repeat the makespan of a miss on the same cache key
/// (instance hash, canonical policy, seed) in the same phase: the entry it
/// was served from.  That miss may carry a later request id, when its
/// worker inserted the entry before the hit's worker looked it up.
void check_hits(const Stream& stream, const std::vector<Parsed>& responses,
                const std::string& name, Report& report) {
  const auto key = [&](std::size_t i) {
    const Instance& instance = stream.instances[static_cast<std::size_t>(
        stream.requests[i].instance)];
    return responses[i].graph_hash + "|" + responses[i].policy + "|" +
           std::to_string(instance.seed);
  };
  std::map<std::string, std::vector<double>> missed;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].status == "ok" && responses[i].cache == "miss") {
      missed[key(i)].push_back(responses[i].makespan_us);
    }
  }
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].status != "ok" || responses[i].cache != "hit") continue;
    const std::vector<double>& makespans = missed[key(i)];
    if (std::find(makespans.begin(), makespans.end(),
                  responses[i].makespan_us) == makespans.end()) {
      report.fail(name + ":" + stream.requests[i].id,
                  "cache hit makespan matches no miss on its key");
    }
  }
}

/// Parses and checks one phase's responses; returns them by request.
std::vector<Parsed> check_phase(const Stream& stream, const PhaseResult& phase,
                                const std::string& name,
                                const dagsched::Topology& topology,
                                Report& report) {
  const std::size_t n = phase.requests;
  report.attempted += static_cast<std::int64_t>(n);
  if (phase.timed_out) {
    report.fail(name, "phase did not finish within " +
                          std::to_string(kPhaseDeadlineS) + " s");
  }
  if (phase.io_error) report.fail(name, "pipe error talking to schedd");
  if (phase.exit_status != 0) {
    report.fail(name, "schedd exit status " + std::to_string(phase.exit_status));
  }
  if (phase.warmup_lines.size() != stream.warmup.size()) {
    report.fail(name + ":warmup", "missing warm-up responses");
  }
  for (const std::string& line : phase.warmup_lines) {
    if (parse_response(line).status != "ok") {
      report.fail(name + ":warmup", "warm-up request failed: " + line);
    }
  }
  std::vector<Parsed> parsed(n);
  for (std::size_t i = 0; i < n; ++i) {
    const StreamRequest& request = stream.requests[i];
    const std::string key = name + ":" + request.id;
    if (i >= phase.lines.size()) {
      report.fail(key, "no response");
      continue;
    }
    try {
      parsed[i] = parse_response(phase.lines[i]);
    } catch (const std::exception& error) {
      report.fail(key, std::string("unparsable response: ") + error.what());
      continue;
    }
    const Parsed& response = parsed[i];
    if (response.id != request.id) {
      report.fail(key, "response out of order: got id '" + response.id + "'");
    } else if (response.status != "ok") {
      report.fail(key, response.status + ": " + response.error);
    } else if (response.makespan_us <= 0.0) {
      report.fail(key, "non-positive makespan");
    } else {
      const std::string bad =
          check_placement(response.placement, request.tasks, topology);
      if (!bad.empty()) report.fail(key, bad);
    }
  }
  return parsed;
}

// ------------------------------------------------- the in-process replay

void replay_in_process(const Stream& stream, const dagsched::Topology& topology,
                       Report& report) {
  Tracer& tracer = report.tracer;
  service::ScheduleService svc(256);
  const auto& registry = dagsched::sched::PolicyRegistry::instance();
  double sa_iterations = 0.0;
  for (const StreamRequest& wire : stream.requests) {
    service::ScheduleRequest request;
    {
      SpanScope span(&tracer, "api.parse", wire.id);
      request = service::request_from_json(dagsched::parse_json(wire.line));
    }
    service::ScheduleResponse response;
    {
      SpanScope span(&tracer, "service.serve", wire.id);
      response = svc.serve(request);
      span.rename(std::string("service.serve.") +
                  service::to_string(response.cache));
    }
    {
      SpanScope span(&tracer, "api.serialize", wire.id);
      const std::string line = service::to_json(response);
      if (line.empty()) report.fail("replay:" + wire.id, "empty response");
    }
    if (response.status != service::ResponseStatus::Ok) {
      report.fail("replay:" + wire.id, response.error);
    }
    {
      SpanScope span(&tracer, "graph_hash.canonicalize", wire.id);
      (void)service::canonicalize_instance(request.graph, topology,
                                           request.comm);
    }
    if (request.policy == "sa" && response.cache == service::CacheStatus::Miss) {
      dagsched::sched::PolicyConfig config = registry.make_config("sa");
      config.seed = request.seed;
      std::unique_ptr<dagsched::sched::ScheduledPolicy> policy;
      {
        SpanScope span(&tracer, "core.sa.run", wire.id);
        policy = registry.make("sa", config);
        (void)policy->run(request.graph, topology, request.comm);
      }
      const auto* impl =
          dynamic_cast<const dagsched::sa::SaScheduler*>(policy->online_impl());
      if (impl != nullptr) {
        sa_iterations += static_cast<double>(impl->stats().total_iterations);
      }
    }
  }
  report.counter("plan_cache.evictions",
                 static_cast<double>(svc.cache().stats().evictions));
  report.counter("core.sa.iterations", sa_iterations);
}

}  // namespace

int run_schedd_stream(const Options& options, Report& report) {
  if (options.schedd.empty()) {
    throw std::invalid_argument("schedd_stream needs --schedd PATH");
  }
  signal(SIGPIPE, SIG_IGN);
  const dagsched::Topology topology = dagsched::topo::by_name("hypercube:3");
  const dagsched::CommModel comm = dagsched::CommModel::paper_default();

  // The open loop takes 45% of the run (over 1000 requests at 20 s, enough
  // for a p99); each capacity pass then sends the whole stream as fast as
  // the window allows.
  const int count =
      std::max(400, static_cast<int>(std::lround(options.seconds *
                                                 kCapacityRequestsPerSecond)));
  const int open_count = std::max(
      200, static_cast<int>(std::lround(options.seconds * 0.45 *
                                        kArrivalsPerSecond)));
  Stream stream;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    stream = make_stream(options.seed, count, open_count);
    report.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  {
    std::size_t bytes = 0;
    int relabeled = 0;
    for (const StreamRequest& request : stream.requests) {
      bytes += request.line.size();
      relabeled += request.relabeled ? 1 : 0;
    }
    report.notes.push_back(
        std::to_string(count) + " requests (" +
        std::to_string(stream.instances.size()) + " distinct instances, " +
        std::to_string(relabeled) + " relabelings), " +
        std::to_string(bytes / 1024) + " KiB on the wire; the open loop sends "
        "the first " + std::to_string(stream.open_count) + " at " +
        std::to_string(static_cast<int>(kArrivalsPerSecond)) + " req/s");
  }

  // Open loop.
  const PhaseResult open = run_phase(options.schedd, stream, true);
  const std::vector<Parsed> open_responses =
      check_phase(stream, open, "open", topology, report);
  check_hits(stream, open_responses, "open", report);
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t shed = 0;
  std::int64_t errors = 0;
  for (std::size_t i = 0; i < open.read_ns.size() && i < open.requests; ++i) {
    const double latency = ms_between(open.due_ns[i], open.read_ns[i]);
    report.latency_ms.push_back(latency);
    const Parsed& response = open_responses[i];
    hits += response.cache == "hit" ? 1 : 0;
    misses += response.cache == "miss" ? 1 : 0;
    shed += response.status == "shed" ? 1 : 0;
    errors += response.status == "error" ? 1 : 0;
    report.sample("daemon.wait_ms").push_back(latency - response.elapsed_ms);
  }
  std::vector<double>& late = report.sample("loadgen.late_ms");
  std::size_t very_late = 0;
  for (const std::int64_t ns : open.late_ns) {
    late.push_back(ns / 1e6);
    very_late += ns > kMaxLateP99Ms * 1e6 ? 1 : 0;
  }
  report.counter("daemon.shed", static_cast<double>(shed));
  report.counter("daemon.errors", static_cast<double>(errors));
  report.counter("plan_cache.hits", static_cast<double>(hits));
  report.counter("plan_cache.misses", static_cast<double>(misses));
  report.counter("loadgen.threads", open.max_threads);

  // Load-generator health: the run is invalid when the generator itself
  // fell behind its schedule (its p99 send lateness over the limit) or
  // used more threads than the host has.
  if (very_late * 100 > late.size()) {
    report.fail("loadgen", "generator fell behind: " +
                               std::to_string(very_late) + " of " +
                               std::to_string(late.size()) +
                               " sends more than " +
                               std::to_string(kMaxLateP99Ms) + " ms late");
  }
  if (open.max_threads > static_cast<int>(std::thread::hardware_concurrency())) {
    report.fail("loadgen", "generator used " + std::to_string(open.max_threads) +
                               " threads");
  }

  // Capacity passes, each against a fresh daemon.
  std::vector<PhaseResult> capacity;
  std::vector<std::vector<Parsed>> capacity_responses;
  for (int pass = 0; pass < kCapacityPasses; ++pass) {
    const std::string name = "capacity" + std::to_string(pass);
    capacity.push_back(run_phase(options.schedd, stream, false));
    const PhaseResult& phase = capacity.back();
    capacity_responses.push_back(
        check_phase(stream, phase, name, topology, report));
    check_hits(stream, capacity_responses.back(), name, report);
    report.jobs_per_s.push_back(static_cast<double>(phase.lines.size()) /
                                (ms_between(phase.start_ns, phase.end_ns) / 1e3));
    report.peak_rss_kb = std::max(report.peak_rss_kb, phase.peak_rss_kb);
  }
  report.peak_rss_kb = std::max(report.peak_rss_kb, open.peak_rss_kb);

  // Agreement between phases.  A miss is a fresh policy run on the
  // request's own labels, so when both phases missed, status, makespan and
  // placement must agree.  A hit returns the plan that a miss on the same
  // cache key produced, possibly for another labeling of the instance
  // (check_hits).  With two workers, whether a request hits depends on
  // completion order, and with it the plan: such requests are counted in
  // daemon.cache_divergent, not failed.
  int divergent = 0;
  const auto agree = [&](const std::vector<Parsed>& first,
                         const std::vector<Parsed>& second, std::size_t n,
                         const std::string& what) {
    for (std::size_t i = 0; i < n; ++i) {
      const Parsed& a = first[i];
      const Parsed& b = second[i];
      const bool both_ok = a.status == "ok" && b.status == "ok";
      if (both_ok && a.makespan_us == b.makespan_us &&
          a.placement == b.placement) {
        continue;
      }
      const StreamRequest& request = stream.requests[i];
      const std::string why =
          what + " responses differ: " + a.status + " " +
          std::to_string(a.makespan_us) + " us (cache " + a.cache + ") vs " +
          b.status + " " + std::to_string(b.makespan_us) + " us (cache " +
          b.cache + "); " +
          stream.instances[static_cast<std::size_t>(request.instance)].policy +
          (request.relabeled ? ", relabeled" : ", original labels");
      if (both_ok && (a.cache == "hit" || b.cache == "hit")) {
        if (++divergent == 1) report.notes.push_back("cache-dependent: " + why);
      } else {
        report.fail("agree:" + request.id, why);
      }
    }
  };
  for (const std::vector<Parsed>& responses : capacity_responses) {
    agree(open_responses, responses, stream.open_count, "open-loop and capacity");
  }
  for (std::size_t pass = 1; pass < capacity_responses.size(); ++pass) {
    agree(capacity_responses[0], capacity_responses[pass],
          stream.requests.size(), "capacity-pass");
  }
  report.counter("daemon.cache_divergent", divergent);

  // Makespans against HLF on the same instance; an hlf request that ran
  // fresh on its instance's own labels must match the reference exactly.
  const auto& registry = dagsched::sched::PolicyRegistry::instance();
  std::vector<double> hlf_us(stream.instances.size(), 0.0);
  for (std::size_t k = 0; k < stream.instances.size(); ++k) {
    hlf_us[k] = dagsched::to_us(
        registry.make("hlf")->run(stream.instances[k].graph, topology, comm)
            .result.makespan);
  }
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const StreamRequest& request = stream.requests[i];
    const Parsed& response = capacity_responses[0][i];
    if (response.status != "ok" || response.makespan_us <= 0.0) continue;
    const double reference = hlf_us[static_cast<std::size_t>(request.instance)];
    report.makespan_ratio.push_back(response.makespan_us / reference);
    const bool own_labels = !request.relabeled && response.cache == "miss";
    if (own_labels &&
        stream.instances[static_cast<std::size_t>(request.instance)].policy ==
            "hlf" &&
        response.makespan_us != reference) {
      report.fail("hlf:" + request.id, "served hlf makespan differs from a "
                                       "direct registry run");
    }
  }

  report.traced = options.trace;
  if (options.trace) {
    for (std::size_t i = 0; i < open.read_ns.size() && i < open.requests; ++i) {
      report.tracer.add("daemon.request", open.due_ns[i], open.read_ns[i], -1,
                        stream.requests[i].id);
    }
    // The capacity phase again, traced, for the tracing overhead.
    const PhaseResult traced = run_phase(options.schedd, stream, false);
    check_phase(stream, traced, "traced", topology, report);
    const int root =
        report.tracer.add("capacity", traced.start_ns, traced.end_ns, -1, "");
    for (std::size_t i = 0; i < traced.read_ns.size(); ++i) {
      report.tracer.add("daemon.request.capacity", traced.sent_ns[i],
                        traced.read_ns[i], root, stream.requests[i].id);
    }
    for (const PhaseResult& phase : capacity) {
      report.sample("trace.untraced_ms")
          .push_back(ms_between(phase.start_ns, phase.end_ns));
    }
    report.sample("trace.traced_ms")
        .push_back(ms_between(traced.start_ns, traced.end_ns));
    replay_in_process(stream, topology, report);
  }
  return 0;
}

}  // namespace perfbench
