#pragma once

// schedd: the scheduling daemon.  Reads JSONL requests from a stream,
// dispatches them to a bounded worker pool through ScheduleService, and
// writes one JSONL response per request — in *request order*, whatever
// order the workers finish in, so a fixed request stream produces a fixed
// response stream.  Admission control sheds requests (with a structured
// reason) instead of queueing unboundedly; EOF on the input drains the
// queue and exits.
//
// Ops (the `op` request key): "schedule" (default) runs a
// ScheduleRequest; "list_policies" returns the scheduler registry using
// the same formatters as `sweep --list-policies`; "stats" returns the
// daemon counters as of everything emitted before it.
//
// Observability: an optional JSONL trace stream records per-request
// arrival / start / finish (or shed/error) events plus a final drain
// summary.  Trace lines carry no wall-clock fields, and both the
// response and trace streams are emitted in request order, so with one
// worker a fixed request stream yields byte-identical trace and response
// streams across runs (tools/schedd_smoke.sh pins this); with several
// workers only cache hit/miss columns may vary with completion order.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "service/service.hpp"

namespace dagsched::service {

struct ScheddOptions {
  int max_in_flight = 1;         ///< worker threads
  int max_queue = 16;            ///< waiting requests before shedding
  std::size_t cache_capacity = 256;  ///< plan-cache entries (0 = off)
  /// Admission cost assumed for queued requests without a deadline, in
  /// milliseconds (0 = budget-less requests count as free).
  double default_cost_ms = 0.0;
};

/// Emitted-response counters (stats op / post-run inspection).
struct ScheddStats {
  std::int64_t received = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t errors = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

struct AdmissionDecision {
  bool admitted = true;
  std::string reason;  ///< "queue_full: ..." / "deadline_unmeetable: ..."
};

/// The admission rule, pure in its inputs so it is deterministic given
/// the queue contents and directly unit-testable: reject when the wait
/// queue is full, or when the request carries a deadline
/// (time_budget_ms > 0) that the queued work — `queued_cost_ms` spread
/// over `max_in_flight` workers — already makes unmeetable.  Work
/// already running on the workers is not counted (its remaining time is
/// unknown), so the rule under-sheds rather than over-sheds.
AdmissionDecision admit_request(double time_budget_ms,
                                std::size_t queue_depth,
                                double queued_cost_ms,
                                const ScheddOptions& options);

class Schedd {
 public:
  explicit Schedd(ScheddOptions options);

  /// Serves `in` until EOF, writing responses to `out` and (optionally)
  /// trace events to `trace`.  Blocks until the queue is drained and all
  /// workers have exited.  Returns 0 (per-request failures are responses,
  /// not process failures).
  ///
  /// `out` and `trace` are written only by the emit path, under one
  /// mutex, from whichever thread completes a request.  The reader thread
  /// never touches them: run() unties `in` (`in.tie(nullptr)`) for its
  /// length, because a tied stream is flushed by every read, and restores
  /// the tie on return.  With the tie cut the caller may also unsync the
  /// standard streams from C stdio (schedd's main does).
  int run(std::istream& in, std::ostream& out, std::ostream* trace = nullptr);

  /// Counters of the finished run (valid once run() returned).
  ScheddStats stats() const { return stats_; }

  ScheduleService& service() { return service_; }
  const ScheddOptions& options() const { return options_; }

 private:
  ScheddOptions options_;
  ScheduleService service_;
  ScheddStats stats_;
};

}  // namespace dagsched::service
