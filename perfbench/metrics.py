"""Metric arithmetic for the dagsched benchmark.

The harness (perfbench/harness) writes raw samples, counters and spans;
everything reported is computed here, so the arithmetic has one home and
one set of self-tests (perfbench/tests/test_metrics.py).
"""

import math

# End-to-end metrics: name -> (unit, better).  Every workload reports all
# of them (README.md says what each means per workload).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "makespan_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Latency is printed with every run but carries no bound: on the 4-vCPU
# shared host the benchmark was tuned on, the schedd open-loop median and
# tail moved by 25-50% between runs of the same code (README.md).  The
# traced run reports it as per-layer metrics.
LATENCY = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
}

LIST_POLICIES = ("hlf", "hlf-mincomm", "etf", "list-hlf", "heft", "peft",
                 "random", "dagprio")
LADDER_SIZES = ("n1k", "n4k", "n16k")

# Per-layer metrics of the traced run: name -> (unit, better).  A layer a
# workload does not exercise reads 0.
PER_LAYER = {
    "e2e.latency_p50_ms": ("ms", "lower"),
    "e2e.latency_p99_ms": ("ms", "lower"),
    "api.parse_ms.p50": ("ms", "lower"),
    "api.parse_ms.p99": ("ms", "lower"),
    "api.parse_ms.total": ("ms", "lower"),
    "api.serialize_ms.p50": ("ms", "lower"),
    "api.serialize_ms.total": ("ms", "lower"),
    "daemon.wait_ms.p50": ("ms", "lower"),
    "daemon.wait_ms.p99": ("ms", "lower"),
    "daemon.shed": ("count", "lower"),
    "daemon.errors": ("count", "lower"),
    "daemon.cache_divergent": ("count", "lower"),
    "plan_cache.hit_ratio": ("ratio", "higher"),
    "plan_cache.evictions": ("count", "lower"),
    "graph_hash.canonicalize_ms.p50": ("ms", "lower"),
    "graph_hash.canonicalize_ms.gnp16k": ("ms", "lower"),
    "graph_hash.canonicalize_ms.fj528": ("ms", "lower"),
    "graph_hash.canonicalize_ms.fj2064": ("ms", "lower"),
    "service.serve_ms.hit.p50": ("ms", "lower"),
    "service.serve_ms.miss.p50": ("ms", "lower"),
    "core.gsa.run_ms.p50": ("ms", "lower"),
    "core.gsa.proposals_per_s": ("1/s", "higher"),
    "core.gsa.accept_ratio": ("ratio", "higher"),
    "core.oracle.replayed_epoch_share": ("ratio", "lower"),
    "core.oracle.memo_hit_ratio": ("ratio", "higher"),
    "core.oracle.full_replay_share": ("ratio", "lower"),
    "core.sa.run_ms.p50": ("ms", "lower"),
    "core.sa.iterations": ("count", "lower"),
}
PER_LAYER.update({"sched.list_run_ms." + p: ("ms", "lower")
                  for p in LIST_POLICIES})
PER_LAYER.update({"sched.heft_plan_ms." + s: ("ms", "lower")
                  for s in LADDER_SIZES})
PER_LAYER.update({"sim.hlf_ms." + s: ("ms", "lower") for s in LADDER_SIZES})
PER_LAYER.update({
    "sim.messages": ("count", "lower"),
    "sweep.summarize_ms": ("ms", "lower"),
    "sweep.write_ms": ("ms", "lower"),
    "sweep.parallel_efficiency": ("ratio", "higher"),
    "loadgen.late_ms.p99": ("ms", "lower"),
    "loadgen.threads": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
})


def percentile(values, q):
    """Linear interpolation between order statistics (rank q * (n - 1))."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 0.5)


def tail_quantile(count, beyond=10, cap=0.99):
    """The highest quantile (at most `cap`) with at least `beyond` samples
    above it, or 1.0 (the maximum) when no quantile above the median has
    that many."""
    if count <= 0:
        return 1.0
    q = min(cap, 1.0 - beyond / count)
    return q if q >= 0.5 else 1.0


def tail(values, beyond=10, cap=0.99):
    """(value, quantile) of the tail percentile of `values`."""
    q = tail_quantile(len(values), beyond, cap)
    return percentile(values, q), q


def geomean(values):
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failed_share(failed, attempted):
    return failed / attempted if attempted > 0 else 1.0


def throughput(rates):
    """Jobs per second over passes of equal size: total jobs over total
    time, i.e. the harmonic mean of the per-pass rates."""
    if not rates:
        return 0.0
    return len(rates) / sum(1.0 / r for r in rates)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children count once).  `spans`
    holds (name, start, end, parent, tag) tuples; returns a list parallel
    to it."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, []), key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(0.0, (end - start) - covered))
    return result


def end_to_end(raw):
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": median(raw["setup_s"]),
        "jobs_per_s": throughput(raw["jobs_per_s"]),
        "makespan_ratio": geomean(raw["makespan_ratio"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def latency(raw):
    """The median and tail of the run's latency samples."""
    samples = raw["latency_ms"]
    return {
        "latency_p50_ms": median(samples),
        "latency_p99_ms": tail(samples)[0],
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(raw):
    """The per-layer metrics of one traced run."""
    spans = raw["spans"]
    own = self_times(spans)
    by_name = {}
    by_name_tag = {}
    for span, ms in zip(spans, own):
        by_name.setdefault(span[0], []).append(ms)
        by_name_tag.setdefault((span[0], span[4]), []).append(ms)
    counters = raw["counters"]
    samples = raw["samples"]

    def count(name):
        return counters.get(name, 0.0)

    def times(name):
        return by_name.get(name, [])

    def tagged(name, tag):
        return median(by_name_tag.get((name, tag), []))

    gsa_s = sum(times("core.gsa.run")) / 1e3
    proposals = count("core.gsa.proposals")
    hits = count("plan_cache.hits")
    cell_ms = sum(sum(times(n)) for n in by_name
                  if n in ("core.gsa.run", "core.sa.run")
                  or n.startswith("sched.list_run."))
    run_ms = median(samples.get("sweep.run_ms", []))
    threads = count("sweep.threads")
    untraced = median(samples.get("trace.untraced_ms", []))
    traced = median(samples.get("trace.traced_ms", []))

    metrics = {
        "e2e.latency_p50_ms": latency(raw)["latency_p50_ms"],
        "e2e.latency_p99_ms": latency(raw)["latency_p99_ms"],
        "api.parse_ms.p50": median(times("api.parse")),
        "api.parse_ms.p99": tail(times("api.parse"))[0] if times("api.parse") else 0.0,
        "api.parse_ms.total": sum(times("api.parse")),
        "api.serialize_ms.p50": median(times("api.serialize")),
        "api.serialize_ms.total": sum(times("api.serialize")),
        "daemon.wait_ms.p50": median(samples.get("daemon.wait_ms", [])),
        "daemon.wait_ms.p99": percentile(samples.get("daemon.wait_ms", []), 0.99),
        "daemon.shed": count("daemon.shed"),
        "daemon.errors": count("daemon.errors"),
        "daemon.cache_divergent": count("daemon.cache_divergent"),
        "plan_cache.hit_ratio": _ratio(hits, hits + count("plan_cache.misses")),
        "plan_cache.evictions": count("plan_cache.evictions"),
        "graph_hash.canonicalize_ms.p50": median(times("graph_hash.canonicalize")),
        "graph_hash.canonicalize_ms.gnp16k": tagged("graph_hash.canonicalize", "gnp16k"),
        "graph_hash.canonicalize_ms.fj528": tagged("graph_hash.canonicalize", "fj528"),
        "graph_hash.canonicalize_ms.fj2064": tagged("graph_hash.canonicalize", "fj2064"),
        "service.serve_ms.hit.p50": median(times("service.serve.hit")),
        "service.serve_ms.miss.p50": median(times("service.serve.miss")),
        "core.gsa.run_ms.p50": median(times("core.gsa.run")),
        "core.gsa.proposals_per_s": _ratio(proposals, gsa_s),
        "core.gsa.accept_ratio": _ratio(count("core.gsa.accepts"), proposals),
        "core.oracle.replayed_epoch_share": _ratio(
            count("core.oracle.replayed_epochs"),
            count("core.oracle.baseline_epochs")),
        "core.oracle.memo_hit_ratio": _ratio(count("core.oracle.memo_hits"), proposals),
        "core.oracle.full_replay_share": _ratio(count("core.oracle.full_replays"), proposals),
        "core.sa.run_ms.p50": median(times("core.sa.run")),
        "core.sa.iterations": count("core.sa.iterations"),
        "sim.messages": count("sim.messages"),
        "sweep.summarize_ms": sum(times("sweep.summarize")),
        "sweep.write_ms": sum(times("sweep.write")),
        "sweep.parallel_efficiency": _ratio(cell_ms, threads * run_ms),
        "loadgen.late_ms.p99": percentile(samples.get("loadgen.late_ms", []), 0.99),
        "loadgen.threads": count("loadgen.threads"),
        "trace.overhead_share": _ratio(traced, untraced) - 1.0 if untraced else 0.0,
        "trace.spans": float(len(spans)),
    }
    for policy in LIST_POLICIES:
        metrics["sched.list_run_ms." + policy] = sum(times("sched.list_run." + policy))
    for size in LADDER_SIZES:
        metrics["sched.heft_plan_ms." + size] = tagged("sched.heft_plan", size)
        metrics["sim.hlf_ms." + size] = tagged("sim.hlf", size)
    assert set(metrics) == set(PER_LAYER)
    return metrics
