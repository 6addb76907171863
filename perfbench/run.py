"""The repository's serving benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload safe-drift --seed 1 --seconds 45 --trace 0

``BENCHMARK.json`` gates ``safe-drift`` and ``hard-drift``.
``warm-http`` runs the same way but is not gated: on a shared two-vCPU
host its single-cost reads and writes sit on the host's two-speed
cliff (see ``harness.host_states`` in ``perfbench/design.json``).

``--trace 0`` starts the production server
(``python -m repro serve DB.json --listen 127.0.0.1:0 --workers 1``) as
its own process, times ``setup_s`` over several cold starts, drives the
workload's timed phase through one keep-alive connection as a closed
loop, checks every reply against an exact reference after the run, and
prints the end-to-end metrics.  ``--trace 1`` runs the same schedule
against an in-process ``BackgroundServer`` twice, once plain and once
with layer spans installed, and prints the per-layer metrics.  Lines
starting with ``#`` are the human report; the last line of standard
output is the JSON result.

Inputs come only from ``--seed``; see ``perfbench/workloads.py`` for
sizes and ``perfbench/design.json`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    # Outside a checkout there is nothing to measure; say so and fail
    # before printing any result.
    sys.exit(f"error: no program sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, workloads  # noqa: E402
from perfbench.workloads import Read, Write  # noqa: E402

#: Servers started per untraced run: each is set up cold (setup_s is
#: the median) and then serves an equal share of the timed phase.
SERVERS_PER_RUN = 3
#: Upper bound on operations per second a workload can reach, used to
#: size the pre-built schedule so a run never runs out of requests.
MAX_OPS_PER_S = {"safe-drift": 200, "hard-drift": 1500, "warm-http": 4000}
#: Where the database file goes, inside the checkout.
RUN_DIR = ROOT / ".perfbench_run"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (works with ``inf`` for failed reads)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Running phases and checking them
# ----------------------------------------------------------------------

class Phase:
    """The ops a server received, with latencies and raw replies."""

    def __init__(self, ops: List[object], latencies: List[float],
                 replies: List[Tuple[int, bytes]]) -> None:
        self.ops = ops
        self.latencies = latencies
        self.replies = replies
        self.verdicts: List[Optional[str]] = []


def build_requests(workload, ops) -> List[bytes]:
    return [harness.encode(*workloads.request_body(workload, op)) for op in ops]


def drive(connection, workload, setup_requests, timed_requests, seconds,
          on_setup=None) -> Tuple[Phase, Phase]:
    """Setup reads, then the timed phase, on one server."""
    latencies, replies = harness.run_ops(connection, setup_requests)
    setup = Phase(workloads.setup_reads(workload), latencies, replies)
    if on_setup is not None:
        on_setup()
    latencies, replies = harness.run_ops(connection, timed_requests, seconds)
    return setup, Phase(workload.ops[:len(replies)], latencies, replies)


def check_servers(workload, servers: List[List[Phase]]) -> None:
    """Check each server's phases as one replay from the initial state."""
    from perfbench.reference import check

    deviations: List[float] = []
    for phases in servers:
        ops = [op for phase in phases for op in phase.ops]
        replies = [reply for phase in phases for reply in phase.replies]
        verdicts = check(workload, ops, replies, deviations)
        for phase in phases:
            phase.verdicts, verdicts = (verdicts[:len(phase.ops)],
                                        verdicts[len(phase.ops):])
    if deviations:
        print(f"# monte-carlo reads: {len(deviations)}, largest "
              f"|estimate - exact| {max(deviations):.4f} (tolerance "
              f"{workloads.MC_TOLERANCE})")


def counts(phases: Sequence[Phase]) -> Dict[str, List[int]]:
    """Per operation type: [attempted, failed]."""
    table = {"read": [0, 0], "write": [0, 0]}
    for phase in phases:
        for op, verdict in zip(phase.ops, phase.verdicts):
            entry = table["write" if isinstance(op, Write) else "read"]
            entry[0] += 1
            entry[1] += verdict is not None
    return table


def split_latencies(phases: Sequence[Phase]) -> Tuple[List[float], List[float]]:
    """Read and write latencies in seconds; a failed op counts as inf."""
    reads, writes = [], []
    for phase in phases:
        for op, latency, verdict in zip(phase.ops, phase.latencies,
                                        phase.verdicts):
            value = latency if verdict is None else math.inf
            (writes if isinstance(op, Write) else reads).append(value)
    return reads, writes


def report_failures(phases: Sequence[Phase]) -> None:
    shown = 0
    for phase in phases:
        for op, verdict in zip(phase.ops, phase.verdicts):
            if verdict is not None and shown < 5:
                print(f"# failed {op}: {verdict}")
                shown += 1


def report_modes(workload, phases: Sequence[Phase]) -> None:
    """Cost-mode shares of the timed reads, and the modes p50 and p90
    fall in (the reads within +-5% of rank around each)."""
    modes: List[str] = []
    reads: List[float] = []
    for phase in phases:
        modes += workloads.read_modes(workload, phase.ops)
        reads += [latency for op, latency in zip(phase.ops, phase.latencies)
                  if isinstance(op, Read)]
    if not reads:
        return
    total = len(reads)
    order = sorted(range(total), key=reads.__getitem__)
    for mode in sorted(set(modes)):
        ranks = [rank for rank, index in enumerate(order)
                 if modes[index] == mode]
        median = statistics.median(
            reads[index] for index in range(total) if modes[index] == mode)
        print(f"#   mode {mode:<28} share {len(ranks) / total:6.1%}  "
              f"median {median * 1e3:9.3f} ms  "
              f"ranks {ranks[0] / total:.3f}-{(ranks[-1] + 1) / total:.3f}")
    for q in (0.5, 0.9):
        window = [modes[order[rank]] for rank in
                  range(max(int(total * (q - 0.05)), 0),
                        min(math.ceil(total * (q + 0.05)), total))]
        shares = ", ".join(
            f"{mode} {window.count(mode) / len(window):.0%}"
            for mode in sorted(set(window))
        )
        print(f"#   p{round(q * 100)} window ranks {q - 0.05:.2f}-"
              f"{q + 0.05:.2f}: {shares}")


# ----------------------------------------------------------------------
# Untraced: the production server as its own process
# ----------------------------------------------------------------------

def untraced(workload, seconds: float) -> Tuple[dict, Dict[str, List[int]]]:
    """Start ``SERVERS_PER_RUN`` servers one after another; each is set
    up cold (timed as ``setup_s``) and then runs the schedule from its
    start for an equal share of ``seconds``.  Latencies pool over all
    of them, so one run averages several server processes (each with
    its own hash seed and memory layout)."""
    RUN_DIR.mkdir(exist_ok=True)
    db_path = RUN_DIR / f"{workload.name}-{workload.seed}-{os.getpid()}.json"
    db_path.write_text(workload.db_json())
    setup_requests = build_requests(workload, workloads.setup_reads(workload))
    timed_requests = build_requests(workload, workload.ops)
    probes = [harness.host_probe_ms()]
    setup_times: List[float] = []
    rss: List[float] = []
    servers: List[List[Phase]] = []
    try:
        for _ in range(SERVERS_PER_RUN):
            start = time.perf_counter()
            server = harness.ServerProcess(ROOT, db_path)
            connection = None
            try:
                connection = harness.Connection(server.port)
                setup, timed = drive(connection, workload, setup_requests,
                                     timed_requests, seconds / SERVERS_PER_RUN,
                                     on_setup=lambda: setup_times.append(
                                         time.perf_counter() - start))
                rss.append(server.tree_rss_mb())
                servers.append([setup, timed])
            finally:
                if connection is not None:
                    connection.close()
                server.stop()
    finally:
        db_path.unlink(missing_ok=True)
    probes.append(harness.host_probe_ms())
    check_servers(workload, servers)
    phases = [phase for server_phases in servers for phase in server_phases]
    timed = [server_phases[-1] for server_phases in servers]
    reads, writes = split_latencies(timed)
    table = counts(phases)
    print(f"# workload {workload.name} seed {workload.seed}: "
          f"{json.dumps(workload.size, sort_keys=True)}")
    print(f"# setup_s runs: {', '.join(f'{value:.3f}' for value in setup_times)}")
    p90 = percentile(reads, 0.9)
    print(f"# timed phase ({SERVERS_PER_RUN} servers): {len(reads)} reads, "
          f"{len(writes)} writes in {seconds:g} s; "
          f"{sum(value > p90 for value in reads)} reads beyond p90")
    for kind, (attempted, failed) in table.items():
        print(f"# {kind}s: attempted {attempted}, failed {failed}")
    print(f"# host.ref_loop_ms before {probes[0]:.2f} after {probes[1]:.2f}")
    if any(len(phase.ops) == len(workload.ops) for phase in timed):
        print("# warning: a server ran out of scheduled operations before "
              "the deadline; raise MAX_OPS_PER_S")
    report_modes(workload, timed)
    report_failures(phases)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "read_p50_ms": metric(percentile(reads, 0.5) * 1e3, "ms"),
        "read_p90_ms": metric(p90 * 1e3, "ms"),
        "write_p50_ms": metric(percentile(writes, 0.5) * 1e3, "ms"),
        "server_rss_mb": metric(statistics.median(rss), "MB"),
    }
    return metrics, table


# ----------------------------------------------------------------------
# Traced: in-process BackgroundServer, plain and with spans
# ----------------------------------------------------------------------

#: Pass order of a traced run: plain and traced passes mirrored, so a
#: drift across the run (allocator warm-up, host speed) cancels out of
#: trace.overhead_pct.
TRACE_PASSES = ("plain", "traced", "traced", "plain")


def traced(workload, seconds: float) -> Tuple[dict, Dict[str, List[int]]]:
    """The schedule through in-process servers, plain and with spans."""
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.pool import ServerPool, SessionConfig
    from repro.serve.server import BackgroundServer

    from perfbench import tracing

    setup_requests = build_requests(workload, workloads.setup_reads(workload))
    timed_requests = build_requests(workload, workload.ops)
    probes = [harness.host_probe_ms()]
    servers: List[List[Phase]] = []
    timed_of = {"plain": [], "traced": []}
    worker_pairs, front_pairs = [], []
    for mode in TRACE_PASSES:
        config = (tracing.TracedSessionConfig() if mode == "traced"
                  else SessionConfig())
        front = tracing.LayerTracer(MetricsRegistry())
        scrapes: List[dict] = []

        def between_phases(connection, mode=mode, front=front, scrapes=scrapes):
            scrapes.append(_scrape(connection))
            if mode == "traced":
                tracing.install_front_spans(front)

        pool = ServerPool(_database(workload), workers=1, config=config)
        with BackgroundServer(pool) as server:
            connection = harness.Connection(server.port)
            try:
                try:
                    setup, timed = drive(
                        connection, workload, setup_requests, timed_requests,
                        seconds / len(TRACE_PASSES),
                        on_setup=lambda: between_phases(connection))
                finally:
                    front.restore()
                scrapes.append(_scrape(connection))
            finally:
                connection.close()
        servers.append([setup, timed])
        timed_of[mode].append(timed)
        if mode == "traced":
            worker_pairs.append(tuple(scrapes))
            front_pairs.append(
                ({}, tracing.snapshot_samples(front.registry.snapshot())))
    probes.append(harness.host_probe_ms())
    check_servers(workload, servers)
    phases = [phase for pair in servers for phase in pair]
    table = counts(phases)
    layers = per_layer(workload, timed_of["traced"],
                       tracing.Scrape(worker_pairs), tracing.Scrape(front_pairs))
    plain_p50 = percentile(split_latencies(timed_of["plain"])[0], 0.5)
    traced_p50 = percentile(split_latencies(timed_of["traced"])[0], 0.5)
    layers["trace.overhead_pct"] = metric(
        (traced_p50 - plain_p50) / plain_p50 * 100.0, "%")
    layers["host.ref_loop_ms"] = metric(statistics.median(probes), "ms")
    for kind, (attempted, failed) in table.items():
        print(f"# {kind}s: attempted {attempted}, failed {failed}")
    print(f"# read_p50_ms plain {plain_p50 * 1e3:.3f} traced "
          f"{traced_p50 * 1e3:.3f}; host.ref_loop_ms before "
          f"{probes[0]:.2f} after {probes[1]:.2f}")
    report_failures(phases)
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"trace-{workload.name}-{workload.seed}.json").write_text(
        json.dumps(layers, indent=1, sort_keys=True)
    )
    return layers, table


def _database(workload):
    from repro.db.database import ProbabilisticDatabase

    db = ProbabilisticDatabase()
    for name, rows in workload.db.items():
        for row, probability in rows.items():
            db.add(name, row, probability)
    return db


def _scrape(connection) -> dict:
    from perfbench.tracing import parse_exposition

    status, body = connection.get("/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics returned {status}")
    return parse_exposition(body.decode("utf-8"))


#: Worker layers whose self time makes up a read, in report order.
WORKER_LAYERS = (
    "serve.session", "core.parser", "engines.router.plan",
    "engines.safe_plan", "engines.lifted", "lineage.grounding",
    "lineage.planner", "compile.canonicalize", "compile.build",
    "compile.failed", "compile.sweep", "engines.montecarlo",
)


def per_layer(workload, timed: Sequence[Phase], scrape, front
              ) -> Dict[str, dict]:
    """Every per-layer metric of the traced timed phases, plus the report.

    ``scrape`` holds the worker's families (before/after each timed
    phase), ``front`` the front-side spans.
    """
    from perfbench.tracing import SELF, TOTAL, CALLS

    pairs = [(op, latency) for phase in timed
             for op, latency in zip(phase.ops, phase.latencies)]
    reads = sum(isinstance(op, Read) for op, _latency in pairs)
    writes = len(pairs) - reads
    rtt = sum(latency for op, latency in pairs if isinstance(op, Read))
    write_rtt = sum(latency for op, latency in pairs if isinstance(op, Write))
    pool_read = front.total(TOTAL, layer="serve.pool.read")
    pool_write = front.total(TOTAL, layer="serve.pool.write")
    worker_request = scrape.delta(TOTAL, layer="worker.request")

    def per(total: float, base: float) -> float:
        return total / base if base else 0.0

    self_ms = {
        "serve.server": per(rtt - pool_read, reads) * 1e3,
        "serve.pool": per(pool_read - worker_request, reads) * 1e3,
    }
    for layer in WORKER_LAYERS:
        self_ms[layer] = per(scrape.delta(SELF, layer=layer), reads) * 1e3
    unattributed = per(rtt, reads) * 1e3 - sum(self_ms.values())
    write_ms = {
        "serve.server": per(write_rtt - pool_write, writes) * 1e3,
        "serve.pool": per(pool_write - front.total(TOTAL, layer="db.update"),
                          writes) * 1e3,
        "db.update": per(front.total(SELF, layer="db.update"), writes) * 1e3,
    }
    regrounds = scrape.delta(CALLS, layer="lineage.grounding")
    builds = scrape.delta(CALLS, layer="compile.build")
    failures = scrape.delta(CALLS, layer="compile.failed")
    planner_calls = scrape.delta(CALLS, layer="lineage.planner")
    plan_misses = scrape.delta("repro_grounding_plan_seconds_count")
    mc_seconds = scrape.delta(SELF, layer="engines.montecarlo")
    results = {
        path: scrape.delta("repro_session_results_total", path=path)
        for path in ("cached", "safe", "reweighted", "grounded", "fallback")
    }
    served = sum(results.values())
    batches = scrape.delta("repro_pool_batch_size_count")
    prepares = scrape.total(CALLS, layer="engines.router.plan")
    m = {
        "engines.safe_plan.ms_per_read": metric(self_ms["engines.safe_plan"], "ms"),
        "engines.lifted.ms_per_read": metric(self_ms["engines.lifted"], "ms"),
        "lineage.grounding.ms_per_reground": metric(
            per(scrape.delta(SELF, layer="lineage.grounding")
                + scrape.delta(SELF, layer="lineage.planner"), regrounds) * 1e3,
            "ms"),
        "lineage.grounding.candidates_per_reground": metric(
            per(scrape.delta("repro_grounding_candidates_total"), regrounds),
            "count"),
        "lineage.planner.cache_hit_ratio": metric(
            per(planner_calls - plan_misses, planner_calls), "ratio"),
        "compile.build_ms_per_reground": metric(
            per(scrape.delta(SELF, layer="compile.build")
                + scrape.delta(SELF, layer="compile.canonicalize"),
                regrounds) * 1e3, "ms"),
        "compile.failed_ms_per_reground": metric(
            per(scrape.delta(SELF, layer="compile.failed"), regrounds) * 1e3,
            "ms"),
        "compile.success_ratio": metric(per(builds, builds + failures), "ratio"),
        "compile.sweep_ms_per_read": metric(self_ms["compile.sweep"], "ms"),
        "engines.montecarlo.ms_per_read": metric(
            self_ms["engines.montecarlo"], "ms"),
        "engines.montecarlo.samples_per_s": metric(
            per(scrape.delta("repro_mc_samples_total"), mc_seconds), "1/s"),
        "serve.server.self_ms_per_read": metric(self_ms["serve.server"], "ms"),
        "serve.pool.self_ms_per_read": metric(self_ms["serve.pool"], "ms"),
        "serve.pool.queue_wait_ms_p50": metric(
            (scrape.histogram_quantile("repro_pool_queue_wait_seconds", 0.5)
             if batches else 0.0) * 1e3, "ms"),
        "serve.pool.batch_size_mean": metric(
            per(scrape.delta("repro_pool_batch_size_sum"), batches), "count"),
        "serve.session.self_ms_per_read": metric(self_ms["serve.session"], "ms"),
        "serve.session.result_hit_ratio": metric(
            per(results["cached"], served), "ratio"),
        "core.parser.ms_per_read": metric(self_ms["core.parser"], "ms"),
        "engines.router.plan_ms_per_prepare": metric(
            per(scrape.total(TOTAL, layer="engines.router.plan"), prepares)
            * 1e3, "ms"),
        "db.update_ms_per_write": metric(write_ms["db.update"], "ms"),
        "unattributed_ms_per_read": metric(unattributed, "ms"),
    }
    print(f"# workload {workload.name} seed {workload.seed}: traced timed "
          f"phase {reads} reads, {writes} writes; {regrounds:.0f} regrounds, "
          f"{builds:.0f} compiles, {failures:.0f} failed compiles")
    print(f"# self time per read (ms), mean {per(rtt, reads) * 1e3:.3f}:")
    for layer, value in sorted(self_ms.items(), key=lambda item: -item[1]):
        print(f"#   {layer:<24} {value:10.4f}")
    print(f"#   {'unattributed':<24} {unattributed:10.4f}")
    print(f"# self time per write (ms), mean {per(write_rtt, writes) * 1e3:.3f}:")
    for layer, value in write_ms.items():
        print(f"#   {layer:<24} {value:10.4f}")
    print(f"# session results by path: "
          + ", ".join(f"{path} {value:.0f}" for path, value in results.items()))
    report_modes(workload, timed)
    for name, entry in m.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    return m


def pin_to_one_cpu() -> None:
    """Run the client and (by inheritance) the server front and its
    worker on one CPU; this is part of the measured configuration.

    In a closed loop only one process is runnable at a time, so this
    costs no parallelism; on a shared two-vCPU host the wake-ups across
    CPUs were the largest source of run-to-run spread, and pinning only
    the client was both slower and no steadier (measurements in
    ``perfbench/design.json``, ``harness.cpu``).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # A terminated run still stops its server (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    harness.become_subreaper()
    pin_to_one_cpu()
    workload = workloads.build(
        args.workload, args.seed, toy=args.toy,
        max_ops=int(MAX_OPS_PER_S[args.workload] * max(args.seconds, 1.0)),
    )
    try:
        if args.trace:
            metrics, table = traced(workload, args.seconds)
        else:
            metrics, table = untraced(workload, args.seconds)
    finally:
        # No process this run started outlives it.
        harness.reap_children()
    attempted = sum(entry[0] for entry in table.values())
    failed = sum(entry[1] for entry in table.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
