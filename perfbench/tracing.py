"""Layer spans installed from outside the program, and /metrics scraping.

:class:`LayerTracer` wraps public calls into each layer.  Every wrapper
pushes a frame on a per-thread stack, so a layer's *self* time is its
duration minus the time of the wrapped calls it made.  Per-layer sums
(self seconds, total seconds, calls) are kept in a
:class:`repro.obs.MetricsRegistry`: in a worker process that is the
session's own registry, so the sums leave the worker through the
server's ``GET /metrics`` like every other family.

:class:`TracedSessionConfig` is the picklable recipe a traced
``ServerPool`` hands its worker: it installs the worker-side wrappers
(once per process) before building the session.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.serve.pool import SessionConfig

SELF = "perfbench_layer_self_seconds_total"
TOTAL = "perfbench_layer_seconds_total"
CALLS = "perfbench_layer_calls_total"

#: Worker ops that are reads; other ops (metrics, stats) are not timed.
_READ_OPS = frozenset({"evaluate_many", "answers_many"})


class LayerTracer:
    """Per-thread span stacks feeding per-layer sums in a registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._self = registry.counter(SELF, "Layer self time", ("layer",))
        self._total = registry.counter(TOTAL, "Layer time", ("layer",))
        self._calls = registry.counter(CALLS, "Layer calls", ("layer",))
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, func: Callable,
             name_of: Optional[Callable[[bool, tuple], Optional[str]]] = None
             ) -> Callable:
        """``func`` timed as ``layer``; ``name_of(failed, args)`` may
        rename the span (or return None to leave the call untimed)."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                name = layer if name_of is None else name_of(failed, args)
                if name is None:
                    # Untimed: hand the whole interval to the parent's
                    # children so it is not counted twice.
                    if stack:
                        stack[-1][0] += frame[0]
                else:
                    if stack:
                        stack[-1][0] += elapsed
                    tracer._self.labels(name).inc(elapsed - frame[0])
                    tracer._total.labels(name).inc(elapsed)
                    tracer._calls.labels(name).inc()

        return traced

    def patch(self, owner, attribute: str, layer: str, name_of=None) -> None:
        original = getattr(owner, attribute)
        # Remember what the owner itself held: restoring an inherited
        # method means deleting the wrapper again.
        self._undo.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, self.wrap(layer, original, name_of))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def install_worker_spans(tracer: LayerTracer) -> None:
    """Wrap the calls a worker makes into each layer."""
    from repro.db.database import ProbabilisticDatabase
    from repro.engines.compiled import CompiledEngine
    from repro.engines.lifted import LiftedEngine
    from repro.engines.montecarlo import MonteCarloEngine
    from repro.engines.router import RouterEngine
    from repro.engines.safe_plan import SafePlanEngine
    from repro.lineage.planner import GroundingPlanner
    from repro.serve import pool, session

    tracer.patch(pool, "_worker_execute", "worker.request",
                 lambda _failed, args: "worker.request"
                 if args[1] in _READ_OPS else None)
    for method in ("evaluate_many", "answers_many"):
        tracer.patch(session.QuerySession, method, "serve.session")
    # The session's call sites, looked up as module globals.
    tracer.patch(session, "parse", "core.parser")
    tracer.patch(session, "canonical_string", "core.parser")
    tracer.patch(session, "ground_lineage", "lineage.grounding")
    tracer.patch(session, "ground_answer_lineages", "lineage.grounding")
    tracer.patch(session, "canonicalize_lineage", "compile.canonicalize")
    tracer.patch(session, "reweighted_probabilities", "compile.sweep")
    for method in ("probability", "answers"):
        tracer.patch(SafePlanEngine, method, "engines.safe_plan")
        tracer.patch(LiftedEngine, method, "engines.lifted")
    tracer.patch(CompiledEngine, "compile_lineage", "compile.build",
                 lambda failed, _args: "compile.failed" if failed
                 else "compile.build")
    for method in ("estimate_lineage", "answers_from_lineages"):
        tracer.patch(MonteCarloEngine, method, "engines.montecarlo")
    tracer.patch(RouterEngine, "plan_query", "engines.router.plan")
    tracer.patch(GroundingPlanner, "plan_clause", "lineage.planner")
    tracer.patch(ProbabilisticDatabase, "add", "db.update.replica")


def install_front_spans(tracer: LayerTracer) -> None:
    """Wrap the HTTP front's calls into the pool and its database copy."""
    from repro.db.database import ProbabilisticDatabase
    from repro.serve.pool import ServerPool

    tracer.patch(ServerPool, "evaluate", "serve.pool.read")
    tracer.patch(ServerPool, "answers", "serve.pool.read")
    tracer.patch(ServerPool, "update", "serve.pool.write")
    tracer.patch(ProbabilisticDatabase, "add", "db.update")


#: The worker's tracer, one per process (build_session runs again on a
#: re-sync; the wrappers must not stack).
_WORKER_TRACER: Optional[LayerTracer] = None


@dataclass(frozen=True)
class TracedSessionConfig(SessionConfig):
    """A :class:`SessionConfig` whose sessions run under layer spans."""

    def build_session(self, db, metrics=None):
        global _WORKER_TRACER
        session = super().build_session(db, metrics)
        if _WORKER_TRACER is None:
            _WORKER_TRACER = LayerTracer(session.metrics)
            install_worker_spans(_WORKER_TRACER)
        return session


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

Sample = Tuple[str, Tuple[Tuple[str, str], ...]]


def parse_exposition(text: str) -> Dict[Sample, float]:
    """``{(name, sorted label pairs): value}`` for every sample line."""
    samples: Dict[Sample, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


def snapshot_samples(snapshot: dict) -> Dict[Sample, float]:
    """The counter and gauge samples of a registry snapshot, keyed like
    :func:`parse_exposition` (for the front's in-process tracer)."""
    return {
        (name, tuple(sorted(zip(family["labels"], key)))): value
        for name, family in snapshot.items() if family["kind"] != "histogram"
        for key, value in family["values"].items()
    }


class Scrape:
    """Changes between ``/metrics`` scrapes taken before and after timed
    phases, summed over the ``(before, after)`` pairs (one per server)."""

    def __init__(self, pairs: Iterable[Tuple[Dict[Sample, float],
                                             Dict[Sample, float]]]) -> None:
        self.pairs = list(pairs)

    def delta(self, name: str, **labels: str) -> float:
        """Change of every sample of ``name`` whose labels include
        ``labels``, summed."""
        return sum(
            value - before.get(key, 0.0)
            for before, after in self.pairs
            for key, value in after.items()
            if key[0] == name and _matches(key[1], labels)
        )

    def total(self, name: str, **labels: str) -> float:
        """Like :meth:`delta`, from each server's start."""
        return sum(value for _before, after in self.pairs
                   for key, value in after.items()
                   if key[0] == name and _matches(key[1], labels))

    def histogram_quantile(self, name: str, q: float) -> float:
        """Interpolated quantile of a histogram's timed-phase samples."""
        from repro.obs.metrics import quantile_from_buckets

        cumulative: Dict[float, float] = {}
        for before, after in self.pairs:
            for key, value in after.items():
                bound = dict(key[1]).get("le")
                if key[0] == f"{name}_bucket" and bound != "+Inf":
                    cumulative[float(bound)] = (
                        cumulative.get(float(bound), 0.0)
                        + value - before.get(key, 0.0)
                    )
        bounds = sorted(cumulative)
        counts, previous = [], 0.0
        for bound in bounds:
            counts.append(cumulative[bound] - previous)
            previous = cumulative[bound]
        counts.append(self.delta(f"{name}_count") - previous)
        return quantile_from_buckets(counts, bounds, q)


def _matches(pairs: Iterable[Tuple[str, str]], wanted: Dict[str, str]) -> bool:
    present = dict(pairs)
    return all(present.get(name) == value for name, value in wanted.items())
