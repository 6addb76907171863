"""Exact reference answers for a recorded run, computed after the run.

The checker keeps a shadow copy of the database, replays the recorded
operations in order, and for every read grounds the shape itself (a
nested-loop join over the structured form in :mod:`workloads`, not the
program's grounder).  Each lineage is split into independent components
(tuples are independent, so ``p = 1 - prod(1 - p_c)``), every component
is compiled to a d-DNNF with no node budget, and all weight rows that
land on one circuit are swept in one batch at the end.  The d-DNNF
compiler is not the path the server takes for these shapes: safe shapes
run the extensional plan, and #P-hard shapes that fit the budget get an
OBDD first.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.workloads import (
    EXACT_TOLERANCE,
    MC_TOLERANCE,
    Body,
    Read,
    Shape,
    Workload,
    Write,
)

#: Names the server uses (``repro`` is importable once run.py has put
#: the checkout's ``src`` first on ``sys.path``).
from repro.compile.evaluate import reweighted_probabilities
from repro.engines.compiled import CompiledEngine, canonicalize_lineage
from repro.lineage.boolean import Lineage

Key = Tuple[str, Tuple[int, ...]]


def ground(shape: Shape, db: Dict[str, Dict[tuple, float]]
           ) -> Dict[tuple, frozenset]:
    """Answer tuple -> DNF clauses (frozensets of tuple keys).

    Tuples at probability 0 are absent.  A Boolean shape has the single
    answer ``()``; an answer without matches does not appear.
    """
    out: Dict[tuple, set] = {}
    for body in shape.bodies:
        for binding, clause in _matches(body, db):
            answer = tuple(binding[var] for var in shape.head)
            out.setdefault(answer, set()).add(frozenset(clause))
    return {answer: frozenset(clauses) for answer, clauses in out.items()}


def _matches(body: Body, db):
    def extend(index, binding, clause):
        if index == len(body.atoms):
            if all(binding[var] < bound for var, bound in body.less):
                yield binding, clause
            return
        relation, terms = body.atoms[index]
        for row, p in db.get(relation, {}).items():
            if p <= 0 or len(row) != len(terms):
                continue
            new = dict(binding)
            for term, value in zip(terms, row):
                if isinstance(term, str):
                    if new.setdefault(term, value) != value:
                        break
                elif term != value:
                    break
            else:
                yield from extend(index + 1, new,
                                  clause + [(relation, row)])

    yield from extend(0, {}, [])


def components(clauses: frozenset) -> List[frozenset]:
    """Split a DNF into groups of clauses that share no tuple."""
    parent: Dict[Key, Key] = {}

    def find(key):
        while parent.setdefault(key, key) != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for clause in clauses:
        first, *rest = clause
        for key in rest:
            parent[find(key)] = find(first)
    groups: Dict[Key, set] = {}
    for clause in clauses:
        groups.setdefault(find(next(iter(clause))), set()).add(clause)
    return [frozenset(group) for group in groups.values()]


class ReferenceChecker:
    """Replays a run on a shadow database and checks each read's reply."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.db = {name: dict(rows) for name, rows in workload.db.items()}
        self.engine = CompiledEngine(mode="dnnf", max_nodes=None)
        self._version = {name: 0 for name in self.db}
        self._structure = {name: 0 for name in self.db}
        # (shape, structure) -> {answer: [(artifact, events, sources), ...]}
        self._compiled: Dict[tuple, dict] = {}
        # (shape, version) -> index into self._slots (dedup of reads
        # that see the same database state, e.g. every warm hit).
        self._state_slot: Dict[tuple, int] = {}
        # Per distinct state: {answer: [component value, ...]}.
        self._slots: List[dict] = []
        self._batches: Dict[int, list] = {}
        self._reads: List[int] = []  # the slot of each registered read

    def apply(self, op: Write) -> None:
        rows = self.db.setdefault(op.relation, {})
        previous = rows.get(op.row, 0.0)
        if previous == op.probability:
            return
        rows[op.row] = op.probability
        self._version[op.relation] = self._version.get(op.relation, 0) + 1
        if not (0 < previous < 1 and 0 < op.probability < 1):
            self._structure[op.relation] = (
                self._structure.get(op.relation, 0) + 1
            )

    def read(self, op: Read) -> None:
        """Register one read at the current shadow state."""
        shape = self.workload.shapes[op.shape]
        state = (op.shape,) + tuple(
            self._version.get(name, 0) for name in shape.relations
        )
        slot = self._state_slot.get(state)
        if slot is None:
            slot = self._state_slot[state] = len(self._slots)
            per_answer: dict = {}
            for answer, parts in self._circuits(op.shape, shape).items():
                cells = []
                for artifact, events, sources in parts:
                    row = [self._probability(key) for key in sources]
                    batch = self._batches.setdefault(
                        id(artifact), [artifact, events, [], []]
                    )
                    batch[2].append(row)
                    batch[3].append((slot, answer, len(cells)))
                    cells.append(None)
                per_answer[answer] = cells
            self._slots.append(per_answer)
        self._reads.append(slot)

    def _probability(self, key: Key) -> float:
        return float(self.db.get(key[0], {}).get(key[1], 0.0))

    def _circuits(self, index: int, shape: Shape) -> dict:
        structure = (index,) + tuple(
            self._structure.get(name, 0) for name in shape.relations
        )
        cached = self._compiled.get(structure)
        if cached is not None:
            return cached
        circuits: dict = {}
        for answer, clauses in ground(shape, self.db).items():
            parts = []
            for component in components(clauses):
                keys = {key for clause in component for key in clause}
                lineage = Lineage(
                    frozenset(frozenset((key, True) for key in clause)
                              for clause in component),
                    {key: self._probability(key) for key in keys},
                )
                canonical, weights, renaming = canonicalize_lineage(lineage)
                artifact = self.engine.compile_lineage(canonical)
                events = sorted(weights)
                inverse = {new: old for old, new in renaming.items()}
                parts.append((artifact, events,
                              [inverse[event] for event in events]))
            circuits[answer] = parts
        self._compiled[structure] = circuits
        return circuits

    def values(self) -> List[Dict[tuple, float]]:
        """Sweep every batch; the exact answers of each registered read."""
        for artifact, events, rows, cells in self._batches.values():
            for value, (slot, answer, position) in zip(
                reweighted_probabilities(artifact, events, rows), cells
            ):
                self._slots[slot][answer][position] = value
        self._batches.clear()
        exact: List[Dict[tuple, float]] = []
        cache: Dict[int, Dict[tuple, float]] = {}
        for slot in self._reads:
            answers = cache.get(slot)
            if answers is None:
                answers = {}
                for answer, cells in self._slots[slot].items():
                    miss = 1.0
                    for value in cells:
                        miss *= 1.0 - value
                    answers[answer] = 1.0 - miss
                cache[slot] = answers
            exact.append(answers)
        return exact


def compare(shape: Shape, status: int, body: bytes,
            exact: Dict[tuple, float],
            deviations: Optional[List[float]] = None) -> Optional[str]:
    """None when the reply matches the exact answers, else the reason.

    For a Monte Carlo shape the largest ``|estimate - exact|`` of the
    reply is appended to ``deviations`` (when given).
    """
    if status != 200:
        return f"HTTP {status}"
    tolerance = EXACT_TOLERANCE if shape.exact else MC_TOLERANCE
    try:
        reply = json.loads(body)
        if shape.route == "/evaluate":
            got = {(): float(reply["probability"])}
            exact = exact or {(): 0.0}
        else:
            got = {tuple(item["answer"]): float(item["probability"])
                   for item in reply["answers"]}
            ranked = [float(item["probability"]) for item in reply["answers"]]
            if any(a < b for a, b in zip(ranked, ranked[1:])):
                return "answers are not ranked by probability"
    except (ValueError, KeyError, TypeError) as error:
        return f"malformed reply: {error}"
    if set(got) != set(exact):
        return (f"answer sets differ: {len(got)} returned, "
                f"{len(exact)} expected")
    if deviations is not None and not shape.exact and got:
        deviations.append(max(abs(value - exact[answer])
                              for answer, value in got.items()))
    for answer, value in got.items():
        if abs(value - exact[answer]) > tolerance:
            return (f"answer {list(answer)}: {value!r} vs exact "
                    f"{exact[answer]!r} (tolerance {tolerance})")
    return None


def check(workload: Workload, ops: Sequence, replies: Sequence,
          deviations: Optional[List[float]] = None) -> List[Optional[str]]:
    """Replay ``ops`` (reads and writes, in order) and check each reply.

    ``replies[i]`` is ``(status, body)`` for ``ops[i]``.  Returns one
    entry per op: None when correct, else the failure reason.  Writes
    fail only on a non-200 status.  ``deviations`` collects the Monte
    Carlo reads' distances from the exact answers.
    """
    checker = ReferenceChecker(workload)
    reads: List[int] = []
    for index, op in enumerate(ops):
        if isinstance(op, Write):
            checker.apply(op)
        else:
            checker.read(op)
            reads.append(index)
    verdicts: List[Optional[str]] = [None] * len(ops)
    for index, op in enumerate(ops):
        if isinstance(op, Write) and replies[index][0] != 200:
            verdicts[index] = f"HTTP {replies[index][0]}"
    for index, exact in zip(reads, checker.values()):
        status, body = replies[index]
        verdicts[index] = compare(
            workload.shapes[ops[index].shape], status, body, exact, deviations
        )
    return verdicts
