"""Seeded inputs for the serving benchmark: databases, query shapes, schedules.

Every workload is a pure function of ``(name, seed, toy)``.  The
benchmark writes the database to a JSON file for the server and turns
the schedule into HTTP requests; the server sees nothing else.  Each
query shape also carries a structured form (atoms, ``<`` selections,
head) so the answer checker can ground it on its own, without the
program's parser or grounder.

Tuple probabilities stay inside (0, 1) except for the hard-drift
reserve tuples, which move between absent / 0 and an interior value;
those moves are the structural writes that force re-grounding.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

Row = Tuple[int, ...]
#: One sub-goal: relation name and terms (a ``str`` is a variable, an
#: ``int`` a constant).
Atom = Tuple[str, Tuple[object, ...]]
#: One selection ``var < bound``.
Less = Tuple[str, int]

WORKLOADS = ("safe-drift", "hard-drift", "warm-http")


@dataclass(frozen=True)
class Body:
    atoms: Tuple[Atom, ...]
    less: Tuple[Less, ...] = ()


@dataclass(frozen=True)
class Shape:
    """One query shape as sent over HTTP plus its structured form."""

    text: str
    #: ``/evaluate`` (Boolean) or ``/answers`` (ranked answer tuples).
    route: str
    bodies: Tuple[Body, ...]
    #: Head variables of an answers query; empty for Boolean queries.
    head: Tuple[str, ...]
    #: Cost-mode label of a read of this shape (before any re-ground).
    mode: str
    #: False when the server answers this shape by Monte Carlo, so the
    #: checker compares with :data:`MC_TOLERANCE` instead of
    #: :data:`EXACT_TOLERANCE`.
    exact: bool = True

    @property
    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted({name for body in self.bodies
                             for name, _terms in body.atoms}))


@dataclass(frozen=True)
class Read:
    shape: int


@dataclass(frozen=True)
class Write:
    relation: str
    row: Row
    probability: float
    #: ``reweight`` (probability-only), ``insert`` or ``retract`` (to 0).
    kind: str = "reweight"

    @property
    def structural(self) -> bool:
        return self.kind != "reweight"


Op = Union[Read, Write]


@dataclass
class Workload:
    name: str
    seed: int
    db: Dict[str, Dict[Row, float]]
    shapes: List[Shape]
    #: Timed-phase operations, long enough for the run; a run consumes
    #: a prefix of it.
    ops: List[Op]
    #: Stated input size, recorded beside the results.
    size: Dict[str, object] = field(default_factory=dict)

    def db_json(self) -> str:
        """The database in the list format of ``repro.db.io``."""
        return json.dumps({
            name: [[list(row), p] for row, p in sorted(rows.items())]
            for name, rows in sorted(self.db.items())
        })


#: Exact tiers must agree with the reference within this (absolute).
EXACT_TOLERANCE = 1e-9
#: Monte Carlo reads (20k Karp-Luby samples, the server default) must
#: land within this absolute distance of the exact value: about 7.5
#: standard deviations of the hard-drift estimate (median error 0.005,
#: largest 0.031 over 554 reads).  Stated in BENCHMARK.json's hard-drift
#: line.
MC_TOLERANCE = 0.06


def build(name: str, seed: int, *, toy: bool = False,
          max_ops: int = 50_000) -> Workload:
    """The workload ``name`` for ``seed``; ``toy`` shrinks every size.

    Which tuples exist is a fixed function of the workload and its size
    (drawn from ``shape_rng``), so every seed costs the same to serve:
    the seed draws the probabilities and the operation schedule.
    Otherwise the spread between seeds would measure the instances, not
    the program; the #P-hard shapes' circuit sizes alone vary by 3x
    between random instances of one size.
    """
    shape_rng = random.Random(f"{name}/structure")
    rng = random.Random(f"{name}/{seed}")
    if name == "safe-drift":
        return _safe_drift(shape_rng, rng, seed, toy, max_ops)
    if name == "hard-drift":
        return _hard_drift(shape_rng, rng, seed, toy, max_ops)
    if name == "warm-http":
        return _warm_http(shape_rng, rng, seed, toy, max_ops)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _p(rng: random.Random, low: float, high: float) -> float:
    # Rounded so the JSON file and the HTTP bodies carry exactly the
    # value the checker's shadow copy holds.
    return round(rng.uniform(low, high), 6)


def _safe_drift(shape_rng, rng, seed, toy, max_ops) -> Workload:
    keys = 12 if toy else 50
    fanout = 5
    r_range, s_range = (0.005, 0.03), (0.05, 0.3)
    db: Dict[str, Dict[Row, float]] = {"R": {}, "S": {}}
    for x in range(keys):
        db["R"][(x,)] = _p(rng, *r_range)
        for y in shape_rng.sample(range(keys), fanout):
            db["S"][(x, y)] = _p(rng, *s_range)
    rs = (("R", ("x",)), ("S", ("x", "y")))
    shapes = [
        Shape("R(x), S(x,y)", "/evaluate", (Body(rs),), (), "safe-cq"),
        Shape("Q(x) :- R(x), S(x,y)", "/answers", (Body(rs),), ("x",),
              "safe-answers"),
        Shape("R(x), S(x,y) | S(x,x)", "/evaluate",
              (Body(rs), Body((("S", ("x", "x")),))), (), "lifted-ucq"),
    ]
    tuples = [("R", row) for row in db["R"]] + [("S", row) for row in db["S"]]
    ops: List[Op] = []
    while len(ops) < max_ops:
        for index in range(len(shapes)):
            relation, row = rng.choice(tuples)
            ops.append(Write(relation, row,
                             _p(rng, *(r_range if relation == "R" else s_range))))
            ops.append(Read(index))
    size = {
        "tuples": {"R": len(db["R"]), "S": len(db["S"])},
        "keys": keys, "fanout": fanout, "shapes": len(shapes),
        "read_share": 0.5, "write_share": 0.5, "insert_share": 0.0,
    }
    return Workload("safe-drift", seed, db, shapes, ops[:max_ops], size)


#: Hard-drift: one structural write (insert / retract of a reserve
#: ``S`` tuple) per this many writes.
TOGGLE_EVERY = 60


def _hard_drift(shape_rng, rng, seed, toy, max_ops) -> Workload:
    block, blocks, slice_, groups, reserve = (
        (5, 3, 3, 3, 3) if toy else (8, 6, 4, 5, 5)
    )
    density = 0.5
    prange = (0.05, 0.4)
    db: Dict[str, Dict[Row, float]] = {"R": {}, "S": {}, "T": {}, "G": {}}
    for x in range(block * blocks):
        db["R"][(x,)] = _p(rng, *prange)
        db["T"][(x,)] = _p(rng, *prange)
    absent: List[Row] = []
    # S is block-diagonal: the full query's lineage is a union of
    # independent blocks (too big for the 10k-node compile budget
    # together), while the x < slice_ selection stays inside block 0.
    for b in range(blocks):
        for x in range(b * block, (b + 1) * block):
            for y in range(b * block, (b + 1) * block):
                if shape_rng.random() < density:
                    db["S"][(x, y)] = _p(rng, *prange)
                elif x < slice_:
                    absent.append((x, y))
    pool = shape_rng.sample(absent, reserve)
    for u in range(groups):
        for x in shape_rng.sample(range(slice_), 2):
            db["G"][(u, x)] = _p(rng, 0.3, 0.9)
    body_a = Body(
        (("G", ("u", "x")), ("R", ("x",)), ("S", ("x", "y")), ("T", ("y",))),
        (("x", slice_),),
    )
    body_b = Body((("R", ("x",)), ("S", ("x", "y")), ("T", ("y",))))
    a_text = f"G(u,x), R(x), S(x,y), T(y), x < {slice_}"
    shapes = [
        Shape(a_text, "/evaluate", (body_a,), (), "compiled"),
        Shape(f"Q(u) :- {a_text}", "/answers", (body_a,), ("u",),
              "compiled-answers"),
        Shape("R(x), S(x,y), T(y)", "/evaluate", (body_b,), (),
              "monte-carlo", exact=False),
    ]
    base = ([("R", row) for row in db["R"]] + [("T", row) for row in db["T"]]
            + [("S", row) for row in db["S"]])
    on = {row: False for row in pool}
    ops: List[Op] = []
    writes = 0
    while len(ops) < max_ops:
        for index in range(len(shapes)):
            writes += 1
            if writes % TOGGLE_EVERY == 0:
                # Toggle along a Gray code: every structural write leads
                # to a reserve subset not seen for 2**reserve - 1 toggles,
                # in the same order for every seed.
                toggle = (writes // TOGGLE_EVERY - 1) % (2 ** reserve - 1) + 1
                row = pool[(toggle & -toggle).bit_length() - 1]
                if on[row]:
                    ops.append(Write("S", row, 0.0, "retract"))
                else:
                    ops.append(Write("S", row, _p(rng, *prange), "insert"))
                on[row] = not on[row]
            else:
                relation, row = rng.choice(base)
                ops.append(Write(relation, row, _p(rng, *prange)))
            ops.append(Read(index))
    size = {
        "tuples": {name: len(rows) for name, rows in sorted(db.items())},
        "blocks": blocks, "block_size": block, "density": density,
        "slice": f"x < {slice_}", "reserve_S_tuples": reserve,
        "shapes": len(shapes), "read_share": 0.5, "write_share": 0.5,
        "insert_share": round(1 / TOGGLE_EVERY, 4),
    }
    return Workload("hard-drift", seed, db, shapes, ops[:max_ops], size)


def _warm_http(shape_rng, rng, seed, toy, max_ops) -> Workload:
    keys = 10 if toy else 80
    fanout = 3
    prange = (0.1, 0.9)
    db: Dict[str, Dict[Row, float]] = {"R": {}, "S": {}, "T": {}, "U": {}}
    for x in range(keys):
        db["R"][(x,)] = _p(rng, *prange)
        db["T"][(x,)] = _p(rng, *prange)
        db["U"][(x,)] = _p(rng, *prange)
        for y in shape_rng.sample(range(keys), fanout):
            db["S"][(x, y)] = _p(rng, *prange)
    shapes: List[Shape] = []
    for c in range(keys):
        shapes.append(Shape(
            f"R({c}), S({c},y)", "/evaluate",
            (Body((("R", (c,)), ("S", (c, "y")))),), (), "hit-boolean"))
        shapes.append(Shape(
            f"Q(y) :- S({c},y), T(y)", "/answers",
            (Body((("S", (c, "y")), ("T", ("y",)))),), ("y",), "hit-answers"))
    # U is mentioned by no shape: writes go through the broadcast path
    # and invalidate nothing.
    u_rows = list(db["U"])
    ops: List[Op] = []
    order = list(range(len(shapes)))
    while len(ops) < max_ops:
        rng.shuffle(order)
        for position, index in enumerate(order):
            if position % 4 == 0:
                ops.append(Write("U", rng.choice(u_rows), _p(rng, *prange)))
            ops.append(Read(index))
    size = {
        "tuples": {name: len(rows) for name, rows in sorted(db.items())},
        "shapes": len(shapes), "read_share": 0.8, "write_share": 0.2,
        "insert_share": 0.0,
    }
    return Workload("warm-http", seed, db, shapes, ops[:max_ops], size)


def read_modes(workload: Workload, ops: Sequence[Op]) -> List[str]:
    """Cost-mode label of every read in ``ops``, in order.

    A read is a re-ground read when a structural write touched one of
    its shape's relations since that shape was last read.
    """
    dirty = [False] * len(workload.shapes)
    modes: List[str] = []
    for op in ops:
        if isinstance(op, Write):
            if op.structural:
                for index, shape in enumerate(workload.shapes):
                    if op.relation in shape.relations:
                        dirty[index] = True
            continue
        shape = workload.shapes[op.shape]
        modes.append(shape.mode + ("+reground" if dirty[op.shape] else ""))
        dirty[op.shape] = False
    return modes


def request_body(workload: Workload, op: Op) -> Tuple[str, bytes]:
    """The HTTP route and JSON body of one operation."""
    if isinstance(op, Write):
        return "/update", json.dumps({
            "relation": op.relation, "row": list(op.row),
            "probability": op.probability,
        }).encode()
    shape = workload.shapes[op.shape]
    return shape.route, json.dumps({"query": shape.text}).encode()


def setup_reads(workload: Workload) -> List[Read]:
    """One read of every shape: the cold phase timed by ``setup_s``."""
    return [Read(index) for index in range(len(workload.shapes))]
