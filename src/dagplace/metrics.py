"""Embedding evaluation: cost, idealized delay, and contention-aware delay.

The cost of an embedding is the sum of all processing terms plus, for every
computation edge, its weight times the shortest-path distance between the
images of its endpoints.  The idealized delay propagates completion times
through the DAG taking the max over in-edges.  The contention-aware delay
re-plays the same routed paths through a discrete-event simulation in which
each link transmits one intermediate result at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    ComputationGraph,
    DistanceMatrix,
    NetworkGraph,
    _walk,
    extract_paths,
    pinned_images,
)


@dataclass(frozen=True)
class Embedding:
    """Total map from computation vertices to network nodes.

    ``assignment[w]`` is the network node hosting computation vertex w.
    Sources are pinned to their network sources and the sink to the network
    sink.
    """

    assignment: tuple[int, ...]

    def __getitem__(self, w: int) -> int:
        return self.assignment[w]


@dataclass(frozen=True)
class DelayReport:
    per_vertex: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class LinkUse:
    edge: int  # computation edge index
    tail: int  # network node the data left
    head: int  # network node the data reached
    arrival: float
    departure: float


@dataclass(frozen=True)
class LinkSchedule:
    """Per-link transmission log of the contention simulation, in service order."""

    uses: dict[tuple[int, int], tuple[LinkUse, ...]]  # key (min(u,v), max(u,v))


def validate_embedding(cg: ComputationGraph, net: NetworkGraph, e: Embedding) -> None:
    if len(e.assignment) != cg.p:
        raise ValidationError("embedding must assign every computation vertex")
    for v in e.assignment:
        if not 0 <= v < net.n:
            raise ValidationError(f"embedding target {v} outside the network")
    pinned = pinned_images(cg, net)
    for s in cg.sources:
        if e.assignment[s] != pinned[s]:
            raise ValidationError(f"source {s} must map to network source {pinned[s]}")
    if e.assignment[cg.sink] != pinned[cg.sink]:
        raise ValidationError("sink must map to the network sink")


def _cost(cg: ComputationGraph, d: np.ndarray, asg):
    """Cost of ``asg``: one embedding's images, or a block's rows of images
    (row w the images of vertex w, one column per embedding)."""
    total = 0.0
    for w in range(cg.p):
        total += cg.processing[w, asg[w]]
    for a, b, lam in cg.edges:
        total += lam * d[asg[a], asg[b]]
    return total


def embedding_cost(cg: ComputationGraph, dm: DistanceMatrix, e: Embedding) -> float:
    """Total processing plus weighted shortest-path communication cost."""
    return float(_cost(cg, dm.dist, e.assignment))


def _larger(a, b):
    """``np.maximum`` of two scalars: a NaN on either side wins, and of two
    equal values (+0.0 and -0.0) the second.  Python's ``max`` would drop a
    NaN that comes second."""
    return a if a > b or a != a else b


def _finish_times(cg: ComputationGraph, d: np.ndarray, asg, larger) -> list:
    """Completion time of every vertex under ``asg``, an assignment as in
    ``_cost``; ``larger`` is ``_larger`` for one embedding, ``np.maximum`` for
    a block, so both propagate a NaN arrival alike."""
    ine = cg.in_edges()
    done = [0.0] * cg.p
    for w in cg.topological_order():
        arrive = 0.0
        for a, lam in ine[w]:
            arrive = larger(arrive, done[a] + lam * d[asg[a], asg[w]])
        done[w] = arrive + cg.processing[w, asg[w]]
    return done


def embedding_delay(cg: ComputationGraph, dm: DistanceMatrix, e: Embedding) -> DelayReport:
    """Critical-path delay assuming links never queue.

    Completion of a vertex is the max over its in-edges of the tail's completion
    plus the edge's transmission time, plus the vertex's own processing time.
    A vertex without in-edges starts at time zero, so a source, which has
    none and a zero processing row (``build_computation``), completes at zero.
    """
    done = tuple(map(float, _finish_times(cg, dm.dist, e.assignment, _larger)))
    return DelayReport(per_vertex=done, total=done[cg.sink])


def _check_total(value: float, expected: float, what: str) -> None:
    """Self-check of a solver's reported value against its own optimum; an
    explicit raise survives ``python -O``.  Equal values pass, two infinities
    of one sign among them, and a NaN optimum is no mismatch."""
    if (value != expected and expected == expected
            and not abs(value - expected) < 1e-9 * max(1.0, abs(expected))):
        raise RuntimeError(f"embedding value {value!r} differs from the {what} {expected!r}")


def route_edges(cg: ComputationGraph, dm: DistanceMatrix, e: Embedding):
    """Shortest routed path (node sequence) for each computation edge."""
    asg = e.assignment
    return extract_paths(dm, [(asg[a], asg[b]) for a, b, _ in cg.edges])


def max_link_usage(cg: ComputationGraph, dm: DistanceMatrix, e: Embedding) -> int:
    """Largest number of computation edges whose routed path crosses one link."""
    asg = e.assignment
    walk = _walk(dm, [(asg[a], asg[b]) for a, b, _ in cg.edges])
    moved = walk[1:] != walk[:-1]
    tails, heads = walk[:-1][moved], walk[1:][moved]
    keys = np.minimum(tails, heads) * dm.n + np.maximum(tails, heads)
    return int(np.bincount(keys, minlength=1).max())


_FINISH, _ARRIVE = 0, 1


def capacity_aware_delay(
    cg: ComputationGraph,
    net: NetworkGraph,
    dm: DistanceMatrix,
    e: Embedding,
    *,
    per_direction: bool = False,
) -> tuple[DelayReport, LinkSchedule]:
    """Delay when every link carries one intermediate result at a time.

    Each computation edge is routed along its shortest path and crosses its
    links in turn, queueing at a busy link.  By default the two directions of
    a link share one queue; ``per_direction`` gives each direction its own.
    A vertex without inputs fires at 0.0 plus its processing time, as in
    ``embedding_delay``, so a source, whose processing row is zero
    (``build_computation``, which admits -0.0), fires at +0.0; any
    other vertex fires once the data of all its incoming edges has fully
    arrived, after its processing time.

    Ties follow one exact rule.  Events run in (time, finishes before
    arrivals, link, edge) order, so a link freed at time t takes an edge that
    arrives at t, and each link serves its waiting edges by (arrival time,
    computation-edge index).
    """
    paths = route_edges(cg, dm, e)
    weight = {(u, v): w for u, v, w in net.edges}

    def link_key(a: int, b: int):
        base = (min(a, b), max(a, b))
        return base + ((0 if a < b else 1,) if per_direction else ())

    out = cg.out_edges()
    pending = [len(x) for x in cg.in_edges()]  # inputs still in flight
    latest = [0.0] * cg.p
    fire_time = [0.0] * cg.p
    segment = [0] * cg.q  # index of the path segment each edge sits at

    waiting: dict[tuple, list[tuple[float, int]]] = {}  # heap of (arrival, edge) per link
    busy: set[tuple] = set()
    log: dict[tuple[int, int], list[LinkUse]] = {}
    events: list[tuple[float, int, tuple, int]] = []  # (time, kind, link, edge)

    def fire(ready: list[tuple[int, float]]) -> None:
        """Fire each (vertex, time) of ``ready``.  A zero-hop out-edge delivers
        at once and a vertex it completes joins ``ready``, so a long chain of
        vertices on one node loops instead of recursing.  Every event key is
        unique, so the order of the pushes cannot change the order of pops."""
        while ready:
            w, t = ready.pop()
            fire_time[w] = float(t)
            for idx in out[w]:
                path = paths[idx]
                if len(path) < 2:
                    ready.extend(deliver(idx, t))
                else:
                    heapq.heappush(events, (t, _ARRIVE, link_key(path[0], path[1]), idx))

    def deliver(idx: int, t: float) -> list[tuple[int, float]]:
        """Hand edge ``idx``'s data to its head at ``t``; the head and its firing
        time once this was its last input, else nothing."""
        head = cg.edges[idx][1]
        latest[head] = max(latest[head], t)
        pending[head] -= 1
        if pending[head]:
            return []
        return [(head, latest[head] + cg.processing[head, e.assignment[head]])]

    # taken before any firing: deliveries fire every other vertex
    fire([(w, 0.0 + cg.processing[w, e.assignment[w]])
          for w in cg.topological_order() if pending[w] == 0])

    while events:
        t, kind, key, idx = heapq.heappop(events)
        if kind == _ARRIVE:
            heapq.heappush(waiting.setdefault(key, []), (t, idx))
        else:
            busy.discard(key)
            segment[idx] += 1
            path = paths[idx]
            if segment[idx] < len(path) - 1:
                nxt = link_key(path[segment[idx]], path[segment[idx] + 1])
                heapq.heappush(events, (t, _ARRIVE, nxt, idx))
            else:
                fire(deliver(idx, t))
        q = waiting.get(key)
        if key in busy or not q:
            continue
        arrival, idx = heapq.heappop(q)
        busy.add(key)
        a, b = paths[idx][segment[idx]], paths[idx][segment[idx] + 1]
        link = (min(a, b), max(a, b))
        depart = max(t, arrival) + weight[link] * cg.edges[idx][2]
        log.setdefault(link, []).append(
            LinkUse(edge=idx, tail=a, head=b, arrival=float(arrival), departure=float(depart))
        )
        heapq.heappush(events, (depart, _FINISH, key, idx))

    report = DelayReport(per_vertex=tuple(float(t) for t in fire_time),
                         total=float(fire_time[cg.sink]))
    schedule = LinkSchedule(uses={k: tuple(v) for k, v in log.items()})
    return report, schedule
