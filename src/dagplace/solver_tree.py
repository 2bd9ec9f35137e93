"""Exact minimum-delay embedding for tree-shaped computation graphs.

Every non-sink vertex of the computation graph must have exactly one
successor (multiple in-edges are fine).  The dynamic program keeps, for
each computation vertex w and each network node v, the best achievable delay
of everything up to w's unique out-edge given that w's successor lands on v;
backtracking from the pinned sink recovers the embedding.  Runs in O(p n^2).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import PreconditionError
from .metrics import DelayReport, Embedding, _check_total, _larger, embedding_delay
from .model import ComputationGraph, DistanceMatrix, NetworkGraph, check_tree, pinned_images


def min_delay_tree(
    cg: ComputationGraph, net: NetworkGraph, dm: DistanceMatrix
) -> tuple[Embedding, DelayReport]:
    """Globally minimum-delay embedding; ties go to the smallest network node."""
    if not check_tree(cg):
        raise PreconditionError("every non-sink vertex must have out-degree exactly 1")
    n = net.n
    d = dm.dist
    edges, out = cg.edges, cg.out_edges()  # a non-sink vertex has one out-edge
    ine = cg.in_edges()
    order = cg.topological_order()
    pinned = pinned_images(cg, net)

    h: dict[int, np.ndarray] = {}
    x: dict[int, np.ndarray] = {}
    for w in order:
        if w == cg.sink:
            continue
        lam = edges[out[w][0]][2]
        if w in pinned:  # a source; the sink was skipped above
            h[w] = lam * d[pinned[w]]
        else:
            base = np.zeros(n)
            for u, _ in ine[w]:
                np.maximum(base, h[u], out=base)
            reach = base + cg.processing[w]
            table = reach[:, None] + lam * d
            x[w] = table.argmin(axis=0)
            h[w] = table[x[w], np.arange(n)]

    t = pinned[cg.sink]
    total = functools.reduce(_larger, (h[u][t] for u, _ in ine[cg.sink]), 0.0)
    total += cg.processing[cg.sink, t]

    asg = [pinned.get(w, 0) for w in range(cg.p)]
    for w in reversed(order):
        if w not in pinned:
            asg[w] = int(x[w][asg[edges[out[w][0]][1]]])
    e = Embedding(assignment=tuple(asg))
    report = embedding_delay(cg, dm, e)
    _check_total(report.total, total, "DP optimum")
    return e, report


def min_delay_collapse(
    cg: ComputationGraph, net: NetworkGraph, dm: DistanceMatrix
) -> tuple[Embedding, DelayReport]:
    """Map every free vertex onto the sink; optimal when processing is zero
    and all computation edges have unit weight."""
    if cg.processing.any():
        raise PreconditionError("collapse requires zero processing everywhere")
    if any(lam != 1.0 for _, _, lam in cg.edges):
        raise PreconditionError("collapse requires unit computation-edge weights")
    pinned = pinned_images(cg, net)
    e = Embedding(assignment=tuple(pinned.get(w, net.sink) for w in range(cg.p)))
    report = embedding_delay(cg, dm, e)
    bound = max(dm.dist[s, net.sink] for s in net.sources)
    _check_total(report.total, bound, "farthest-source bound")
    return e, report
