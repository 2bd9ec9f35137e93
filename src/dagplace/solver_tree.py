"""Exact minimum-delay embedding for tree-shaped computation graphs.

Every non-sink vertex of the computation graph must have exactly one
successor (multiple predecessors are fine).  The dynamic program keeps, for
each computation vertex w and each network node v, the best achievable delay
of everything up to w's unique out-edge given that w's successor lands on v;
backtracking from the pinned sink recovers the embedding.  Runs in O(p n^2).
"""

from __future__ import annotations

import numpy as np

from .errors import NotATree, PreconditionViolated
from .metrics import DelayReport, Embedding, embedding_delay
from .model import ComputationGraph, DistanceMatrix, NetworkGraph, check_tree


def min_delay_tree(
    cg: ComputationGraph, net: NetworkGraph, dm: DistanceMatrix
) -> tuple[Embedding, DelayReport]:
    """Globally minimum-delay embedding; ties go to the smallest network node."""
    if not check_tree(cg):
        raise NotATree("every non-sink vertex must have out-degree exactly 1")
    n = net.n
    d = dm.dist
    suc = cg.successors()
    pre = cg.predecessors()
    order = cg.topological_order()
    src = set(cg.sources)
    src_image = {w: net.sources[i] for i, w in enumerate(cg.sources)}

    h: dict[int, np.ndarray] = {}
    x: dict[int, np.ndarray] = {}
    for w in order:
        if w == cg.sink:
            continue
        lam = next(l for a, b, l in cg.edges if a == w)
        if w in src:
            h[w] = lam * d[src_image[w]]
            x[w] = np.full(n, src_image[w], dtype=np.int64)
        else:
            base = np.zeros(n)
            for u in pre[w]:
                np.maximum(base, h[u], out=base)
            reach = base + cg.processing[w]
            table = reach[:, None] + lam * d
            x[w] = table.argmin(axis=0)
            h[w] = table[x[w], np.arange(n)]

    t = net.sink
    total = max((h[u][t] for u in pre[cg.sink]), default=0.0) + cg.processing[cg.sink, t]

    asg = [0] * cg.p
    asg[cg.sink] = t
    for w in reversed(order):
        if w == cg.sink:
            continue
        asg[w] = int(x[w][asg[suc[w][0]]])
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
        raise PreconditionViolated("collapse requires zero processing everywhere")
    if any(lam != 1.0 for _, _, lam in cg.edges):
        raise PreconditionViolated("collapse requires unit computation-edge weights")
    asg = [net.sink] * cg.p
    for i, w in enumerate(cg.sources):
        asg[w] = net.sources[i]
    e = Embedding(assignment=tuple(asg))
    report = embedding_delay(cg, dm, e)
    bound = max(dm.dist[s, net.sink] for s in net.sources)
    _check_total(report.total, bound, "farthest-source bound")
    return e, report


def _check_total(delay: float, expected: float, what: str) -> None:
    """Self-check of a solver's answer; an explicit raise survives ``python -O``."""
    if not abs(delay - expected) < 1e-9 * max(1.0, abs(expected)):
        raise RuntimeError(f"embedding delay {delay!r} differs from the {what} {expected!r}")
