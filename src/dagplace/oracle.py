"""Exhaustive exact solvers; the ground truth for every optimizer at desk scale.

Embeddings are streamed in lexicographic order of the free-vertex images, so
minima are deterministic (first-found tie kept) and memory stays constant.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded
from .metrics import DelayReport, Embedding, embedding_cost, embedding_delay
from .model import ComputationGraph, DistanceMatrix, NetworkGraph
from .solver_treewidth import DEFAULT_TABLE_BUDGET


def free_vertices(cg: ComputationGraph) -> list[int]:
    pinned = set(cg.sources) | {cg.sink}
    return [w for w in range(cg.p) if w not in pinned]


def enumerate_embeddings(cg: ComputationGraph, net: NetworkGraph, *, budget: int = DEFAULT_TABLE_BUDGET):
    """Yield every embedding exactly once, pinned vertices fixed.

    Raises BudgetExceeded when n**(number of free vertices) exceeds ``budget``.
    """
    free = free_vertices(cg)
    count = net.n ** len(free)
    if count > budget:
        raise BudgetExceeded(
            f"{net.n}^{len(free)} = {count} embeddings exceeds the budget of {budget}"
        )
    base = [0] * cg.p
    for i, s in enumerate(cg.sources):
        base[s] = net.sources[i]
    base[cg.sink] = net.sink
    for images in itertools.product(range(net.n), repeat=len(free)):
        asg = base[:]
        for w, v in zip(free, images):
            asg[w] = v
        yield Embedding(assignment=tuple(asg))


def brute_force_min_cost(
    cg: ComputationGraph,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float]:
    best_e = None
    best = float("inf")
    for e in enumerate_embeddings(cg, net, budget=budget):
        c = embedding_cost(cg, dm, e)
        if c < best:
            best, best_e = c, e
    return best_e, best


def brute_force_min_delay(
    cg: ComputationGraph,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, DelayReport]:
    # the topological order is computed once by the graph and shared here
    best_e = None
    best: DelayReport | None = None
    for e in enumerate_embeddings(cg, net, budget=budget):
        r = embedding_delay(cg, dm, e)
        if best is None or r.total < best.total:
            best, best_e = r, e
    return best_e, best
