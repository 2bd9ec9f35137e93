"""Exhaustive exact solvers; the ground truth for every optimizer at desk scale.

Embeddings run in lexicographic order of the free-vertex images, the first
free vertex most significant (``itertools.product`` order), so they run in
order of their assignment tuples.  They are scored in blocks of up to
``BLOCK`` embeddings as arrays, by the very loops that ``embedding_cost`` and
``embedding_delay`` run on one embedding (``metrics._cost`` and
``metrics._finish_times``), so every score is the same float.  A minimum
keeps the first-found tie: the first one in its block, and a later block's
only when strictly smaller.  Memory is bounded by one block.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .metrics import DelayReport, Embedding, _cost, _finish_times, embedding_cost, embedding_delay
from .model import ComputationGraph, DistanceMatrix, NetworkGraph, pinned_images
from .solver_treewidth import DEFAULT_TABLE_BUDGET

BLOCK = 2**14  # embeddings scored per array pass


def _blocks(cg: ComputationGraph, net: NetworkGraph, budget: int):
    """Yield (p, m) int arrays, row w the images of vertex w in m consecutive
    embeddings; m is at most BLOCK."""
    pinned = pinned_images(cg, net)
    free = [w for w in range(cg.p) if w not in pinned]
    count = net.n ** len(free)
    if count > budget:
        raise BudgetExceeded(
            f"{net.n}^{len(free)} = {count} embeddings exceeds the budget of {budget}"
        )
    base = np.array([pinned.get(w, 0) for w in range(cg.p)], dtype=np.intp)
    for lo in range(0, count, BLOCK):
        hi = min(lo + BLOCK, count)
        asg = np.repeat(base[:, None], hi - lo, axis=1)
        if free:
            asg[free] = np.unravel_index(np.arange(lo, hi), (net.n,) * len(free))
        yield asg


def _argmin_over_blocks(blocks, score):
    """Assignment tuple of the first embedding of least score."""
    best_asg, best = None, None
    for asg in blocks:
        values = score(asg)
        i = int(np.argmin(values))
        if best is None or values[i] < best:
            best, best_asg = values[i], asg[:, i]
    return Embedding(assignment=tuple(best_asg.tolist()))


def brute_force_min_cost(
    cg: ComputationGraph,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float]:
    e = _argmin_over_blocks(_blocks(cg, net, budget), lambda asg: _cost(cg, dm.dist, asg))
    return e, embedding_cost(cg, dm, e)


def brute_force_min_delay(
    cg: ComputationGraph,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, DelayReport]:
    e = _argmin_over_blocks(_blocks(cg, net, budget),
                            lambda asg: _finish_times(cg, dm.dist, asg, np.maximum)[cg.sink])
    return e, embedding_delay(cg, dm, e)
