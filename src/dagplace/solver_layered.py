"""Exact minimum-cost embedding for layered computation graphs.

The layered dynamic program is the tree-decomposition engine of
``solver_treewidth`` run on ``layered_path_decomposition``: bag i (from 0)
holds layers i+1 and i+2, is home to the edges that leave layer i+1, and sends
bag i+1, for every assignment of layer i+2, the cheapest placement of layers
1..i+1.  Pinned vertices (sources, sink) take no table axis, so a full sweep
costs O(r n^{2k}).

The messages are kept in a ``LayeredDPState`` by bag index.  A re-plan after
edits that only add edges and vertices, keeping the old vertices' rows and
roles, is a fresh solve that takes the messages of the bags below its lowest
edit: an edge whose tail lies on layer l changes no bag below bag l-1, and a
new vertex on layer l none below bag l-2, the first that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .metrics import Embedding, _check_total, embedding_cost
from .model import (
    ComputationGraph,
    DistanceMatrix,
    LayeredStructure,
    NetworkGraph,
    pinned_images,
    validate_layering,
)
from .solver_treewidth import DEFAULT_TABLE_BUDGET, _solve_bags, layered_path_decomposition


@dataclass(frozen=True, eq=False)
class LayeredDPState:
    """Frozen snapshot of one layered solve, sufficient for incremental edits.

    It holds the solved graph ``cg`` and layering ``ls``, not copies of their
    fields; ``n``, ``p``, ``layer`` and ``r`` are read-only views for callers
    that read a state's shape (the benchmark's work counts do).  Equality and
    hashing are by identity, as for ``ComputationGraph``."""

    cg: ComputationGraph
    ls: LayeredStructure
    dm: DistanceMatrix
    pinned: tuple[tuple[int, int], ...]  # (computation vertex, network node)
    # the (min, argmin) message of every bag, by bag index (see
    # ``_solve_bags``); a re-plan with ``dm`` reuses those below its lowest edit
    messages: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def n(self) -> int:
        return self.dm.n

    @property
    def p(self) -> int:
        return self.cg.p

    @property
    def layer(self) -> tuple[int, ...]:
        return self.ls.layer

    @property
    def r(self) -> int:
        return self.ls.r


def _solve(cg, ls, pinned, dm, budget, known):
    """Run the bag engine on the path decomposition of ``ls``; keep its messages.
    The cost reported is ``embedding_cost`` of the embedding returned."""
    td = layered_path_decomposition(ls, cg)
    e, optimum, messages = _solve_bags(cg, td, pinned, dm, budget, known)
    cost = embedding_cost(cg, dm, e)
    _check_total(cost, optimum, "table optimum")
    return e, cost, LayeredDPState(cg=cg, ls=ls, dm=dm, pinned=tuple(sorted(pinned.items())),
                                   messages=messages)


def min_cost_layered(
    cg: ComputationGraph,
    ls: LayeredStructure,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float, LayeredDPState]:
    """Minimum-cost embedding of a layered graph; exact, deterministic.

    Ties in the per-bag minimization go to the lexicographically smallest
    assignment tuple.
    """
    validate_layering(cg, ls)
    return _solve(cg, ls, pinned_images(cg, net), dm, budget, ())


def perturbed_layering(cg: ComputationGraph, ls: LayeredStructure,
                       cg2: ComputationGraph, edits) -> LayeredStructure:
    """The layering of ``cg2``, which is ``cg`` (layered by ``ls``) plus ``edits``,
    its ((tail, head, weight), layer) additions.  A new vertex has an id >= ``cg.p``
    and takes its edit's layer; an edit between two old vertices names the layer
    of its tail (or head, for a layer-crossing edge entering it).  ``cg2`` keeps
    the roles and processing rows of ``cg``'s vertices.  Checks ``ls`` first."""
    validate_layering(cg, ls)
    old_edges = set(cg.edges)
    edited = {(int(a), int(b), float(lam)) for (a, b, lam), _ in edits}
    if (set(cg2.edges) != old_edges | edited or old_edges & edited
            or (cg2.sources, cg2.sink) != (cg.sources, cg.sink)
            or not np.array_equal(cg2.processing[: cg.p], cg.processing)):
        raise ValidationError("edited graph must equal the original plus the listed edits")
    layer = list(ls.layer) + [0] * (cg2.p - cg.p)
    for (a, b, lam), lay in edits:
        new_a, new_b = a >= cg.p, b >= cg.p
        if new_a and new_b:
            raise PreconditionError(f"edge ({a},{b}) has no endpoint in the original graph")
        if not 1 <= lay <= ls.r:
            raise PreconditionError(f"edit layer {lay} outside 1..{ls.r}")
        if new_a or new_b:
            w = a if new_a else b
            if layer[w] and layer[w] != lay:
                raise PreconditionError(f"conflicting layers for new vertex {w}")
            layer[w] = lay
        elif lay not in (layer[a], layer[b]):
            raise PreconditionError(f"edit layer {lay} does not touch edge ({a},{b})")
    if any(l == 0 for l in layer):
        raise PreconditionError("a new vertex was added without any edit naming it")

    ls2 = LayeredStructure(layer)
    if ls2.k > ls.k:
        raise PreconditionError(
            f"a layer of {ls2.k} vertices exceeds the original bound k={ls.k}")
    validate_layering(cg2, ls2)
    return ls2


def apply_perturbations(
    state: LayeredDPState,
    cg2: ComputationGraph,
    edits,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float, LayeredDPState]:
    """Re-plan after adding edges (and possibly vertices) to the solved graph.

    ``perturbed_layering`` checks ``cg2`` and ``edits``.  The re-plan is a
    fresh solve of ``cg2`` that takes the state's messages of the bags below
    its lowest edit, so it gives a fresh solve's result under ``dm`` and pays
    only for the other bags (none, with no edits); a ``dm`` other than the
    state's rebuilds every bag.  ``budget`` bounds it as it bounds a solve.
    """
    ls2 = perturbed_layering(state.cg, state.ls, cg2, edits)
    # an edit changes its edge's home bag and the first bag holding a new end
    layer, first = ls2.layer, len(state.messages)
    for (a, b, _), _ in edits:
        first = min(first, layer[a] - 1, *(layer[w] - 2 for w in (a, b) if w >= state.p))
    known = state.messages[:max(first, 0)] if dm is state.dm else ()
    return _solve(cg2, ls2, dict(state.pinned), dm, budget, known)
