"""Exact minimum-cost embedding for layered computation graphs.

The layered dynamic program is the tree-decomposition engine of
``solver_treewidth`` run on ``layered_path_decomposition``: bag i holds
layers i and i+1 and sends the next bag, for every assignment of layer i+1,
the cheapest placement of layers 1..i.  Pinned vertices (sources, sink) take
no table axis, so a full sweep costs O(r n^{2k}).

The per-bag messages are returned in a ``LayeredDPState`` so that later graph
edits can be re-planned by recomputing only from the earliest affected layer;
the result is identical to a fresh solve on the edited graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DanglingEdit, NotLayered, ValidationError, WidthExceeded
from .metrics import Embedding
from .model import (
    ComputationGraph,
    DistanceMatrix,
    LayeredStructure,
    NetworkGraph,
    validate_layering,
)
from .solver_treewidth import (
    DEFAULT_TABLE_BUDGET,
    _pinned_map,
    _solve_bags,
    layered_path_decomposition,
)


@dataclass(frozen=True)
class LayeredDPState:
    """Frozen snapshot of one layered solve, sufficient for incremental edits."""

    p: int
    edges: tuple[tuple[int, int, float], ...]
    layer: tuple[int, ...]
    r: int
    k: int
    n: int
    pinned: tuple[tuple[int, int], ...]  # (computation vertex, network node)
    # h[i]: (min, argmin) message of bag i (layers i+1, i+2) to bag i+1; one
    # axis per free vertex of layer i+2, argmin a flat index over layer i+1
    h: tuple[tuple[np.ndarray, np.ndarray], ...]
    cost: float
    assignment: tuple[int, ...]


def _solve(cg, ls, pinned, n, dm, k, budget, reuse=()):
    """Run the bag engine on the path decomposition of ``ls``; keep its messages."""
    td = layered_path_decomposition(ls, cg)
    e, cost, messages = _solve_bags(cg, td, pinned, dm, budget, reuse)
    state = LayeredDPState(
        p=cg.p,
        edges=cg.edges,
        layer=ls.layer,
        r=ls.r,
        k=k,
        n=n,
        pinned=tuple(sorted(pinned.items())),
        h=messages[:-1],  # the root is the last bag and sends nothing
        cost=cost,
        assignment=e.assignment,
    )
    return e, cost, state


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
    return _solve(cg, ls, _pinned_map(cg, net), net.n, dm, ls.k, budget)


def apply_perturbations(
    state: LayeredDPState,
    cg2: ComputationGraph,
    edits,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float, LayeredDPState]:
    """Re-plan after adding edges (and possibly vertices) to the solved graph.

    ``edits`` is a list of ((tail, head, weight), layer) pairs describing the
    additions already present in ``cg2``; new vertices use ids >= the original
    vertex count and the edit's ``layer`` places them.  For an edit between
    two existing vertices the layer must match the edge's tail (or head, for
    a layer-crossing edge entering it).  Bags are recomputed from the
    earliest affected layer forward, which reproduces a fresh solve exactly.
    """
    if not edits:
        e = Embedding(state.assignment)
        return e, state.cost, state

    old_edges = set(state.edges)
    edited = set()
    for (a, b, lam), _ in edits:
        edited.add((int(a), int(b), float(lam)))
    if set(cg2.edges) != old_edges | edited or old_edges & edited:
        raise ValidationError("edited graph must equal the original plus the listed edits")

    layer = list(state.layer) + [0] * (cg2.p - state.p)
    start = state.r  # recompute at least nothing; minimized below
    for (a, b, lam), lay in edits:
        new_a, new_b = a >= state.p, b >= state.p
        if new_a and new_b:
            raise DanglingEdit(f"edge ({a},{b}) has no endpoint in the original graph")
        if not 1 <= lay <= state.r:
            raise NotLayered(f"edit layer {lay} outside 1..{state.r}")
        if new_a or new_b:
            w = a if new_a else b
            if layer[w] and layer[w] != lay:
                raise NotLayered(f"conflicting layers for new vertex {w}")
            layer[w] = lay
            start = min(start, max(1, lay - 1))
        else:
            if lay not in (layer[a], layer[b]):
                raise NotLayered(f"edit layer {lay} does not touch edge ({a},{b})")
            start = min(start, min(layer[a], layer[b]))
    if any(l == 0 for l in layer):
        raise DanglingEdit("a new vertex was added without any edit naming it")

    r = state.r
    widths = [0] * r
    for l in layer:
        widths[l - 1] += 1
    if max(widths) > state.k:
        raise WidthExceeded(f"widths {widths} exceed the original bound k={state.k}")

    ls2 = LayeredStructure(layer=tuple(layer), r=r, k=max(widths))
    validate_layering(cg2, ls2)
    pinned = dict(state.pinned)
    if any(s not in pinned for s in cg2.sources) or cg2.sink not in pinned:
        raise ValidationError("edits must not change the pinned sources or sink")

    # bags 0..start-2 hold layers 1..start only and see no edit
    return _solve(cg2, ls2, pinned, state.n, dm, state.k, budget, state.h[: start - 1])
