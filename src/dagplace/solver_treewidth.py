"""Minimum-cost embedding via dynamic programming over a tree decomposition.

Cost does not depend on edge directions, so this solver also accepts cyclic
computation schemas.  Every computation vertex and edge is charged exactly
once, at its home bag (the bag nearest the root that contains it), and bag
tables are combined bottom-up by matching assignments on shared vertices.
Each bag table is a numpy array with one axis per unpinned vertex, so a solve
costs O(#bags * n^{max free vertices per bag}).  The layered solver runs the
same engine on ``layered_path_decomposition``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidDecomposition
from .metrics import Embedding, _check_total, embedding_cost
from .model import (
    ComputationGraph,
    DistanceMatrix,
    LayeredStructure,
    NetworkGraph,
    pinned_images,
)

DEFAULT_TABLE_BUDGET = 10**7


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree of vertex bags: the bags and the tree edges between them.

    ``__post_init__`` sorts and de-duplicates each bag and casts the tree
    edges to int pairs.  The value holds no root and no home bags, since
    those depend on the graph solved: the engine checks a decomposition
    against that graph and roots it there (``_rooted``).
    """

    bags: tuple[tuple[int, ...], ...]  # each sorted by vertex id
    tree_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(tuple(sorted(set(b))) for b in self.bags))
        object.__setattr__(self, "tree_edges", tuple((int(a), int(b)) for a, b in self.tree_edges))

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


def _rooted(cg: ComputationGraph, td: TreeDecomposition):
    """Check ``td`` against ``cg`` and root it: (children, home vertices, home edges).

    Raises InvalidDecomposition unless the bags form a tree, cover every
    vertex and edge, and the bags holding each vertex are connected.  The
    root is the first bag holding the sink (bag 0 if none does).
    ``children`` maps each bag to its children in increasing index and lists
    each bag before the bags below it.  A bag's home vertices, in increasing
    id, are those it holds and its parent does not; a vertex has exactly one
    such bag, its bag nearest the root, iff the bags holding it are connected.
    An edge's home, the bag nearest the root holding both ends, is whichever
    of its ends' homes holds the other end (if neither does, no bag holds
    both); each bag lists its home edges in ``cg.edges`` order.
    """
    bags, nb = td.bags, len(td.bags)
    if nb == 0:
        raise InvalidDecomposition("no bags")
    if len(td.tree_edges) != nb - 1:
        raise InvalidDecomposition(f"{nb} bags need {nb - 1} tree edges")
    adj: list[list[int]] = [[] for _ in range(nb)]
    for a, b in td.tree_edges:
        if not (0 <= a < nb and 0 <= b < nb) or a == b:
            raise InvalidDecomposition(f"bad tree edge ({a},{b})")
        adj[a].append(b)
        adj[b].append(a)
    root = min((i for i, b in enumerate(bags) if cg.sink in b), default=0)
    children: dict[int, list[int]] = {}
    home_vertices: list[list[int]] = [[] for _ in range(nb)]
    home_vertices[root] = list(bags[root])
    seen = {root}
    stack = [root]
    while stack:
        b = stack.pop()
        children[b] = [c for c in sorted(adj[b]) if c not in seen]
        for c in children[b]:
            seen.add(c)
            home_vertices[c] = [w for w in bags[c] if w not in bags[b]]
            stack.append(c)
    if len(children) < nb:
        raise InvalidDecomposition("bag tree is not connected")

    if set().union(*bags) != set(range(cg.p)):
        raise InvalidDecomposition("bags must cover every computation vertex")
    pieces = [0] * cg.p
    home_bag = [0] * cg.p
    for b, ws in enumerate(home_vertices):
        for w in ws:
            pieces[w] += 1
            home_bag[w] = b
    for w, count in enumerate(pieces):
        if count != 1:
            raise InvalidDecomposition(f"bags containing vertex {w} are not connected")

    home_edges: list[list[tuple[int, int, float]]] = [[] for _ in range(nb)]
    for edge in cg.edges:
        a, b, _ = edge
        home = home_bag[a] if b in bags[home_bag[a]] else home_bag[b]
        if a not in bags[home]:
            raise InvalidDecomposition(f"edge ({a},{b}) is in no bag")
        home_edges[home].append(edge)
    return children, home_vertices, home_edges


def layered_path_decomposition(ls: LayeredStructure, cg: ComputationGraph) -> TreeDecomposition:
    """Path of r-1 bags, bag i (from 0) holding layers i+1 and i+2; ``cg`` is not read."""
    layers = ls.layers()
    if ls.r == 1:
        return TreeDecomposition(layers, ())
    bags = [layers[i] + layers[i + 1] for i in range(ls.r - 1)]
    return TreeDecomposition(bags, [(i, i + 1) for i in range(len(bags) - 1)])


def min_fill_decomposition(cg: ComputationGraph) -> TreeDecomposition:
    """Tree decomposition from min-fill elimination on the undirected schema.

    Ties go to the smallest vertex id, so the result is deterministic.  The
    width is an upper bound on the true treewidth, with no optimality claim.
    """
    nbrs: dict[int, set[int]] = {w: set() for w in range(cg.p)}
    for a, b, _ in cg.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)

    def fill(w) -> int:
        ns = list(nbrs[w])
        missing = 0
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                if ns[j] not in nbrs[ns[i]]:
                    missing += 1
        return missing

    # a heap of (fill, vertex) entries; an entry whose fill is no longer the
    # vertex's score, or whose vertex is gone, is stale and skipped
    score = {w: fill(w) for w in range(cg.p)}
    heap = [(f, w) for w, f in score.items()]
    heapq.heapify(heap)
    elim_bag: list[tuple[int, ...]] = []
    elim_vertex: list[int] = []
    while heap:
        f, w = heapq.heappop(heap)
        if score.get(w) != f:
            continue
        del score[w]
        bag = tuple(sorted({w} | nbrs[w]))
        elim_vertex.append(w)
        elim_bag.append(bag)
        for u in nbrs[w]:
            for v in nbrs[w]:
                if u != v:
                    nbrs[u].add(v)
        for u in nbrs[w]:
            nbrs[u].discard(w)
        # only w's neighbours and theirs can have gained an edge among their
        # neighbours, or lost w from them
        touched = set(nbrs[w]).union(*(nbrs[u] for u in nbrs[w]))
        del nbrs[w]
        for u in touched:
            f = fill(u)
            if f != score[u]:
                score[u] = f
                heapq.heappush(heap, (f, u))

    index = {w: i for i, w in enumerate(elim_vertex)}
    tree_edges = []
    for i, bag in enumerate(elim_bag[:-1]):
        later = [index[v] for v in bag if v != elim_vertex[i]]
        parent = min(later) if later else i + 1
        tree_edges.append((i, parent))
    return TreeDecomposition(elim_bag, tree_edges)


def _solve_bags(cg, td, pinned, dm, budget, known):
    """Bag-table dynamic program over ``td``: (embedding, cost, messages).

    ``td`` is checked against ``cg`` and rooted by ``_rooted`` first, before
    the budget check; the home bags and the children order are its.

    Bag b's table has one axis per free (unpinned) vertex of the bag, laid
    out once per bag: its free home vertices, then its free separator
    vertices, each in increasing id.  It starts as +0.0 with every axis of
    length 1 and adds, by broadcasting, the processing of the bag's home
    vertices, then ``lam * d`` of its home edges in ``cg.edges`` order, then
    its children's messages.  Every term is taken the same way, as a view of
    its processing row, distance matrix or message indexed per vertex by
    ``index``: a free vertex keeps its whole axis, which is laid at its axis
    of the table (one transpose puts a term's axes in table order when they
    are not), and a pinned vertex takes its node, as an observed variable
    restricts a factor in bucket elimination.  An axis grows to length n with
    the first term that spans it, and once every axis has, the remaining
    terms are added in place; an axis that no term spans is broadcast to
    length n at the end.  So each cell receives the same additions in the
    same order as in a table filled at full width from the start.
    ``budget`` bounds the cells of the largest full-width table.

    Every bag, the root too, sends the min and argmin of its table over its
    leading axes, its home vertices, as a table over its separator axes in
    increasing id.  The argmin is a C-order flat index over the home
    vertices in increasing id, so ties go to the lexicographically smallest
    completion.  The root has no separator, so its message is the 0-d
    minimum, the cost, and its argmin.  The backtrack then takes each bag's
    home vertices from its argmin at its separator's nodes, parents first.

    ``messages`` holds every bag's (min, argmin) message, the root's too, by
    bag index.  Bag i < len(known) takes ``known[i]`` and is not rebuilt, so
    the caller vouches that bag i and the bags below it read what they read
    when ``known`` was computed, ``dm`` included.  On the layered path, where
    bag i holds layers i+1 and i+2, is home to the edges that leave layer i+1
    and has bag i-1 as its child, those are the bags below the lowest edit of
    a re-plan (``solver_layered``).
    """
    children, home_vertices, home_edges = _rooted(cg, td)
    root = next(iter(children))  # children lists each bag before the bags below it
    n = dm.n
    d = dm.dist
    proc = cg.processing
    # each bag's table layout: its free home vertices, then its free separator
    home = [[w for w in ws if w not in pinned] for ws in home_vertices]
    layout = [home[b] + [w for w in bag if w not in pinned and w not in home_vertices[b]]
              for b, bag in enumerate(td.bags)]
    if (cells := max(n ** len(lb) for lb in layout)) > budget:
        raise BudgetExceeded(f"bag table of {cells} cells exceeds the budget of {budget}")
    index = [pinned.get(w, slice(None)) for w in range(cg.p)]

    def term(arr, ws):
        # ``arr`` has one axis per vertex of ``ws``; ``axis`` and ``f`` are the
        # current bag's.  A pinned vertex's axis is indexed away.
        t = arr[tuple(map(index.__getitem__, ws))]
        at = [axis[w] for w in ws if w in axis]
        if at != sorted(at):
            t = t.transpose(np.argsort(at))
        shape = [1] * f
        for i in at:
            shape[i] = n
        return t.reshape(shape)

    # sent[b]: bag b's message, by bag index for the tables, the backtrack and the caller
    sent = list(known) + [None] * (len(td.bags) - len(known))
    for b in reversed(children):
        if sent[b] is None:
            f = len(layout[b])
            axis = {w: i for i, w in enumerate(layout[b])}
            terms = [term(proc[w], (w,)) for w in home_vertices[b]]
            terms += [lam * term(d, (a, c)) for a, c, lam in home_edges[b]]
            terms += [term(sent[ch][0], layout[ch][len(home[ch]):]) for ch in children[b]]
            full = (n,) * f
            table = np.zeros((1,) * f)
            for t in terms:
                if table.shape == full:
                    table += t
                else:
                    table = np.add(table, t, order="C")
            # an axis no term spans still has length 1: broadcast it to n
            table = table if table.shape == full else np.broadcast_to(table, full)
            flat = table.reshape(n ** len(home[b]), -1)
            shape = (n,) * (f - len(home[b]))
            sent[b] = flat.min(axis=0).reshape(shape), flat.argmin(axis=0).reshape(shape)

    assignment = [0] * cg.p
    for w, v in pinned.items():
        assignment[w] = v
    for b in children:
        sep = layout[b][len(home[b]):]
        pick = int(sent[b][1][tuple(assignment[w] for w in sep)])
        for w, v in zip(home[b], np.unravel_index(pick, (n,) * len(home[b]))):
            assignment[w] = int(v)
    return Embedding(tuple(assignment)), float(sent[root][0]), tuple(sent)


def min_cost_treewidth(
    cg: ComputationGraph,
    td: TreeDecomposition,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float]:
    """Minimum-cost embedding using the supplied decomposition; exact.

    The engine checks ``td`` against ``cg`` and roots it (``_rooted``), so
    a decomposition built by hand or for another graph is judged here.
    Ties go to the lexicographically smallest assignment per bag, resolved
    root-down.  ``budget`` bounds the cells of the largest bag table, counting
    only unpinned vertices.  The cost reported is ``embedding_cost`` of the
    embedding returned.
    """
    emb, optimum, _ = _solve_bags(cg, td, pinned_images(cg, net), dm, budget, ())
    cost = embedding_cost(cg, dm, emb)
    _check_total(cost, optimum, "table optimum")
    return emb, cost
