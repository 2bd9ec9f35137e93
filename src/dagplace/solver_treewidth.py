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
from .metrics import Embedding
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
    """Rooted tree of vertex bags with home-bag charging for edges and vertices."""

    bags: tuple[tuple[int, ...], ...]  # each sorted by vertex id
    tree_edges: tuple[tuple[int, int], ...]
    root: int
    vertex_home: tuple[int, ...]  # bag index charging each computation vertex
    edge_home: tuple[int, ...]  # bag index charging each computation edge

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def children(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        out: dict[int, list[int]] = {}
        seen = {self.root}
        stack = [self.root]
        while stack:
            b = stack.pop()
            out[b] = [c for c in sorted(adj[b]) if c not in seen]
            for c in out[b]:
                seen.add(c)
                stack.append(c)
        return out


def make_decomposition(cg: ComputationGraph, bags, tree_edges) -> TreeDecomposition:
    """Validate, root (at the first bag holding the sink) and assign home bags.

    Raises InvalidDecomposition unless the bags form a tree, cover every
    vertex and edge, and the bags holding each vertex are connected.  A
    vertex's home is its bag nearest the root, ties to the smaller index.
    Since the bags holding a vertex form a subtree, an edge's home, the bag
    nearest the root holding both ends, is the deeper of the ends' homes.
    """
    bags = tuple(tuple(sorted(set(b))) for b in bags)
    tree_edges = tuple((int(a), int(b)) for a, b in tree_edges)
    nb = len(bags)
    if nb == 0:
        raise InvalidDecomposition("no bags")
    if len(tree_edges) != nb - 1:
        raise InvalidDecomposition(f"{nb} bags need {nb - 1} tree edges")
    adj: list[list[int]] = [[] for _ in range(nb)]
    for a, b in tree_edges:
        if not (0 <= a < nb and 0 <= b < nb) or a == b:
            raise InvalidDecomposition(f"bad tree edge ({a},{b})")
        adj[a].append(b)
        adj[b].append(a)
    root = min((i for i, b in enumerate(bags) if cg.sink in b), default=0)
    depth = [-1] * nb
    depth[root] = 0
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                stack.append(y)
    if min(depth) < 0:
        raise InvalidDecomposition("bag tree is not connected")

    if set().union(*bags) != set(range(cg.p)):
        raise InvalidDecomposition("bags must cover every computation vertex")
    # in a tree, the bags holding w are connected iff they outnumber the
    # tree edges between two of them by exactly one
    pieces = [0] * cg.p
    for bag in bags:
        for w in bag:
            pieces[w] += 1
    for a, b in tree_edges:
        for w in set(bags[a]).intersection(bags[b]):
            pieces[w] -= 1
    for w, count in enumerate(pieces):
        if count != 1:
            raise InvalidDecomposition(f"bags containing vertex {w} are not connected")

    vertex_home = [-1] * cg.p
    for i in sorted(range(nb), key=lambda i: (depth[i], i)):
        for w in bags[i]:
            if vertex_home[w] < 0:
                vertex_home[w] = i
    edge_home = []
    for a, b, _ in cg.edges:
        ha, hb = vertex_home[a], vertex_home[b]
        home = ha if depth[ha] >= depth[hb] else hb
        if a not in bags[home] or b not in bags[home]:
            raise InvalidDecomposition(f"edge ({a},{b}) is in no bag")
        edge_home.append(home)
    return TreeDecomposition(
        bags=bags, tree_edges=tree_edges, root=root,
        vertex_home=tuple(vertex_home), edge_home=tuple(edge_home),
    )


def layered_path_decomposition(ls: LayeredStructure, cg: ComputationGraph) -> TreeDecomposition:
    """Path of r-1 bags, bag i holding layers i and i+1."""
    layers = ls.layers()
    if ls.r == 1:
        bags = [tuple(layers[0])]
        return make_decomposition(cg, bags, [])
    bags = [tuple(sorted(layers[i] + layers[i + 1])) for i in range(ls.r - 1)]
    edges = [(i, i + 1) for i in range(len(bags) - 1)]
    return make_decomposition(cg, bags, edges)


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
    return make_decomposition(cg, elim_bag, tree_edges)


def _message(table: np.ndarray, free: list[int], parent_bag, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Min and argmin of a bag table over its axes outside ``parent_bag``.

    ``table`` has one axis of length n per vertex of ``free``, in increasing
    id order.  Both arrays have one axis per free separator vertex, in
    increasing id order; the argmin is a C-order flat index over the
    remaining axes, so ties go to the lexicographically smallest completion.
    Eliminated axes that sit next to each other are reduced where they lie,
    with no copy; others are first moved behind the separator axes.
    """
    f = len(free)
    sep = [i for i, w in enumerate(free) if w in parent_bag]
    rest = [i for i, w in enumerate(free) if w not in parent_bag]
    t = table
    if rest and rest[-1] - rest[0] + 1 != len(rest):
        t = np.moveaxis(t, sep, range(len(sep)))
        rest = range(len(sep), f)
    t = t.reshape(n ** (rest[0] if rest else 0), n ** len(rest), -1)
    shape = (n,) * len(sep)
    return t.min(axis=1).reshape(shape), t.argmin(axis=1).reshape(shape)


def _spread(m: np.ndarray, axes: list[int], f: int) -> np.ndarray:
    """View of ``m`` with its axes at positions ``axes`` (increasing) of f
    axes; the other axes have length 1."""
    shape = [1] * f
    for i in axes:
        shape[i] = m.shape[0]
    return m.reshape(shape)


def _solve_bags(cg, td, pinned, dm, budget, reuse=()):
    """Bag-table dynamic program over ``td``: (embedding, cost, messages).

    Bag b's table has one axis per free (unpinned) vertex of the bag, in
    increasing id order.  It starts as +0.0 with every axis of length 1 and
    adds, by broadcasting, the processing of the bag's home vertices, then
    ``lam * d`` of its home edges in ``cg.edges`` order, then its children's
    messages.  An axis grows to length n with the first term that spans it,
    and once every axis has, the remaining terms are added in place; an axis
    that no term spans is broadcast to length n at the end.  So each cell
    receives the same additions in the same order as in a table filled at
    full width from the start.  ``messages[b]`` is the (min, argmin) pair
    that bag b sends to its parent, and None at the root.  ``reuse`` supplies
    the messages of bags 0..len(reuse)-1, which are not rebuilt; each must
    come with its whole subtree.  ``budget`` bounds the cells of the largest
    full-width table.
    """
    n = dm.n
    d = dm.dist
    proc = cg.processing
    free = [[w for w in bag if w not in pinned] for bag in td.bags]
    cells = max(n ** len(f) for f in free)
    if cells > budget:
        raise BudgetExceeded(f"bag table of {cells} cells exceeds the budget of {budget}")

    home_vertices: list[list[int]] = [[] for _ in td.bags]
    for w, b in enumerate(td.vertex_home):
        home_vertices[b].append(w)
    home_edges: list[list[tuple[int, int, float]]] = [[] for _ in td.bags]
    for edge, hb in zip(cg.edges, td.edge_home):
        home_edges[hb].append(edge)

    children = td.children()
    post = []
    stack = [(td.root, False)]
    while stack:
        b, expanded = stack.pop()
        if expanded:
            post.append(b)
        else:
            stack.append((b, True))
            for c in children[b]:
                stack.append((c, False))

    messages = list(reuse) + [None] * (len(td.bags) - len(reuse))
    tables: dict[int, np.ndarray] = {}
    for b in post:
        if b < len(reuse):
            continue
        fb = free[b]
        f = len(fb)
        axis = {w: i for i, w in enumerate(fb)}
        # each term as a view of its processing row or distance matrix, with
        # a free vertex's nodes along its axis and a pinned vertex at its node
        terms = []
        for w in home_vertices[b]:
            terms.append(_spread(proc[w], [axis[w]], f) if w in axis else proc[w, pinned[w]])
        for a, c, lam in home_edges[b]:
            if a in axis and c in axis:
                i, j = axis[a], axis[c]
                terms.append(lam * _spread(d if i < j else d.T, sorted((i, j)), f))
            elif a in axis:
                terms.append(lam * _spread(d[:, pinned[c]], [axis[a]], f))
            elif c in axis:
                terms.append(lam * _spread(d[pinned[a]], [axis[c]], f))
            else:
                terms.append(lam * d[pinned[a], pinned[c]])
        for ch in children[b]:
            if messages[ch] is None:
                messages[ch] = _message(tables.pop(ch), free[ch], td.bags[b], n)
            terms.append(_spread(messages[ch][0], [axis[w] for w in free[ch] if w in axis], f))
        full = (n,) * f
        table = np.zeros((1,) * f)
        for term in terms:
            if table.shape == full:
                table += term
            else:
                table = np.add(table, term, order="C")
        # an axis no term spans still has length 1: broadcast it to n
        tables[b] = table if table.shape == full else np.broadcast_to(table, full)

    root = tables[td.root]
    top = np.unravel_index(int(root.argmin()), root.shape)
    assignment = [0] * cg.p
    for w, v in pinned.items():
        assignment[w] = v
    for w, v in zip(free[td.root], top):
        assignment[w] = int(v)
    stack2 = [td.root]
    while stack2:
        b = stack2.pop()
        for ch in children[b]:
            sep = [w for w in free[ch] if w in td.bags[b]]
            rest = [w for w in free[ch] if w not in td.bags[b]]
            pick = int(messages[ch][1][tuple(assignment[w] for w in sep)])
            for w, v in zip(rest, np.unravel_index(pick, (n,) * len(rest))):
                assignment[w] = int(v)
            stack2.append(ch)
    return Embedding(tuple(assignment)), float(root[top]), tuple(messages)


def min_cost_treewidth(
    cg: ComputationGraph,
    td: TreeDecomposition,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float]:
    """Minimum-cost embedding using the supplied decomposition; exact.

    Only ``td.bags`` and ``td.tree_edges`` are read: ``make_decomposition``
    validates them against ``cg`` and derives the root and home bags anew.
    Ties go to the lexicographically smallest assignment per bag, resolved
    root-down.  ``budget`` bounds the cells of the largest bag table, counting
    only unpinned vertices.
    """
    td = make_decomposition(cg, td.bags, td.tree_edges)
    emb, cost, _ = _solve_bags(cg, td, pinned_images(cg, net), dm, budget)
    return emb, cost
