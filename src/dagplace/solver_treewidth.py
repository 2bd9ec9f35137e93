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

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidDecomposition
from .metrics import Embedding
from .model import (
    ComputationGraph,
    DistanceMatrix,
    LayeredStructure,
    NetworkGraph,
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


def check_decomposition(cg: ComputationGraph, bags, tree_edges) -> None:
    """Verify the three decomposition conditions; raise InvalidDecomposition."""
    nb = len(bags)
    if nb == 0:
        raise InvalidDecomposition("no bags")
    if len(tree_edges) != nb - 1:
        raise InvalidDecomposition(f"{nb} bags need {nb - 1} tree edges")
    adj: dict[int, set[int]] = {i: set() for i in range(nb)}
    for a, b in tree_edges:
        if not (0 <= a < nb and 0 <= b < nb) or a == b:
            raise InvalidDecomposition(f"bad tree edge ({a},{b})")
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != nb:
        raise InvalidDecomposition("bag tree is not connected")

    covered = set()
    for bag in bags:
        covered.update(bag)
    if covered != set(range(cg.p)):
        raise InvalidDecomposition("bags must cover every computation vertex")
    for a, b, _ in cg.edges:
        if not any(a in bag and b in bag for bag in bags):
            raise InvalidDecomposition(f"edge ({a},{b}) is in no bag")
    for w in range(cg.p):
        holding = [i for i, bag in enumerate(bags) if w in bag]
        seen = {holding[0]}
        stack = [holding[0]]
        hold = set(holding)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in hold and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != hold:
            raise InvalidDecomposition(f"bags containing vertex {w} are not connected")


def make_decomposition(cg: ComputationGraph, bags, tree_edges) -> TreeDecomposition:
    """Validate, root (at the bag holding the sink) and assign home bags."""
    bags = tuple(tuple(sorted(set(b))) for b in bags)
    tree_edges = tuple((int(a), int(b)) for a, b in tree_edges)
    check_decomposition(cg, bags, tree_edges)

    root = min(
        (i for i, b in enumerate(bags) if cg.sink in b), default=0
    )
    adj: dict[int, list[int]] = {i: [] for i in range(len(bags))}
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    depth = {root: 0}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in sorted(adj[x]):
            if y not in depth:
                depth[y] = depth[x] + 1
                order.append(y)
                stack.append(y)

    def nearest(pred) -> int:
        cands = [i for i in range(len(bags)) if pred(bags[i])]
        return min(cands, key=lambda i: (depth[i], i))

    vertex_home = tuple(nearest(lambda bag, w=w: w in bag) for w in range(cg.p))
    edge_home = tuple(
        nearest(lambda bag, a=a, b=b: a in bag and b in bag) for a, b, _ in cg.edges
    )
    return TreeDecomposition(
        bags=bags, tree_edges=tree_edges, root=root,
        vertex_home=vertex_home, edge_home=edge_home,
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

    elim_bag: list[tuple[int, ...]] = []
    elim_vertex: list[int] = []
    alive = set(range(cg.p))
    while alive:
        w = min(alive, key=lambda v: (fill(v), v))
        bag = tuple(sorted({w} | nbrs[w]))
        elim_vertex.append(w)
        elim_bag.append(bag)
        for u in nbrs[w]:
            for v in nbrs[w]:
                if u != v:
                    nbrs[u].add(v)
        for u in nbrs[w]:
            u_set = nbrs[u]
            u_set.discard(w)
        del nbrs[w]
        alive.discard(w)

    index = {w: i for i, w in enumerate(elim_vertex)}
    tree_edges = []
    for i, bag in enumerate(elim_bag[:-1]):
        later = [index[v] for v in bag if v != elim_vertex[i]]
        parent = min(later) if later else i + 1
        tree_edges.append((i, parent))
    return make_decomposition(cg, elim_bag, tree_edges)


def _pinned_map(cg: ComputationGraph, net: NetworkGraph) -> dict[int, int]:
    pinned = {w: net.sources[i] for i, w in enumerate(cg.sources)}
    pinned[cg.sink] = net.sink
    return pinned


def _message(table: np.ndarray, free: list[int], parent_bag) -> tuple[np.ndarray, np.ndarray]:
    """Min and argmin of a bag table over its axes outside ``parent_bag``.

    Both arrays have one axis per free separator vertex, in increasing id
    order; the argmin is a C-order flat index over the remaining axes, so
    ties go to the lexicographically smallest completion.
    """
    sep = [i for i, w in enumerate(free) if w in parent_bag]
    t = np.moveaxis(table, sep, range(len(sep)))
    t = t.reshape(t.shape[: len(sep)] + (-1,))
    return t.min(axis=-1), t.argmin(axis=-1)


def _solve_bags(cg, td, pinned, dm, budget, reuse=()):
    """Bag-table dynamic program over ``td``: (embedding, cost, messages).

    Bag b's table has one axis of length n per free (unpinned) vertex of the
    bag, in increasing id order.  It sums the processing of the bag's home
    vertices, then ``lam * d`` of its home edges in ``cg.edges`` order, then
    its children's messages; ``messages[b]`` is the (min, argmin) pair that
    bag b sends to its parent, and None at the root.  ``reuse`` supplies the
    messages of bags 0..len(reuse)-1, which are not rebuilt; each must come
    with its whole subtree.  ``budget`` bounds the cells of the largest table.
    """
    n = dm.n
    d = dm.dist
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
        # each vertex's image: its pinned node, or a range along its own axis
        image = {w: pinned[w] for w in td.bags[b] if w in pinned}
        for i, w in enumerate(fb):
            image[w] = np.arange(n).reshape([n if j == i else 1 for j in range(len(fb))])
        table = np.zeros((n,) * len(fb))
        for w in home_vertices[b]:
            table += cg.processing[w, image[w]]
        for a, c, lam in home_edges[b]:
            table += lam * d[image[a], image[c]]
        for ch in children[b]:
            if messages[ch] is None:
                messages[ch] = _message(tables.pop(ch), free[ch], td.bags[b])
            table += messages[ch][0].reshape([n if w in td.bags[ch] else 1 for w in fb])
        tables[b] = table

    root = tables[td.root]
    flat = int(root.argmin())
    assignment = [0] * cg.p
    for w, v in pinned.items():
        assignment[w] = v
    for w, v in zip(free[td.root], np.unravel_index(flat, root.shape)):
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
    return Embedding(tuple(assignment)), float(root.reshape(-1)[flat]), tuple(messages)


def min_cost_treewidth(
    cg: ComputationGraph,
    td: TreeDecomposition,
    net: NetworkGraph,
    dm: DistanceMatrix,
    *,
    budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[Embedding, float]:
    """Minimum-cost embedding using the supplied decomposition; exact.

    Ties go to the lexicographically smallest assignment per bag, resolved
    root-down.  ``budget`` bounds the cells of the largest bag table, counting
    only unpinned vertices.
    """
    check_decomposition(cg, td.bags, td.tree_edges)
    emb, cost, _ = _solve_bags(cg, td, _pinned_map(cg, net), dm, budget)
    return emb, cost
