import itertools
import pathlib
import warnings

import numpy as np
import pytest

from dagplace.cli import (
    ComputationDoc,
    NetworkDoc,
    load_decomposition,
    load_embedding,
    load_json,
)
from dagplace.errors import BudgetExceeded
from dagplace.metrics import Embedding, embedding_cost, embedding_delay
from dagplace.model import build_computation, pinned_images

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def _fixture_docs(name: str, cg: str, net: str) -> tuple[ComputationDoc, NetworkDoc]:
    ndoc = NetworkDoc.from_json(load_json(fixture_path(f"{name}_{net}.json")))
    cdoc = ComputationDoc.from_json(load_json(fixture_path(f"{name}_{cg}.json")), ndoc.net.n)
    return cdoc, ndoc


def load_fixture(name: str, *, cg: str = "cg", net: str = "net"):
    """(computation graph, network) of ``fixtures/{name}_{cg|net}.json``,
    parsed as the CLI parses them; vertex and node ids follow the files'
    name order."""
    cdoc, ndoc = _fixture_docs(name, cg, net)
    return cdoc.cg, ndoc.net


def load_embedding_fixture(name: str, emb: str, *, cg: str = "cg", net: str = "net") -> Embedding:
    """The embedding ``fixtures/{name}_{emb}.json`` of that instance."""
    cdoc, ndoc = _fixture_docs(name, cg, net)
    return load_embedding(load_json(fixture_path(f"{name}_{emb}.json")), cdoc, ndoc)


def load_decomposition_fixture(name: str):
    """The tree decomposition ``fixtures/{name}_td.json`` of ``{name}_cg.json``."""
    cdoc, _ = _fixture_docs(name, "cg", "net")
    return load_decomposition(load_json(fixture_path(f"{name}_td.json")), cdoc)


@pytest.fixture(autouse=True)
def _silence_off_path_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="vertices .* lie on no source-to-sink path")
        yield


def random_tree_cg(rng: np.random.Generator, p: int, n: int, *, lam_hi=3, xi_hi=3):
    """Random in-tree with sources first and the sink last.

    Edge weights are integers in [0, lam_hi] (at least one nonzero route is
    not guaranteed); processing is integer per (vertex, node) cell, zero on
    sources.
    """
    edges = []
    for w in range(p - 1):
        tgt = int(rng.integers(w + 1, p))
        edges.append((w, tgt, float(rng.integers(0, lam_hi + 1))))
    indeg = [0] * p
    for a, b, _ in edges:
        indeg[b] += 1
    sources = [w for w in range(p) if indeg[w] == 0]
    order = sources + [w for w in range(p) if w not in sources and w != p - 1] + [p - 1]
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[a], remap[b], lam) for a, b, lam in edges]
    proc = np.zeros((p, n))
    for w in range(len(sources), p):
        proc[w, :] = rng.integers(0, xi_hi + 1, size=n)
    return build_computation(
        p, edges, sources=tuple(range(len(sources))), sink=p - 1, processing=proc
    )


def random_dag_cg(rng: np.random.Generator, p: int, n: int, *, edge_p=0.45, xi_hi=3):
    """General random DAG (arbitrary fan-out, denser than a tree).

    Every vertex is wired onto some source-to-sink path; in-degree-0 vertices
    become the sources and vertex p-1 the sink.
    """
    edges = set()
    for a in range(p - 1):
        for b in range(a + 1, p):
            if rng.random() < edge_p:
                edges.add((a, b))
    for a in range(p - 1):  # everyone reaches onward
        if not any(x == a for x, _ in edges):
            edges.add((a, int(rng.integers(a + 1, p))))
    indeg = [0] * p
    for _, b in edges:
        indeg[b] += 1
    sources = [w for w in range(p) if indeg[w] == 0]
    order = sources + [w for w in range(p) if w not in sources and w != p - 1] + [p - 1]
    remap = {old: new for new, old in enumerate(order)}
    lam = {e: float(rng.integers(0, 4)) for e in edges}
    proc = np.zeros((p, n))
    for w in range(len(sources), p):
        proc[w, :] = rng.integers(0, xi_hi + 1, size=n)
    return build_computation(
        p, [(remap[a], remap[b], lam[(a, b)]) for a, b in sorted(edges)],
        sources=tuple(range(len(sources))), sink=p - 1, processing=proc,
    )


def place_roles(net, k: int, rng: np.random.Generator):
    picks = rng.choice(net.n, size=k + 1, replace=False)
    return net.with_roles(tuple(int(x) for x in picks[:-1]), int(picks[-1]))


def random_embedding(cg, net, rng: np.random.Generator) -> Embedding:
    asg = [int(rng.integers(0, net.n)) for _ in range(cg.p)]
    for i, s in enumerate(cg.sources):
        asg[s] = net.sources[i]
    asg[cg.sink] = net.sink
    return Embedding(tuple(asg))


def reference_brute_force(cg, net, dm, objective: str):
    """(embedding, value) of the first embedding of least cost ("mincost") or
    delay ("mindelay"), scanning one embedding and one scalar score at a time
    in itertools.product order of the free vertices; the oracle for
    ``brute_force_min_cost`` and ``brute_force_min_delay``."""
    score = embedding_cost if objective == "mincost" else embedding_delay
    key = (lambda v: v) if objective == "mincost" else (lambda r: r.total)
    pinned = pinned_images(cg, net)
    free = [w for w in range(cg.p) if w not in pinned]
    best_e = best = None
    for images in itertools.product(range(net.n), repeat=len(free)):
        asg = [pinned.get(w, 0) for w in range(cg.p)]
        for w, v in zip(free, images):
            asg[w] = v
        e = Embedding(assignment=tuple(asg))
        value = score(cg, dm, e)
        if best is None or key(value) < key(best):
            best, best_e = value, e
    return best_e, best


def reference_min_fill(cg):
    """(eliminated-vertex bags, tree edges) of min-fill elimination, re-scoring
    every remaining vertex at each step; the reference for
    ``min_fill_decomposition``'s bags and tree edges."""
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
    return tuple(elim_bag), tuple(tree_edges)


def _reference_message(table, free, parent_bag):
    sep = [i for i, w in enumerate(free) if w in parent_bag]
    t = np.moveaxis(table, sep, range(len(sep)))
    t = t.reshape(t.shape[: len(sep)] + (-1,))
    return t.min(axis=-1), t.argmin(axis=-1)


def reference_solve_bags(cg, td, pinned, dm, budget):
    """(embedding, cost, messages) of the bag-table DP with every table filled
    at full width from the start: processing of the home vertices, then
    ``lam * d`` of the home edges in ``cg.edges`` order, then the children's
    messages; the reference for ``solver_treewidth._solve_bags``.

    ``messages`` maps each non-root bag's key, in post-order, to its (min,
    argmin) message.  The key holds the bag's vertices, the images of its
    pinned vertices, its separator with its parent bag, its home vertices
    with their processing rows' bytes, its home edges and its children's
    keys; two bags with one key must send byte-identical messages."""
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

    messages = [None] * len(td.bags)
    tables: dict[int, np.ndarray] = {}
    for b in post:
        fb = free[b]
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
                messages[ch] = _reference_message(tables.pop(ch), free[ch], td.bags[b])
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

    parent = {c: b for b, cs in children.items() for c in cs}
    keys, keyed = {}, {}
    for b in post:
        up = td.bags[parent[b]] if b in parent else ()
        keys[b] = (td.bags[b], tuple(pinned.get(w) for w in td.bags[b]),
                   tuple(w for w in td.bags[b] if w in up),
                   tuple((w, cg.processing[w].tobytes()) for w in home_vertices[b]),
                   tuple(home_edges[b]), tuple(keys[c] for c in children[b]))
        if b != td.root:
            same = keyed.setdefault(keys[b], messages[b])
            for x, y in zip(same, messages[b]):
                assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())
    return Embedding(tuple(assignment)), float(root.reshape(-1)[flat]), keyed
