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
