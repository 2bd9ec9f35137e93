import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture, place_roles, random_connected_network, random_tree_cg
import dagplace.solver_tree
from dagplace.errors import NotATree, PreconditionViolated
from dagplace.metrics import embedding_delay
from dagplace.model import apsp, build_computation, build_network
from dagplace.oracle import brute_force_min_delay
from dagplace.solver_tree import min_delay_collapse, min_delay_tree


def test_fanin_optimum_is_five():
    cg, net = load_fixture("fanin")
    dm = apsp(net)
    emb, rep = min_delay_tree(cg, net, dm)
    assert rep.total == 5


def test_chain_on_path_network():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
    cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 3)))
    _, rep = min_delay_tree(cg, net, apsp(net))
    assert rep.total == 2  # every placement of the middle vertex gives 2


def test_rejects_non_tree():
    cg, net = load_fixture("prodsum")
    with pytest.raises(NotATree):
        min_delay_tree(cg, net, apsp(net))


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 7))
        p = int(rng.integers(3, 8))
        net = random_connected_network(n, rng, weight_range=(0, 5))
        cg = random_tree_cg(rng, p, n)
        if cg.k + 1 > n:
            continue
        pnet = place_roles(net, cg.k, rng)
        dm = apsp(pnet)
        emb, rep = min_delay_tree(cg, pnet, dm)
        _, best = brute_force_min_delay(cg, pnet, dm)
        assert rep.total == best.total
        # forward tables agree with a fresh evaluation of the embedding
        assert embedding_delay(cg, dm, emb).total == rep.total
        checked += 1


@pytest.mark.parametrize("solver", [min_delay_tree, min_delay_collapse])
def test_self_check_raises_on_wrong_total(solver, monkeypatch):
    cg, net = load_fixture("fanin")

    def off_by_one(*args):
        report = embedding_delay(*args)
        return dataclasses.replace(report, total=report.total + 1)

    monkeypatch.setattr(dagplace.solver_tree, "embedding_delay", off_by_one)
    with pytest.raises(RuntimeError, match="6.0.*5"):
        solver(cg, net, apsp(net))


# zero, fractional and inexact (1/3, 0.1) sizes, weights and processing
_SIZES = st.sampled_from((0.0, 0.1, 1 / 3, 0.5, 1.0, 2.0))


@st.composite
def in_trees(draw):
    """(in-tree, network): each of 3-7 vertices but the sink feeds one later
    vertex; the vertices no edge enters are the sources, numbered first, and
    the sink is last.  Edge sizes, link weights and the processing of every
    non-source row, the sink's included, may be zero or fractional; the
    network has k+1..max(k+1, 4) nodes with the roles on distinct nodes."""
    p = draw(st.integers(3, 7))
    heads = [draw(st.integers(w + 1, p - 1)) for w in range(p - 1)]
    sources = [w for w in range(p) if w not in heads]
    order = sources + [w for w in range(p) if w not in sources]
    label = {w: i for i, w in enumerate(order)}
    k = len(sources)
    n = draw(st.integers(k + 1, max(k + 1, 4)))
    edges = [(label[w], label[h], draw(_SIZES)) for w, h in enumerate(heads)]
    proc = np.zeros((p, n))
    proc[k:] = np.reshape(draw(st.lists(_SIZES, min_size=(p - k) * n,
                                        max_size=(p - k) * n)), (p - k, n))
    return build_computation(p, edges, range(k), p - 1, proc), _network(draw, n, k, _SIZES)


def _network(draw, n, k, values):
    """A connected network of n nodes with k sources and a sink on distinct
    nodes: a spanning tree plus any further links, weighted from ``values``."""
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    links |= draw(st.sets(st.sampled_from([(u, v) for v in range(n) for u in range(v)])))
    roles = draw(st.permutations(range(n)))
    return build_network(n, [(u, v, draw(values)) for u, v in sorted(links)],
                         roles[:k], roles[k])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(in_trees())
def test_property_tree_delay_equals_the_oracle(instance):
    cg, net = instance
    dm = apsp(net)
    _, rep = min_delay_tree(cg, net, dm)
    _, best = brute_force_min_delay(cg, net, dm)
    assert rep.total == best.total


@st.composite
def collapse_dags(draw):
    """(DAG, network) in collapse's precondition class: zero processing and
    unit edge sizes.  Of 3-6 vertices the sources come first and the sink
    last; each middle vertex is fed by one or more earlier vertices, source
    0 feeds both the first middle vertex and the sink, so there is always
    fan-out, and every other vertex that feeds no vertex feeds the sink.
    Link weights are multiples of 0.5, so every delay sum is exact, and may
    be zero."""
    k = draw(st.integers(1, 2))
    p = draw(st.integers(k + 2, 6))
    n = draw(st.integers(k + 1, 4))
    pairs = {(0, k), (0, p - 1)}
    for w in range(k, p - 1):
        pairs |= {(u, w) for u in draw(st.sets(st.integers(0, w - 1), min_size=1))}
    pairs |= {(u, p - 1) for u in range(p - 1) if all(a != u for a, _ in pairs)}
    cg = build_computation(p, [(a, b, 1.0) for a, b in sorted(pairs)], range(k), p - 1,
                           np.zeros((p, n)))
    return cg, _network(draw, n, k, st.sampled_from((0.0, 0.5, 1.0, 2.0)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(collapse_dags())
def test_property_collapse_delay_equals_the_oracle(instance):
    cg, net = instance
    dm = apsp(net)
    assert len(cg.out_edges()[0]) > 1  # fan-out
    _, rep = min_delay_collapse(cg, net, dm)
    _, best = brute_force_min_delay(cg, net, dm)
    assert rep.total == best.total


class TestCollapse:
    def test_fanin(self):
        cg, net = load_fixture("fanin")
        dm = apsp(net)
        emb, rep = min_delay_collapse(cg, net, dm)
        assert rep.total == 5 == max(dm.dist[s, net.sink] for s in net.sources)
        assert all(emb[w] == net.sink for w in range(cg.p) if w not in cg.sources)

    def test_single_source_adjacent_sink(self):
        net = build_network(2, [(0, 1, 7.0)], sources=(0,), sink=1)
        cg = build_computation(2, [(0, 1, 1.0)], (0,), 1, np.zeros((2, 2)))
        _, rep = min_delay_collapse(cg, net, apsp(net))
        assert rep.total == 7

    def test_precondition_enforced(self):
        cg, net = load_fixture("prodsum")
        with pytest.raises(PreconditionViolated):
            min_delay_collapse(cg, net, apsp(net))
        weighted = build_computation(
            2, [(0, 1, 2.0)], (0,), 1, np.zeros((2, 2))
        )
        net2 = build_network(2, [(0, 1, 1.0)], sources=(0,), sink=1)
        with pytest.raises(PreconditionViolated):
            min_delay_collapse(weighted, net2, apsp(net2))

    def test_equals_oracle_and_tree_solver(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 6))
            p = int(rng.integers(3, 7))
            net = random_connected_network(n, rng, weight_range=(0, 4))
            cg = random_tree_cg(rng, p, n, lam_hi=0, xi_hi=0)
            cg = build_computation(
                cg.p, [(a, b, 1.0) for a, b, _ in cg.edges], cg.sources, cg.sink,
                np.zeros((cg.p, n)),
            )
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, rep = min_delay_collapse(cg, pnet, dm)
            _, best = brute_force_min_delay(cg, pnet, dm)
            assert rep.total == best.total
            _, tree_rep = min_delay_tree(cg, pnet, dm)
            assert tree_rep.total == rep.total
            checked += 1


@pytest.mark.slow
def test_runtime_scales_quadratically_in_n():
    # doubling n should grow wall time by roughly 4x; allow generous slack
    rng = np.random.default_rng(12)
    p = 15

    def solve_time(n):
        net = random_connected_network(n, rng, weight_range=(1, 5))
        cg = random_tree_cg(rng, p, n)
        pnet = place_roles(net, cg.k, rng)
        dm = apsp(pnet)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            min_delay_tree(cg, pnet, dm)
            best = min(best, time.perf_counter() - t0)
        return best

    solve_time(50)  # warm-up
    t1 = solve_time(100)
    t2 = solve_time(200)
    assert t2 / t1 < 16
