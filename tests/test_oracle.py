import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_embeddings,
    load_fixture,
    place_roles,
    random_connected_network,
    random_tree_cg,
    reference_brute_force,
)
from dagplace.errors import BudgetExceeded, CyclicGraph
from dagplace.metrics import embedding_delay
from dagplace.model import apsp, build_computation, build_network
from dagplace.oracle import BLOCK, brute_force_min_cost, brute_force_min_delay


def chain_on_triangle():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)],
                        sources=(0,), sink=2)
    cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 3)))
    return cg, net


class TestEnumeration:
    def test_chain_has_three(self):
        cg, net = chain_on_triangle()
        assert sum(1 for _ in block_embeddings(cg, net)) == 3

    def test_prodsum_has_512(self):
        embs = list(block_embeddings(*load_fixture("prodsum")))
        assert len(embs) == 512
        assert len({e.assignment for e in embs}) == 512

    def test_sources_wired_to_sink(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0, 1), sink=2)
        cg = build_computation(3, [(0, 2, 1.0), (1, 2, 1.0)], (0, 1), 2, np.zeros((3, 3)))
        assert sum(1 for _ in block_embeddings(cg, net)) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(block_embeddings(*load_fixture("prodsum"), budget=100))


class TestMinima:
    def test_prodsum_reference_minima(self):
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        _, cost = brute_force_min_cost(cg, net, dm)
        assert cost == 34
        _, rep = brute_force_min_delay(cg, net, dm)
        assert rep.total == 14

    def test_sink_processing_variant_shifts_by_one(self):
        # unit sink processing adds exactly one to every embedding
        cg, net = load_fixture("prodsum", cg="cg_sinkproc")
        dm = apsp(net)
        assert brute_force_min_cost(cg, net, dm)[1] == 35
        assert brute_force_min_delay(cg, net, dm)[1].total == 15

    def test_single_node_network(self):
        net = build_network(1, [], sources=(0,), sink=0, allow_sink_source=True)
        proc = np.full((3, 1), 2.0)
        proc[0] = 0
        cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, proc)
        _, cost = brute_force_min_cost(cg, net, apsp(net))
        assert cost == 4

    def test_fanin_min_delay(self):
        cg, net = load_fixture("fanin")
        dm = apsp(net)
        _, rep = brute_force_min_delay(cg, net, dm)
        assert rep.total == 5

    def test_collapse_bound_for_unit_unweighted(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 6))
            net = random_connected_network(n, rng, weight_range=(0, 4))
            cg = random_tree_cg(rng, int(rng.integers(3, 7)), n, lam_hi=0, xi_hi=0)
            cg = build_computation(
                cg.p, [(a, b, 1.0) for a, b, _ in cg.edges], cg.sources, cg.sink,
                np.zeros((cg.p, n)),
            )
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, rep = brute_force_min_delay(cg, pnet, dm)
            assert rep.total == max(dm.dist[s, pnet.sink] for s in pnet.sources)
            checked += 1

    def test_order_invariance_of_minimum(self):
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        _, cost = brute_force_min_cost(cg, net, dm)
        totals = [embedding_delay(cg, dm, e).total for e in block_embeddings(cg, net)]
        assert min(reversed(totals)) == brute_force_min_delay(cg, net, dm)[1].total
        from dagplace.metrics import embedding_cost

        costs = [embedding_cost(cg, dm, e) for e in block_embeddings(cg, net)]
        assert min(reversed(costs)) == cost

    def test_min_delay_at_most_min_cost(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 6))
            net = random_connected_network(n, rng, weight_range=(0, 4))
            cg = random_tree_cg(rng, int(rng.integers(3, 7)), n)
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, c = brute_force_min_cost(cg, pnet, dm)
            _, d = brute_force_min_delay(cg, pnet, dm)
            assert d.total <= c
            checked += 1


# zero, fractional and inexact (1/3, 0.1) sizes, weights and processing
_SIZES = st.sampled_from((0.0, 0.1, 1 / 3, 0.5, 1.0, 2.0))


@st.composite
def oracle_instances(draw):
    """A DAG of 3-6 vertices on a network of at most 4 nodes: sources first,
    the sink last, each other vertex fed by any earlier vertices (so fan-out,
    and possibly no inputs at all), zero-size edges and fractional
    processing on every non-source row, the sink's included."""
    k = draw(st.integers(1, 2))
    p = draw(st.integers(k + 2, 6))
    n = draw(st.integers(k + 1, 4))
    edges = []
    for w in range(k, p):
        tails = draw(st.sets(st.integers(0, w - 1), min_size=w == p - 1))
        edges += [(u, w, draw(_SIZES)) for u in sorted(tails)]
    proc = np.zeros((p, n))
    proc[k:] = np.reshape(draw(st.lists(_SIZES, min_size=(p - k) * n,
                                        max_size=(p - k) * n)), (p - k, n))
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    links |= draw(st.sets(st.sampled_from([(u, v) for v in range(n) for u in range(v)])))
    roles = draw(st.permutations(range(n)))
    net = build_network(n, [(u, v, draw(_SIZES)) for u, v in sorted(links)],
                        roles[:k], roles[k])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cg = build_computation(p, edges, range(k), p - 1, proc)
    return cg, net


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(oracle_instances())
def test_property_block_scores_equal_the_scalar_scan(instance):
    cg, net = instance
    dm = apsp(net)
    emb, cost = brute_force_min_cost(cg, net, dm)
    ref_emb, ref_cost = reference_brute_force(cg, net, dm, "mincost")
    assert emb == ref_emb
    assert np.float64(cost).tobytes() == np.float64(ref_cost).tobytes()
    emb, rep = brute_force_min_delay(cg, net, dm)
    ref_emb, ref_rep = reference_brute_force(cg, net, dm, "mindelay")
    assert emb == ref_emb
    assert np.array(rep.per_vertex).tobytes() == np.array(ref_rep.per_vertex).tobytes()
    assert np.float64(rep.total).tobytes() == np.float64(ref_rep.total).tobytes()


class TestBlocks:
    def test_min_cost_on_a_cyclic_schema(self):
        cg, net = load_fixture("loop")
        assert not cg.is_dag
        dm = apsp(net)
        assert brute_force_min_cost(cg, net, dm) == reference_brute_force(cg, net, dm, "mincost")
        with pytest.raises(CyclicGraph):
            brute_force_min_delay(cg, net, dm)

    @staticmethod
    def star(proc_row):
        """Seven free vertices between one source and the sink of a 5-node
        path: 5**7 = 78,125 embeddings, more than four blocks."""
        net = build_network(5, [(v, v + 1, 1.0) for v in range(4)], sources=(0,), sink=4)
        edges = [(0, w, 0.0) for w in range(1, 8)] + [(w, 8, 0.0) for w in range(1, 8)]
        proc = np.zeros((9, 5))
        proc[1:8] = proc_row
        return build_computation(9, edges, (0,), 8, proc), net

    def test_first_embedding_wins_a_tie_across_blocks(self):
        cg, net = self.star(0.0)
        assert net.n ** 7 > 4 * BLOCK
        dm = apsp(net)
        first = (0,) * 8 + (4,)
        emb, cost = brute_force_min_cost(cg, net, dm)
        assert (emb.assignment, cost) == (first, 0.0)
        emb, rep = brute_force_min_delay(cg, net, dm)
        assert (emb.assignment, rep.total) == (first, 0.0)

    def test_unique_minimum_in_the_last_block(self):
        cg, net = self.star([1.0, 1.0, 1.0, 1.0, 0.0])
        dm = apsp(net)
        last = (0,) + (4,) * 8
        emb, cost = brute_force_min_cost(cg, net, dm)
        assert (emb.assignment, cost) == (last, 0.0)
        emb, rep = brute_force_min_delay(cg, net, dm)
        assert (emb.assignment, rep.total) == (last, 0.0)

    def test_enumeration_order_across_blocks(self):
        cg, net = self.star(0.0)
        assert [e.assignment for e in block_embeddings(cg, net)] == [
            (0, *images, 4) for images in itertools.product(range(5), repeat=7)
        ]

    def test_budget_boundary(self):
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        assert brute_force_min_cost(cg, net, dm, budget=512)[1] == 34
        assert brute_force_min_delay(cg, net, dm, budget=512)[1].total == 14
        message = "8^3 = 512 embeddings exceeds the budget of 511"
        for solve in (brute_force_min_cost, brute_force_min_delay):
            with pytest.raises(BudgetExceeded, match=re.escape(message)):
                solve(cg, net, dm, budget=511)
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            next(block_embeddings(cg, net, budget=511))
