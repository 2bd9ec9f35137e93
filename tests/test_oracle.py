import numpy as np
import pytest

from conftest import load_fixture, place_roles, random_tree_cg
from dagplace.errors import BudgetExceeded
from dagplace.harness import random_connected_network
from dagplace.metrics import embedding_delay
from dagplace.model import apsp, build_computation, build_network
from dagplace.oracle import (
    brute_force_min_cost,
    brute_force_min_delay,
    enumerate_embeddings,
)


def chain_on_triangle():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)],
                        sources=(0,), sink=2)
    cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 3)))
    return cg, net


class TestEnumeration:
    def test_chain_has_three(self):
        cg, net = chain_on_triangle()
        assert sum(1 for _ in enumerate_embeddings(cg, net)) == 3

    def test_prodsum_has_512(self):
        embs = list(enumerate_embeddings(*load_fixture("prodsum")))
        assert len(embs) == 512
        assert len({e.assignment for e in embs}) == 512

    def test_sources_wired_to_sink(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0, 1), sink=2)
        cg = build_computation(3, [(0, 2, 1.0), (1, 2, 1.0)], (0, 1), 2, np.zeros((3, 3)))
        assert sum(1 for _ in enumerate_embeddings(cg, net)) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_embeddings(*load_fixture("prodsum"), budget=100))


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
        totals = [embedding_delay(cg, dm, e).total for e in enumerate_embeddings(cg, net)]
        assert min(reversed(totals)) == brute_force_min_delay(cg, net, dm)[1].total
        from dagplace.metrics import embedding_cost

        costs = [embedding_cost(cg, dm, e) for e in enumerate_embeddings(cg, net)]
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
