import itertools

import numpy as np
import pytest

from conftest import place_roles
from dagplace import fixtures as fx
from dagplace.errors import BudgetExceeded, InvalidDecomposition
from dagplace.harness import random_connected_network, random_layered_cg
from dagplace.metrics import embedding_cost
from dagplace.model import apsp, build_computation, build_network, infer_layering
from dagplace.oracle import brute_force_min_cost
from dagplace.solver_layered import min_cost_layered
from dagplace.solver_treewidth import (
    check_decomposition,
    layered_path_decomposition,
    make_decomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)


class TestLayeredPathDecomposition:
    def test_prodsum_bags(self):
        cg = fx.prodsum_computation()
        td = layered_path_decomposition(infer_layering(cg), cg)
        assert td.bags == ((0, 1, 2, 3, 4), (3, 4, 5), (5, 6))
        assert td.width == 4

    def test_two_layers_single_bag(self):
        cg = build_computation(
            3, [(0, 2, 1.0), (1, 2, 1.0)], (0, 1), 2, np.zeros((3, 2))
        )
        td = layered_path_decomposition(infer_layering(cg), cg)
        assert td.bags == ((0, 1, 2),)
        assert td.tree_edges == ()

    def test_full_width_graph_hits_2k_minus_1(self):
        # k wide, fully connected between consecutive layers
        k, r = 3, 4
        p = k * (r - 1) + 1
        edges = []
        for l in range(r - 2):
            for u in range(k):
                for v in range(k):
                    edges.append((l * k + u, (l + 1) * k + v, 1.0))
        for u in range(k):
            edges.append(((r - 2) * k + u, p - 1, 1.0))
        cg = build_computation(p, edges, tuple(range(k)), p - 1, np.zeros((p, 2)))
        td = layered_path_decomposition(infer_layering(cg), cg)
        assert td.width == 2 * k - 1


class TestMinFill:
    def test_loop_schema_width_two(self):
        td = min_fill_decomposition(fx.loop_computation())
        assert td.width == 2
        check_decomposition(fx.loop_computation(), td.bags, td.tree_edges)

    def test_tree_width_one(self):
        assert min_fill_decomposition(fx.fanin_computation()).width == 1

    def test_triangle_width_two_and_no_width_one_exists(self):
        tri = build_computation(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        assert min_fill_decomposition(tri).width == 2
        # exhaustively: no decomposition with bags of size <= 2 is valid
        small_bags = [b for size in (1, 2) for b in itertools.combinations(range(3), size)]
        found = False
        for count in range(1, 5):
            for bags in itertools.combinations(small_bags, count):
                for tree in _all_trees(count):
                    try:
                        check_decomposition(tri, bags, tree)
                        found = True
                    except InvalidDecomposition:
                        pass
        assert not found


def _all_trees(count):
    if count == 1:
        yield []
        return
    nodes = range(count)
    for pairs in itertools.combinations(itertools.combinations(nodes, 2), count - 1):
        parent = list(nodes)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            yield [list(p) for p in pairs]


class TestMinCostTreewidth:
    def test_loop_schema_matches_brute_force(self):
        cg, net = fx.loop_computation(), fx.loop_network()
        dm = apsp(net)
        td = fx.loop_decomposition(cg)
        emb, cost = min_cost_treewidth(cg, td, net, dm)
        best = min(
            embedding_cost(cg, dm, e)
            for e in _cyclic_embeddings(cg, net)
        )
        assert cost == best
        assert embedding_cost(cg, dm, emb) == cost
        emb2, cost2 = min_cost_treewidth(cg, min_fill_decomposition(cg), net, dm)
        assert cost2 == best

    def test_single_bag_equals_enumeration(self):
        cg = fx.prodsum_computation()
        net = fx.prodsum_network()
        dm = apsp(net)
        td = make_decomposition(cg, [tuple(range(7))], [])
        emb, cost = min_cost_treewidth(cg, td, net, dm)
        _, best = brute_force_min_cost(cg, net, dm)
        assert cost == best

    def test_matches_oracle_and_layered(self):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 6))
            cg, ls = random_layered_cg(int(rng.integers(2, 5)), 2, n, rng)
            if cg.k + 1 > n:
                continue
            net = random_connected_network(n, rng, weight_range=(0, 5))
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, best = brute_force_min_cost(cg, pnet, dm)
            emb_f, cost_f = min_cost_treewidth(cg, min_fill_decomposition(cg), pnet, dm)
            assert cost_f == best
            assert embedding_cost(cg, dm, emb_f) == cost_f
            _, cost_l, _ = min_cost_layered(cg, ls, pnet, dm)
            _, cost_p = min_cost_treewidth(cg, layered_path_decomposition(ls, cg), pnet, dm)
            assert cost_p == cost_l == best
            checked += 1

    def test_layered_is_the_engine_on_the_path_decomposition(self):
        # non-integer weights, so any change in summation order shows in the cost
        weights = tuple(i / 10 for i in range(1, 14))
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 6))
            cg, ls = random_layered_cg(int(rng.integers(2, 6)), 2, n, rng, lam_choices=weights)
            if cg.k + 1 > n:
                continue
            proc = rng.choice(weights, size=(cg.p, n))
            proc[list(cg.sources)] = 0.0
            cg = build_computation(cg.p, cg.edges, cg.sources, cg.sink, proc)
            net = random_connected_network(n, rng)
            net = build_network(n, [(u, v, float(rng.choice(weights))) for u, v, _ in net.edges])
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            emb_l, cost_l, _ = min_cost_layered(cg, ls, pnet, dm)
            emb_p, cost_p = min_cost_treewidth(cg, layered_path_decomposition(ls, cg), pnet, dm)
            assert cost_l.hex() == cost_p.hex()
            assert emb_l.assignment == emb_p.assignment
            checked += 1

    def test_budget_counts_free_cells_only(self):
        cg = fx.prodsum_computation()
        net = fx.prodsum_network()
        dm = apsp(net)
        td = make_decomposition(cg, [tuple(range(7))], [])
        budget = net.n ** 3  # vertices 3, 4 and 5 are free; n**7 cells would not fit
        _, cost = min_cost_treewidth(cg, td, net, dm, budget=budget)
        assert cost == brute_force_min_cost(cg, net, dm)[1]
        with pytest.raises(BudgetExceeded):
            min_cost_treewidth(cg, td, net, dm, budget=budget - 1)

    def test_budget_guard(self):
        cg = fx.prodsum_computation()
        net = fx.prodsum_network()
        td = make_decomposition(cg, [tuple(range(7))], [])
        with pytest.raises(BudgetExceeded):
            min_cost_treewidth(cg, td, net, apsp(net), budget=10)


def _cyclic_embeddings(cg, net):
    from dagplace.metrics import Embedding

    free = [w for w in range(cg.p) if w not in cg.sources and w != cg.sink]
    base = [0] * cg.p
    for i, s in enumerate(cg.sources):
        base[s] = net.sources[i]
    base[cg.sink] = net.sink
    for images in itertools.product(range(net.n), repeat=len(free)):
        asg = base[:]
        for w, v in zip(free, images):
            asg[w] = v
        yield Embedding(tuple(asg))


class TestDecompositionValidation:
    def test_missing_edge_coverage(self):
        cg = fx.prodsum_computation()
        with pytest.raises(InvalidDecomposition):
            check_decomposition(cg, [(0, 1, 2, 3, 4), (5, 6)], [(0, 1)])

    def test_disconnected_occurrence(self):
        cg = build_computation(
            3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        with pytest.raises(InvalidDecomposition):
            check_decomposition(cg, [(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2)])

    def test_not_a_tree(self):
        cg = build_computation(
            3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        with pytest.raises(InvalidDecomposition):
            check_decomposition(cg, [(0, 1), (1, 2)], [])

    def test_every_emitted_decomposition_is_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            cg, ls = random_layered_cg(int(rng.integers(2, 5)), 3, n, rng)
            for td in (min_fill_decomposition(cg), layered_path_decomposition(ls, cg)):
                check_decomposition(cg, td.bags, td.tree_edges)
                # charging uniqueness: every vertex and edge has one home bag
                assert len(td.vertex_home) == cg.p
                assert len(td.edge_home) == cg.q
                for w, b in enumerate(td.vertex_home):
                    assert w in td.bags[b]
                for (a, b2, _), hb in zip(cg.edges, td.edge_home):
                    assert a in td.bags[hb] and b2 in td.bags[hb]
