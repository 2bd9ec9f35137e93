import itertools

import numpy as np
import pytest

from conftest import load_fixture
from dagplace.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    NegativeWeight,
    NotLayered,
    SelfLoop,
    SinkNotLast,
    UnknownNodeId,
    ValidationError,
)
from dagplace.harness import random_binary_tree_cg, random_connected_network, random_layered_cg
from dagplace.model import (
    apsp,
    build_computation,
    build_network,
    check_tree,
    extract_path,
    infer_layering,
    validate_layering,
)


def all_simple_paths(net, u: int, v: int):
    """Yield every simple u->v path; the oracle for shortest-path checks."""
    adj = net.adjacency()

    def rec(path, seen):
        x = path[-1]
        if x == v:
            yield list(path)
            return
        for y, _ in adj[x]:
            if y not in seen:
                path.append(y)
                seen.add(y)
                yield from rec(path, seen)
                seen.remove(y)
                path.pop()

    yield from rec([u], {u})


def path_weight(net, path) -> float:
    w = net.edge_weight()
    total = 0.0
    for a, b in itertools.pairwise(path):
        total += w[(min(a, b), max(a, b))]
    return total


def chain_cg(n_net=3):
    proc = np.zeros((3, n_net))
    return build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, proc)


class TestBuildNetwork:
    def test_reference_eight_node_description_is_valid(self):
        _, net = load_fixture("prodsum", net="net_alt")
        assert net.n == 8
        assert sorted(w for _, _, w in net.edges) == sorted([10, 1, 2, 12, 8, 1, 10, 4, 1, 1])

    def test_zero_weight_single_edge(self):
        net = build_network(2, [(0, 1, 0.0)], sources=(0,), sink=1)
        assert net.edges == ((0, 1, 0.0),)

    def test_disconnected_reports_components(self):
        with pytest.raises(DisconnectedGraph) as exc:
            build_network(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert exc.value.components == ((0, 1), (2, 3))

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_network(2, [(0, 1, -1.0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_network(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeId):
            build_network(2, [(0, 5, 1.0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_network(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_sink_equal_source_rejected_by_default(self):
        with pytest.raises(ValidationError):
            build_network(2, [(0, 1, 1.0)], sources=(0,), sink=0)
        net = build_network(2, [(0, 1, 1.0)], sources=(0,), sink=0, allow_sink_source=True)
        assert net.sink == 0


class TestApsp:
    def test_triangle(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        dm = apsp(net)
        assert dm.dist[0, 2] == 2
        assert extract_path(dm, 0, 2) == [0, 1, 2]

    def test_zero_diagonal_and_self_path(self):
        net = random_connected_network(9, np.random.default_rng(0))
        dm = apsp(net)
        assert (np.diag(dm.dist) == 0).all()
        assert extract_path(dm, 4, 4) == [4]

    def test_reference_network_two_hop(self):
        dm = apsp(load_fixture("prodsum", net="net_alt")[1])
        assert dm.dist[1, 6] == 3  # s2-a-d beats s2-b-d
        assert extract_path(dm, 1, 6) == [1, 3, 6]

    def test_fanin_path(self):
        dm = apsp(load_fixture("fanin")[1])
        assert dm.dist[1, 6] == 3
        assert extract_path(dm, 1, 6) == [1, 4, 5, 6]  # s2-i-j-k

    def test_metric_axioms_exhaustive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            net = random_connected_network(n, rng, weight_range=(0, 6))
            dm = apsp(net)
            assert (np.diag(dm.dist) == 0).all()
            assert (dm.dist == dm.dist.T).all()
            for u, v, w in itertools.product(range(n), repeat=3):
                assert dm.dist[u, w] <= dm.dist[u, v] + dm.dist[v, w]

    def test_metric_axioms_fifty_nodes(self):
        net = random_connected_network(50, np.random.default_rng(8), weight_range=(0, 9))
        d = apsp(net).dist
        assert (np.diag(d) == 0).all()
        assert (d == d.T).all()
        # every triple at once: d[u,w] <= d[u,v] + d[v,w]
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()

    def test_path_weights_match_distances(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            net = random_connected_network(n, rng, weight_range=(0, 5))
            dm = apsp(net)
            for u in range(n):
                for v in range(n):
                    path = extract_path(dm, u, v)
                    assert path_weight(net, path) == dm.dist[u, v]

    def test_lexicographic_tie_break_vs_enumeration(self):
        # positive weights: the chosen path is the lexicographically smallest
        # among all minimum-weight simple paths
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            net = random_connected_network(n, rng, weight_range=(1, 3))
            dm = apsp(net)
            for u in range(n):
                for v in range(n):
                    if u == v:
                        continue
                    best = min(
                        all_simple_paths(net, u, v),
                        key=lambda p: (path_weight(net, p), p),
                    )
                    assert extract_path(dm, u, v) == best


class TestLayering:
    def test_prodsum_layers(self):
        ls = infer_layering(load_fixture("prodsum")[0])
        assert ls.r == 4 and ls.k == 3
        assert ls.layers() == ((0, 1, 2), (3, 4), (5,), (6,))

    def test_single_edge(self):
        ls = infer_layering(chain_cg())
        assert (ls.r, ls.k) == (3, 1)
        cg = build_computation(2, [(0, 1, 1.0)], (0,), 1, np.zeros((2, 2)))
        ls = infer_layering(cg)
        assert (ls.r, ls.k) == (2, 1)

    def test_skip_edge_rejected(self):
        # diamond with a skip edge: 0 -> 1 -> 2 and 0 -> 2
        cg = build_computation(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        with pytest.raises(NotLayered):
            infer_layering(cg)

    def test_sink_not_alone(self):
        cg = build_computation(
            3, [(0, 1, 1.0), (0, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        with pytest.raises(SinkNotLast):
            infer_layering(cg)

    def test_generator_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            cg, ls = random_layered_cg(int(rng.integers(2, 6)), 3, 4, rng)
            inferred = infer_layering(cg)
            assert inferred.layer == ls.layer
            assert (inferred.r, inferred.k) == (ls.r, ls.k)
            validate_layering(cg, ls)


class TestCheckTree:
    def test_fanin_is_tree(self):
        assert check_tree(load_fixture("fanin")[0])

    def test_prodsum_is_not(self):
        assert not check_tree(load_fixture("prodsum")[0])

    def test_single_edge(self):
        cg = build_computation(2, [(0, 1, 1.0)], (0,), 1, np.zeros((2, 2)))
        assert check_tree(cg)

    def test_generated_binary_trees(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = int(rng.integers(3, 33))
            assert check_tree(random_binary_tree_cg(p, 4, rng))
