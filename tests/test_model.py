import dataclasses
import heapq
import itertools
import warnings
from collections import Counter, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    load_fixture,
    random_connected_network,
    reference_components,
    reference_path_tree,
)
from dagplace import model
from dagplace.errors import (
    CyclicGraph,
    DisconnectedGraph,
    DuplicateEdge,
    NegativeWeight,
    NotLayered,
    SelfLoop,
    SinkNotLast,
    UnknownNodeId,
    ValidationError,
)
from dagplace.harness import (
    random_binary_tree_cg,
    random_layered_cg,
    random_network,
)
from dagplace.metrics import Embedding, embedding_delay, max_link_usage, route_edges
from dagplace.oracle import brute_force_min_cost, brute_force_min_delay
from dagplace.solver_layered import min_cost_layered
from dagplace.solver_tree import min_delay_collapse, min_delay_tree
from dagplace.solver_treewidth import min_cost_treewidth, min_fill_decomposition
from dagplace.model import (
    DistanceMatrix,
    NetworkGraph,
    apsp,
    build_computation,
    build_network,
    check_tree,
    extract_path,
    extract_paths,
    infer_layering,
    validate_layering,
)


def adjacency(net):
    """Sorted (neighbour, weight) lists of each node."""
    adj = [[] for _ in range(net.n)]
    for u, v, w in net.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return [sorted(a) for a in adj]


def all_simple_paths(net, u: int, v: int):
    """Yield every simple u->v path; the oracle for shortest-path checks."""
    adj = adjacency(net)

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
    w = {(u, v): x for u, v, x in net.edges}
    total = 0.0
    for a, b in itertools.pairwise(path):
        total += w[(min(a, b), max(a, b))]
    return total


def reference_apsp(net):
    """One Dijkstra per source whose heap keys are (distance, node sequence):
    the oracle for ``apsp``.  Returns the distance matrix and the predecessor
    of each node on its chosen path (u itself for the source u)."""
    n = net.n
    adj = adjacency(net)
    dist = np.full((n, n), np.inf)
    pred = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        heap = [(0.0, (s,))]
        done = [False] * n
        while heap:
            d, path = heapq.heappop(heap)
            v = path[-1]
            if done[v]:
                continue
            done[v] = True
            dist[s, v] = d
            pred[s, v] = path[-2] if len(path) > 1 else s
            for w, wt in adj[v]:
                if not done[w]:
                    heapq.heappush(heap, (d + wt, path + (w,)))
    return dist, pred


def reference_path(pred, u: int, v: int) -> list[int]:
    out = [v]
    while out[-1] != u:
        out.append(int(pred[u, out[-1]]))
    return out[::-1]


def rule_path(net, d, u: int, v: int) -> list[int]:
    """The documented path rule, by enumeration: the lexicographically
    smallest simple u->v path whose links are tight and raise (dist, hops)."""
    adj = adjacency(net)
    tight = {(x, y) for x in range(net.n) for y, wt in adj[x] if d[u, x] + wt == d[u, y]}
    hops = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y, _ in adj[x]:
            if y not in hops and (x, y) in tight:
                hops[y] = hops[x] + 1
                queue.append(y)

    def allowed(a, b):
        return (a, b) in tight and (d[u, a], hops[a]) < (d[u, b], hops[b])

    return min(p for p in all_simple_paths(net, u, v)
               if all(allowed(a, b) for a, b in itertools.pairwise(p)))


def assert_networkx_distances(net, d):
    """Every row of ``d`` equals networkx's Dijkstra lengths exactly."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(net.n))
    g.add_weighted_edges_from(net.edges)
    for u in range(net.n):
        lengths = nx.single_source_dijkstra_path_length(g, u)
        assert [lengths[v] for v in range(net.n)] == d[u].tolist()


def scaled_network(rng, n, den, lo):
    """Random connected n-node network with weights k/den, k in lo..9."""
    net = random_connected_network(n, rng, weight_range=(lo, 9))
    return build_network(n, [(a, b, wt / den) for a, b, wt in net.edges])


def differential_networks():
    """The bundled networks, 300 small seeded random ones (weights k/1,
    k/10, k/3, k/7, half of them with zeros) and two of 40 nodes with
    weights k/7."""
    nets = [load_fixture(name, net=kind)[1] for name, kind in
            [("prodsum", "net"), ("prodsum", "net_alt"), ("fanin", "net"),
             ("ladder", "net"), ("loop", "net")]]
    rng = np.random.default_rng(11)
    for i in range(300):
        nets.append(scaled_network(rng, int(rng.integers(1, 11)), (1, 10, 3, 7)[i % 4], i % 2))
    for seed in (1, 2):
        net = random_network(40, 0.15, seed, "randint", weight_range=(1, 9))
        nets.append(build_network(40, [(a, b, wt / 7) for a, b, wt in net.edges]))
    return nets


@st.composite
def weighted_networks(draw):
    """Connected networks of 1-12 nodes: a random spanning tree plus any
    further links, with weights k/den for k in 0..9 and den 1, 10, 3 or 7."""
    n = draw(st.integers(1, 12))
    den = draw(st.sampled_from((1, 10, 3, 7)))
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        links |= draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    ks = draw(st.lists(st.integers(0, 9), min_size=len(links), max_size=len(links)))
    return build_network(n, [(u, v, k / den) for (u, v), k in zip(sorted(links), ks)])


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

    def test_components_match_the_reference_search(self):
        # the same components, in the same order, on sparse random graphs
        rng = np.random.default_rng(13)
        disconnected = 0
        for _ in range(300):
            n, p_r = int(rng.integers(1, 13)), rng.choice((0.05, 0.15, 0.4))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_r]
            edges = [(u, v, 1.0) for u, v in pairs]
            ref = [sorted(c) for c in reference_components(n, edges)]
            ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            assert list(model._components(n, ends[:, 0], ends[:, 1])) == ref
            if len(ref) > 1:
                disconnected += 1
                with pytest.raises(DisconnectedGraph) as exc:
                    build_network(n, edges[::-1])
                assert exc.value.components == tuple(map(tuple, ref))
                assert str(exc.value).endswith(", ".join(map(str, ref)))
            else:
                assert build_network(n, edges[::-1]).edges == tuple(edges)
        assert disconnected > 100

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_network(2, [(0, 1, -1.0)])

    def test_non_finite_weight(self):
        for w in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="non-finite"):
                build_network(2, [(0, 1, w)])
        with pytest.raises(NegativeWeight):
            build_network(2, [(0, 1, float("-inf"))])

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


    def test_matches_reference_dijkstra(self):
        # distances bit for bit everywhere; paths pair for pair when every
        # weight is positive (zero-weight ties follow the documented rule)
        compared = 0
        for net in differential_networks():
            dm = apsp(net)
            dist, pred = reference_apsp(net)
            assert dm.dist.tobytes() == dist.tobytes()
            if all(wt > 0 for _, _, wt in net.edges):
                for u, v in itertools.product(range(net.n), repeat=2):
                    assert extract_path(dm, u, v) == reference_path(pred, u, v)
                    compared += 1
        assert compared > 10000

    def test_distances_match_networkx(self):
        for net in differential_networks():
            assert_networkx_distances(net, apsp(net).dist)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(weighted_networks())
    def test_property_matches_reference_and_networkx(self, net):
        d = apsp(net).dist
        assert d.tobytes() == reference_apsp(net)[0].tobytes()
        assert_networkx_distances(net, d)

    @pytest.mark.parametrize("n, den, seed", [(64, 7, 1), (150, 10, 2), (200, 7, 3),
                                              (64, 1, 4), (150, 1, 5), (200, 1, 6)])
    def test_large_networks_match_reference_dijkstra(self, n, den, seed):
        # sparse, so shortest paths run over many links of fractional weight,
        # or of integer weight (zeros included) through Floyd-Warshall
        net = random_network(n, 4 / n, seed, "randint", weight_range=(0, 9))
        net = build_network(n, [(a, b, wt / den) for a, b, wt in net.edges])
        dm, branch = _apsp_branch(net)
        assert branch == ("fw" if den == 1 else "dijkstra")
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()

    def test_unreachable_node_has_no_path(self):
        # NetworkGraph built directly, past build_network's connectivity
        # check: no path may run over a link that is not there
        dm = apsp(NetworkGraph(n=3, edges=((0, 1, 1.0),)))
        assert dm.dist[0, 2] == np.inf
        assert extract_path(dm, 0, 1) == [0, 1]
        with pytest.raises(ValidationError, match="no path"):
            extract_path(dm, 0, 2)

    def test_nan_weight_ends_the_sweep(self):
        # build_network rejects NaN; built directly, the sweep still ends
        dm = apsp(NetworkGraph(n=3, edges=((0, 1, 1.0), (1, 2, float("nan")))))
        assert np.isnan(dm.dist[0, 2])

    def test_overflowing_relaxations_raise_no_warning(self):
        # sums such as 1e308 + 1e308 back over a link overflow to inf; no
        # distance does, and inf is the intended result of those that do
        net = build_network(3, [(0, 1, 1e308), (1, 2, 1e307)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dm, branch = _apsp_branch(net)
        assert branch == "dijkstra"  # integers, but the total is past 2**52
        assert dm.dist[0, 2] == 1e308 + 1e307
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()

    def test_paths_are_built_per_source_and_kept(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        dm = apsp(net)
        assert not hasattr(dm, "pred")
        assert extract_paths(dm, [(0, 0), (0, 1), (0, 2)]) == [[0], [0, 1], [0, 1, 2]]
        assert extract_path(dm, 0, 2) == [0, 1, 2]
        assert dm.weight[0, 2] == 3 and dm.weight[0, 0] == np.inf


# a flat link (3-4) tied with a path of positive links
MIXED_TIE = build_network(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 4, 1.0), (0, 3, 3.0), (3, 4, 0.0)])


class TestZeroWeightTies:
    """With zero-weight links a path may not walk a flat link that does not
    raise h, the fewest tight links from the source.  Where every tie runs
    through flat links, as in the first three cases, the chosen path is the
    lexicographically smallest of the fewest-hop shortest paths."""

    @staticmethod
    def assert_fewest_hop_lexicographic(net):
        dm = apsp(net)
        for u, v in itertools.product(range(net.n), repeat=2):
            path = extract_path(dm, u, v)
            assert len(set(path)) == len(path)
            assert path_weight(net, path) == dm.dist[u, v]
            shortest = [p for p in all_simple_paths(net, u, v)
                        if path_weight(net, p) == dm.dist[u, v]]
            fewest = min(map(len, shortest))
            assert path == min(p for p in shortest if len(p) == fewest)

    def test_zero_weight_cycle(self):
        # 1-2-3 is a zero-weight triangle between two unit links
        net = build_network(5, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 0.0), (1, 3, 0.0),
                                (3, 4, 1.0)])
        self.assert_fewest_hop_lexicographic(net)
        assert extract_path(apsp(net), 0, 4) == [0, 1, 3, 4]

    def test_zero_weight_shortcut_beats_smaller_labels(self):
        # 0-1-2 and 0-2 both cost nothing: the one-hop way wins, where the
        # reference Dijkstra took the lexicographically smaller 0-1-2
        net = build_network(4, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0), (2, 3, 1.0)])
        self.assert_fewest_hop_lexicographic(net)
        assert extract_path(apsp(net), 0, 3) == [0, 2, 3]
        assert reference_path(reference_apsp(net)[1], 0, 3) == [0, 1, 2, 3]

    def test_all_zero_network(self):
        # every path is shortest: the fewest hops, then the smallest labels
        net = build_network(6, [(0, 1, 0.0), (0, 2, 0.0), (1, 3, 0.0), (2, 3, 0.0),
                                (3, 4, 0.0), (4, 5, 0.0), (1, 5, 0.0)])
        self.assert_fewest_hop_lexicographic(net)
        assert extract_path(apsp(net), 0, 3) == [0, 1, 3]
        assert extract_path(apsp(net), 2, 5) == [2, 0, 1, 5]

    def test_positive_tight_links_also_count_hops(self):
        # 0-1-2-4 and 0-3-4 both weigh 3; the flat link 3-4 raises h
        # (h[3] = 1, h[4] = 2), so both are allowed and the smaller labels
        # win over the fewest hops, as in the reference
        net = MIXED_TIE
        dm = apsp(net)
        assert extract_path(dm, 0, 4) == [0, 1, 2, 4]
        assert reference_path(reference_apsp(net)[1], 0, 4) == [0, 1, 2, 4]
        assert path_weight(net, [0, 3, 4]) == dm.dist[0, 4]

    def test_rule_on_random_networks(self):
        # the documented rule, enumerated, on small networks full of zeros
        rng = np.random.default_rng(12)
        nets = [MIXED_TIE]
        for i in range(60):
            net = random_connected_network(int(rng.integers(2, 7)), rng, weight_range=(0, 2))
            nets.append(build_network(net.n, [(a, b, wt / (1, 10, 3)[i % 3])
                                              for a, b, wt in net.edges]))
        for net in nets:
            dm = apsp(net)
            for u, v in itertools.product(range(net.n), repeat=2):
                path = extract_path(dm, u, v)
                assert path_weight(net, path) == dm.dist[u, v]
                assert path == rule_path(net, dm.dist, u, v)


def _draw_links(draw, n: int) -> list[tuple[int, int]]:
    """Links of a connected n-node network, sparse (a random spanning tree
    plus a few links) or dense (every pair but a few)."""
    pairs = set(itertools.combinations(range(n), 2))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    few = draw(st.sets(st.sampled_from(sorted(pairs)))) if pairs else set()
    return sorted(tree | (pairs - few if draw(st.booleans()) else few))


@st.composite
def route_networks(draw, exact=False):
    """Connected networks of 2-14 nodes, sparse or dense (``_draw_links``),
    with weights k/den for k in 0..hi: with hi = 1 about half the links weigh
    nothing.  ``exact`` draws den = 1 and k in 1..hi, so every weight is a
    positive integer."""
    n = draw(st.integers(2, 14))
    den = 1 if exact else draw(st.sampled_from((1, 10, 3, 7)))
    hi = draw(st.sampled_from((1, 3, 9)))
    links = _draw_links(draw, n)
    ks = draw(st.lists(st.integers(int(exact), hi), min_size=len(links), max_size=len(links)))
    return build_network(n, [(u, v, k / den) for (u, v), k in zip(links, ks)])


@st.composite
def one_weight_networks(draw):
    """Connected networks of 1-14 nodes, sparse or dense (``_draw_links``),
    whose links all weigh one c: zero, fractional, integer, or so large that
    two hops overflow to inf."""
    n = draw(st.integers(1, 14))
    c = draw(st.sampled_from((0.0, 0.1, 1 / 3, 1.0, 3.0, 1e308)))
    return build_network(n, [(u, v, c) for u, v in _draw_links(draw, n)])


@st.composite
def embeddings(draw, exact=False):
    """(computation DAG, network, embedding): 2-10 vertices, each fed by an
    earlier one, plus further forward edges, in any order; every vertex on
    any node, so the routed pairs cover source rows in any order and number."""
    net = draw(route_networks(exact))
    p = draw(st.integers(2, 10))
    edges = {(draw(st.integers(0, b - 1)), b) for b in range(1, p)}
    edges |= draw(st.sets(st.sampled_from(list(itertools.combinations(range(p), 2)))))
    edges = draw(st.permutations(sorted(edges)))
    cg = build_computation(p, [(a, b, 1.0) for a, b in edges], (0,), p - 1, np.zeros((p, net.n)))
    images = draw(st.lists(st.integers(0, net.n - 1), min_size=p, max_size=p))
    return cg, net, Embedding(tuple(images))


def _walk(parents, u: int, v: int) -> list[int]:
    path = [v]
    while path[-1] != u:
        path.append(parents[path[-1]])
    return path[::-1]


def _reference_paths(dm, pairs) -> list[list[int]]:
    trees = {}
    return [_walk(trees.setdefault(u, reference_path_tree(dm.dist[u], dm.weight, u)), u, v)
            for u, v in pairs]


def _most_crossings(routes) -> int:
    """Largest number of ``routes`` that cross one link, either way; 0 if none."""
    crossings = Counter((min(x, y), max(x, y)) for path in routes for x, y in zip(path, path[1:]))
    return max(crossings.values(), default=0)


class TestRouteTrees:
    """On an inexact network ``extract_paths`` builds the route tree of each
    source it needs, for that call; every path must equal a walk of
    ``reference_path_tree``, which builds a row over the dense link matrix,
    whether all pairs are asked for in one call or one pair per call."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(embeddings())
    def test_property_routes_equal_the_reference_trees(self, inst):
        cg, net, e = inst
        dm = apsp(net)
        assume(not dm._exact)  # exact networks are walked greedily (TestGreedyRoutes)
        pairs = list(itertools.product(range(net.n), repeat=2))
        assert extract_paths(dm, pairs) == _reference_paths(dm, pairs)
        routed = [(e[a], e[b]) for a, b, _ in cg.edges]
        routes = _reference_paths(dm, routed)
        assert route_edges(cg, dm, e) == routes
        # one link count builds one route tree per source that leaves its node
        with _route_trees() as tree:
            assert max_link_usage(cg, dm, e) == _most_crossings(routes)
        assert sorted(c.args[1] for c in tree.call_args_list) == sorted({u for u, v in routed
                                                                        if u != v})

    def test_differential_networks_all_pairs_and_pair_by_pair(self):
        # every pair of every network, in one call, and one call per pair
        for net in differential_networks():
            dm = apsp(net)
            pairs = [(u, v) for u in range(net.n) for v in range(net.n)]
            paths = extract_paths(dm, pairs)
            assert paths == [extract_path(dm, u, v) for u, v in pairs]
            assert paths == _reference_paths(dm, pairs)


def _route_trees():
    """Context manager that wraps ``model._route_tree`` to record its calls."""
    return mock.patch.object(model, "_route_tree", wraps=model._route_tree)


class TestGreedyRoutes:
    """When every link weight is a positive integer and every distance is
    below 2**53, path sums are exact: ``extract_paths`` walks the chosen
    paths greedily, all pairs in lock step, and ``max_link_usage`` counts
    their link crossings without building them.  Any other network keeps the
    route trees."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(embeddings(exact=True))
    def test_property_greedy_walks_equal_the_route_tree_reference(self, inst):
        cg, net, e = inst
        dm = apsp(net)
        assert dm._exact
        pairs = list(itertools.product(range(net.n), repeat=2))
        routes = _reference_paths(dm, [(e[a], e[b]) for a, b, _ in cg.edges])
        with _route_trees() as tree:
            assert extract_paths(dm, pairs) == _reference_paths(dm, pairs)
            assert max_link_usage(cg, dm, e) == _most_crossings(routes)
        assert not tree.called

    @pytest.mark.parametrize("edges, exact", [
        ([(0, 1, 1.0), (1, 2, 2.0)], True),
        ([(0, 1, 0.5), (1, 2, 0.0)], False),
    ])
    def test_no_pairs_and_no_hops(self, edges, exact):
        # no pair routes no path, and edges that stay on one node cross no link
        dm = apsp(build_network(3, edges))
        assert dm._exact == exact
        assert extract_paths(dm, []) == []
        cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], (0,), 2,
                               np.zeros((3, 3)))
        with _route_trees() as tree:
            for x in range(3):
                assert max_link_usage(cg, dm, Embedding((x, x, x))) == 0
        assert not tree.called

    @pytest.mark.parametrize("n, edges, u, v, path", [
        (5, MIXED_TIE.edges, 0, 4, [0, 1, 2, 4]),  # a zero-weight link
        # 0.1 + 0.2 > 0.3 in floats, so the direct link is the shorter way
        (3, [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)], 0, 2, [0, 2]),
        # 2**53 + 1 rounds to 2**53, the distance 0 -> 2
        (3, [(0, 1, 2.0**53), (1, 2, 1.0), (0, 2, 2.0**53 + 2)], 0, 2, [0, 1, 2]),
    ])
    def test_inexact_networks_keep_the_route_trees(self, n, edges, u, v, path):
        net = build_network(n, edges)
        dm = apsp(net)
        assert not dm._exact
        pairs = list(itertools.product(range(net.n), repeat=2))
        with _route_trees() as tree:
            assert extract_path(dm, u, v) == path
            assert extract_paths(dm, pairs) == _reference_paths(dm, pairs)
        assert tree.called

    def test_unreachable_pair_keeps_the_route_trees(self):
        inf = np.inf
        dm = DistanceMatrix(dist=np.array([[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]]),
                            weight=np.array([[inf, 1.0, inf], [1.0, inf, inf], [inf, inf, inf]]))
        assert not dm._exact
        with _route_trees() as tree:
            assert extract_path(dm, 0, 1) == [0, 1]
            with pytest.raises(ValidationError, match="no path from 0 to 2"):
                extract_path(dm, 0, 2)
        assert tree.called


def _apsp_branch(net) -> tuple[DistanceMatrix, str]:
    """``apsp(net)`` and the branch it took: "hop" (the hop levels), "fw"
    (Floyd-Warshall) or "dijkstra" (the lock-step loop)."""
    with (mock.patch.object(model, "_hop_levels", wraps=model._hop_levels) as hop,
          mock.patch.object(model, "_floyd_warshall", wraps=model._floyd_warshall) as fw):
        dm = apsp(net)
    return dm, "hop" if hop.called else "fw" if fw.called else "dijkstra"


class TestHopLevels:
    """A network whose links all weigh one c, 0 <= c < inf, takes breadth-first
    hop levels, with the lock-step Dijkstra's floats.  A network of integer
    weights takes Floyd-Warshall (``TestFloydWarshall``); every other one
    keeps the Dijkstra."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(one_weight_networks())
    def test_property_hop_levels_equal_the_reference(self, net):
        dm, branch = _apsp_branch(net)
        assert branch == "hop"
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()
        assert_networkx_distances(net, dm.dist)

    @pytest.mark.parametrize("net", [
        build_network(1, []),
        # eight 0.1s sum to 0.7999999999999999, not 8 * 0.1
        build_network(12, [(i, i + 1, 0.1) for i in range(11)]),
        load_fixture("fanin")[1],
        load_fixture("loop")[1],
    ], ids=["one-node", "chain", "fanin", "loop"])
    def test_one_weight_networks_take_hop_levels(self, net):
        dm, branch = _apsp_branch(net)
        assert branch == "hop"
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()

    def test_unreachable_pairs_stay_inf(self):
        # NetworkGraph built directly, past build_network's connectivity check
        net = NetworkGraph(n=5, edges=((0, 1, 2.0), (1, 2, 2.0), (3, 4, 2.0)))
        dm, branch = _apsp_branch(net)
        assert branch == "hop"
        assert dm.dist[0, 2] == 4.0 and (dm.dist[:3, 3:] == np.inf).all()
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()

    def test_negative_zero_weights_are_stored_as_zero(self):
        net = build_network(3, [(0, 1, -0.0), (1, 2, -0.0)])
        assert not any(np.signbit(w) for _, _, w in net.edges)
        dm, branch = _apsp_branch(net)
        assert branch == "hop"
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()

    @pytest.mark.parametrize("edges, d02", [
        (((0, 1, 1.0), (1, 2, 2.5)), 3.5),  # mixed weights, one fractional
        (((0, 1, 1.0), (1, 2, np.nan)), np.nan),
        (((0, 1, np.nan), (1, 2, np.nan)), np.nan),
        (((0, 1, -0.0), (1, 2, -0.0)), 0.0),  # np.minimum carries the sign of zero
        (((0, 1, 0.0), (1, 2, -0.0)), 0.0),
        (((0, 1, 2.0**52), (1, 2, 1.0)), 2.0**52 + 1),  # integers, but a total past 2**52
        (((0, 1, 1.5e308), (1, 2, 1.7e308)), np.inf),  # a total that overflows
    ], ids=["mixed-fractional", "one-nan", "all-nan", "negative-zero", "mixed-zeros",
            "total-past-2**52", "total-overflows"])
    def test_other_networks_keep_the_lock_step_loop(self, edges, d02):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dm, branch = _apsp_branch(NetworkGraph(n=3, edges=edges))
        assert branch == "dijkstra"
        assert np.array_equal(dm.dist[0, 2], d02, equal_nan=True)


@st.composite
def integer_networks(draw):
    """Connected networks of 1-14 nodes, sparse or dense (``_draw_links``),
    whose weights are k times 1, 2**40 + 1 or 2**50 + 3 for k in 0..9: zeros
    included, and totals on both sides of 2**52."""
    n = draw(st.integers(1, 14))
    scale = draw(st.sampled_from((1, 2**40 + 1, 2**50 + 3)))
    links = _draw_links(draw, n)
    ks = draw(st.lists(st.integers(0, 9), min_size=len(links), max_size=len(links)))
    return build_network(n, [(u, v, float(k * scale)) for (u, v), k in zip(links, ks)])


class TestFloydWarshall:
    """A network whose links weigh non-negative integers, not all one, with a
    total of at most 2**52 takes Floyd-Warshall, with the lock-step
    Dijkstra's floats."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(integer_networks())
    def test_property_integer_networks_equal_the_reference(self, net):
        weights = [w for _, _, w in net.edges]
        dm, branch = _apsp_branch(net)
        assert branch == ("hop" if len(set(weights)) <= 1 else
                          "fw" if sum(weights) <= 2**52 else "dijkstra")
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()
        assert_networkx_distances(net, dm.dist)

    @pytest.mark.parametrize("edges, d02", [
        (((0, 1, 1.0), (1, 2, 2.0)), 3.0),
        (((0, 1, 0.0), (1, 2, 5.0)), 5.0),
        (((0, 1, 2.0**52 - 1), (1, 2, 1.0)), 2.0**52),  # the largest total it takes
    ], ids=["mixed-integers", "zero-and-five", "total-2**52"])
    def test_integer_networks_take_floyd_warshall(self, edges, d02):
        net = NetworkGraph(n=3, edges=edges)
        dm, branch = _apsp_branch(net)
        assert branch == "fw"
        assert dm.dist[0, 2] == d02
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()

    def test_unreachable_pairs_stay_inf(self):
        # NetworkGraph built directly, past build_network's connectivity check
        net = NetworkGraph(n=5, edges=((0, 1, 2.0), (1, 2, 3.0), (3, 4, 0.0)))
        dm, branch = _apsp_branch(net)
        assert branch == "fw"
        assert dm.dist[0, 2] == 5.0 and (dm.dist[:3, 3:] == np.inf).all()
        assert dm.dist.tobytes() == reference_apsp(net)[0].tobytes()


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


class TestComputationGraph:
    def test_in_edges_are_built_once(self):
        cg = load_fixture("prodsum")[0]
        assert cg.in_edges() is cg.in_edges()
        for b in range(cg.p):
            assert cg.in_edges()[b] == tuple((a, lam) for a, h, lam in cg.edges if h == b)

    def test_replace_rebuilds_them(self):
        cg = dataclasses.replace(chain_cg(), edges=((0, 2, 1.0), (1, 2, 2.0)))
        assert cg.in_edges() == ((), (), ((0, 1.0), (1, 2.0)))
        assert cg.out_edges() == ((0,), (1,), ())
        # rewiring 0->1->2->3 to 0->2->1->3 reorders it, and so its delay
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
        proc = np.zeros((4, 3))
        proc[2] = 3.0
        chain = build_computation(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], (0,), 3, proc)
        edges = ((0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0))
        rewired = dataclasses.replace(chain, edges=edges)
        fresh = build_computation(4, edges, (0,), 3, proc)
        assert rewired.topological_order() == fresh.topological_order() == (0, 2, 1, 3)
        dm, e = apsp(net), Embedding((0, 2, 0, 2))
        assert embedding_delay(rewired, dm, e) == embedding_delay(fresh, dm, e)
        assert embedding_delay(fresh, dm, e).total == 5.0
        # ready vertices leave smallest first: 1 before 2, though 2 was ready first
        fork_edges = ((0, 2, 1.0), (0, 1, 1.0), (2, 3, 1.0), (1, 3, 1.0))
        fork = dataclasses.replace(chain, edges=fork_edges)
        assert fork.topological_order() == (0, 1, 2, 3)
        # closing a cycle leaves no order
        cyclic = dataclasses.replace(chain, edges=chain.edges + ((3, 1, 1.0),))
        assert not cyclic.is_dag
        with pytest.raises(CyclicGraph):
            cyclic.topological_order()
        # out-edges are the edge indices of each tail, ascending
        for name in ("prodsum", "fanin", "ladder", "loop"):
            cg = load_fixture(name)[0]
            for g in (cg, dataclasses.replace(cg, edges=cg.edges[::-1])):
                for a in range(g.p):
                    assert g.out_edges()[a] == tuple(
                        i for i, (t, _, _) in enumerate(g.edges) if t == a
                    )

    def test_warnings_name_unfed_and_undrained_vertices(self):
        # 1 and 2 are fed by no source, 3 drains into no sink
        edges = [(0, 4, 1.0), (1, 2, 1.0), (2, 4, 1.0), (0, 3, 1.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_computation(5, edges, (0,), 4, np.zeros((5, 2)))
        assert [str(w.message) for w in caught] == [
            "vertex 1 has no inputs but is not a declared source",
            "vertices [1, 2, 3] lie on no source-to-sink path",
        ]

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_property_off_path_warning_matches_networkx(self, data):
        # edges i -> j with i < j, so p - 1 has no out-edges and can be the
        # sink; the sources are some of the vertices without in-edges, so the
        # rest of those are strays, and vertices that reach no sink dead-end
        nx = pytest.importorskip("networkx")
        p = data.draw(st.integers(2, 12))
        pairs = list(itertools.combinations(range(p), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * p))
        heads = {b for _, b in edges}
        sources = data.draw(st.lists(st.sampled_from([v for v in range(p - 1) if v not in heads]),
                                     min_size=1, unique=True))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_computation(p, [(a, b, 1.0) for a, b in edges], sources, p - 1,
                              np.zeros((p, 1)))
        named = [str(w.message) for w in caught if "source-to-sink" in str(w.message)]
        g = nx.DiGraph(edges)
        g.add_nodes_from(range(p))
        fed = set(sources).union(*(nx.descendants(g, s) for s in sources))
        drains = {p - 1} | nx.ancestors(g, p - 1)
        off = sorted(set(range(p)) - (fed & drains))
        assert named == ([f"vertices {off} lie on no source-to-sink path"] if off else [])

    def test_non_finite_sizes_and_processing(self):
        for x in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="non-finite weight"):
                build_computation(2, [(0, 1, x)], (0,), 1, [[0.0], [1.0]])
            with pytest.raises(ValidationError, match="non-finite entries"):
                build_computation(2, [(0, 1, 1.0)], (0,), 1, [[0.0], [x]])
        with pytest.raises(NegativeWeight):
            build_computation(2, [(0, 1, float("-inf"))], (0,), 1, [[0.0], [1.0]])


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


# every solver pins through model.pinned_images; an entry takes (cg, net, dm)
SOLVERS = {
    "min_delay_tree": min_delay_tree,
    "min_delay_collapse": min_delay_collapse,
    "min_cost_layered": lambda cg, net, dm: min_cost_layered(cg, infer_layering(cg), net, dm),
    "min_cost_treewidth":
        lambda cg, net, dm: min_cost_treewidth(cg, min_fill_decomposition(cg), net, dm),
    "brute_force_min_cost": brute_force_min_cost,
    "brute_force_min_delay": brute_force_min_delay,
}


@pytest.mark.parametrize("roles", [((0, 1), 3), ((), None)], ids=["extra-source", "no-roles"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_refuse_roles_that_do_not_match(solver, roles):
    # the chain is a tree, layered and collapsible, so only the roles are wrong
    net = build_network(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], *roles)
    with pytest.raises(ValidationError, match="network roles do not match the computation graph"):
        SOLVERS[solver](chain_cg(4), net, apsp(net))


def test_array_holding_types_compare_and_hash_by_identity():
    # the generated __eq__ compared ndarrays: == raised ValueError and hash() TypeError
    def solved():
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        return cg, dm, min_cost_layered(cg, infer_layering(cg), net, dm)[2]

    for a, b in zip(solved(), solved()):
        assert (a == b) is False
        assert (a == a) is True
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
