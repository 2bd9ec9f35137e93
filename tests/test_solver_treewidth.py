import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    load_decomposition_fixture,
    load_fixture,
    place_roles,
    random_connected_network,
    random_tree_cg,
    reference_brute_force,
    reference_min_fill,
    reference_solve_bags,
)
from dagplace.errors import BudgetExceeded, InvalidDecomposition
from dagplace.harness import random_layered_cg
from dagplace.metrics import embedding_cost
from dagplace.model import (
    LayeredStructure,
    apsp,
    build_computation,
    build_network,
    infer_layering,
    pinned_images,
)
from dagplace.oracle import brute_force_min_cost
from dagplace.solver_layered import apply_perturbations, min_cost_layered
from dagplace.solver_treewidth import (
    DEFAULT_TABLE_BUDGET,
    TreeDecomposition,
    _rooted,
    _solve_bags,
    layered_path_decomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)


class TestLayeredPathDecomposition:
    def test_prodsum_bags(self):
        cg, _ = load_fixture("prodsum")
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
        cg, _ = load_fixture("loop")
        td = min_fill_decomposition(cg)
        assert td.width == 2
        _rooted(cg, td)

    def test_tree_width_one(self):
        assert min_fill_decomposition(load_fixture("fanin")[0]).width == 1

    def test_equals_the_full_rescan(self):
        rng = np.random.default_rng(34)
        graphs = [load_fixture("loop")[0]]
        for _ in range(150):
            r, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            graphs.append(random_layered_cg(r, k, 2, rng)[0])
        for p in (5, 20, 127):
            graphs.append(random_tree_cg(rng, p, 2))
        for cg in graphs:
            td = min_fill_decomposition(cg)
            assert (td.bags, td.tree_edges) == reference_min_fill(cg)

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
                        _rooted(tri, TreeDecomposition(bags, tree))
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
        cg, net = load_fixture("loop")
        dm = apsp(net)
        td = load_decomposition_fixture("loop")
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
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        td = TreeDecomposition([tuple(range(7))], [])
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

    def test_homes_come_from_the_graph_solved(self):
        # the decomposition is built for the chain; the extra edge (0, 2) lies
        # inside bag 0, so the bags fit both graphs but the homes do not
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
        chain = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        td = TreeDecomposition([(0, 1, 2), (2, 3)], [(0, 1)])
        _rooted(build_computation(4, chain, (0,), 3, np.zeros((4, 3))), td)
        proc = np.zeros((4, 3))
        proc[2] = [3, 3, 0]
        cg = build_computation(4, chain + [(0, 2, 5.0)], (0,), 3, proc)
        dm = apsp(net)
        emb, cost = min_cost_treewidth(cg, td, net, dm)
        assert cost == brute_force_min_cost(cg, net, dm)[1] == 5
        assert embedding_cost(cg, dm, emb) == cost

    def test_hand_built_value_is_normalised_and_solved(self):
        # unsorted bags that repeat a vertex, out of root-first order, checked
        # only by the solve: the layered path decomposition, its bags reversed
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        bags, tree_edges = [(6, 5, 5), (4, 3, 5, 3), (2, 1, 0, 4, 3, 0)], [(0, 1), (2.0, 1)]
        td = TreeDecomposition(bags, tree_edges)
        assert td.bags == ((5, 6), (3, 4, 5), (0, 1, 2, 3, 4))
        assert td.tree_edges == ((0, 1), (2, 1)) and type(td.tree_edges[1][0]) is int
        emb, cost = min_cost_treewidth(cg, td, net, dm)
        path = layered_path_decomposition(infer_layering(cg), cg)
        assert (emb, cost) == min_cost_treewidth(cg, path, net, dm)
        assert cost == reference_brute_force(cg, net, dm, "mincost")[1] == 34
        assert embedding_cost(cg, dm, emb) == cost

    def test_budget_counts_free_cells_only(self):
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        td = TreeDecomposition([tuple(range(7))], [])
        budget = net.n ** 3  # vertices 3, 4 and 5 are free; n**7 cells would not fit
        _, cost = min_cost_treewidth(cg, td, net, dm, budget=budget)
        assert cost == brute_force_min_cost(cg, net, dm)[1]
        with pytest.raises(BudgetExceeded):
            min_cost_treewidth(cg, td, net, dm, budget=budget - 1)

    def test_budget_guard(self):
        cg, net = load_fixture("prodsum")
        td = TreeDecomposition([tuple(range(7))], [])
        with pytest.raises(BudgetExceeded):
            min_cost_treewidth(cg, td, net, apsp(net), budget=10)


# multiples of 0.5, so every solver's sum is exact whatever its order
_HALVES = st.sampled_from([0.0, 0.5, 1.0, 2.0])
# sums of these round, so a change in the order of a sum shows in its bytes
_FRACTIONS = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.5])


@st.composite
def layered_instances(draw, values=_HALVES):
    """(graph, layering, network): up to three layers of one or two vertices
    and the sink, edges from the previous layer or an earlier vertex of the
    same layer, and a network of k+1..4 nodes whose roles match the graph.
    Edge sizes, processing and link weights are drawn from ``values`` and
    may all be zero."""
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)) + [1]
    layer = [l + 1 for l, width in enumerate(widths) for _ in range(width)]
    p, k = len(layer), widths[0]
    edges = []
    for w in range(k, p):
        tails = [u for u in range(w) if layer[u] == layer[w] - 1]
        tails += [u for u in range(k, w) if layer[u] == layer[w]]
        for u in draw(st.lists(st.sampled_from(tails), min_size=1, unique=True)):
            edges.append((u, w, draw(values)))
    n = draw(st.integers(k + 1, 4))
    proc = np.zeros((p, n))
    proc[k:] = np.reshape(draw(st.lists(values, min_size=(p - k) * n,
                                        max_size=(p - k) * n)), (p - k, n))
    net = _network(draw, n, k, values)
    cg = build_computation(p, edges, range(k), p - 1, proc)
    return cg, LayeredStructure(tuple(layer)), net


def _network(draw, n, k, values):
    """A connected network of n nodes with k sources and a sink: a spanning
    tree plus any further links, weighted from ``values``."""
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    links |= draw(st.sets(st.sampled_from([(u, v) for v in range(n) for u in range(v)])))
    roles = draw(st.permutations(range(n)))
    return build_network(n, [(u, v, draw(values)) for u, v in sorted(links)],
                         roles[:k], roles[k])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(layered_instances())
def test_property_cost_solvers_agree(instance):
    cg, ls, net = instance
    dm = apsp(net)
    solves = [
        min_cost_layered(cg, ls, net, dm)[:2],
        min_cost_treewidth(cg, layered_path_decomposition(ls, cg), net, dm),
        min_cost_treewidth(cg, min_fill_decomposition(cg), net, dm),
        brute_force_min_cost(cg, net, dm),
    ]
    best = solves[-1][1]
    for emb, cost in solves:
        assert cost == best
        assert embedding_cost(cg, dm, emb) == cost


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


def _reference_children(td, root):
    """Each bag's children in increasing index, keyed parents first in the
    order of a depth-first walk from ``root`` that pushes them in that order."""
    adj = {i: [] for i in range(len(td.bags))}
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    out, seen, stack = {}, {root}, [root]
    while stack:
        b = stack.pop()
        out[b] = [c for c in sorted(adj[b]) if c not in seen]
        seen.update(out[b])
        stack += out[b]
    return out


def _nearest_bag_homes(cg, td, children):
    """Home bags by brute force, per bag: the vertices (in id order) and edges
    (in ``cg.edges`` order) whose nearest bag to the root of ``children``
    holding the vertex (both ends of the edge) it is, ties to the smaller
    index."""
    root = next(iter(children))
    depth = {root: 0}
    stack = [root]
    while stack:
        b = stack.pop()
        for c in children[b]:
            depth[c] = depth[b] + 1
            stack.append(c)

    def nearest(holds):
        return min((i for i, bag in enumerate(td.bags) if holds(bag)), key=lambda i: (depth[i], i))

    vertices = [[] for _ in td.bags]
    for w in range(cg.p):
        vertices[nearest(lambda bag: w in bag)].append(w)
    edges = [[] for _ in td.bags]
    for a, b, lam in cg.edges:
        edges[nearest(lambda bag: a in bag and b in bag)].append((a, b, lam))
    return vertices, edges


def _random_decompositions(rng, count):
    """Min-fill and layered path decompositions, each also with its bags
    shuffled and extra leaf bags (subsets of a random bag) hung on."""
    while count > 0:
        n = int(rng.integers(2, 5))
        cg, ls = random_layered_cg(int(rng.integers(2, 6)), 3, n, rng)
        for td in (min_fill_decomposition(cg), layered_path_decomposition(ls, cg)):
            bags, edges = [list(b) for b in td.bags], [list(e) for e in td.tree_edges]
            for _ in range(int(rng.integers(0, 4))):
                host = int(rng.integers(0, len(bags)))
                bags.append([w for w in bags[host] if rng.random() < 0.6])
                edges.append([host, len(bags) - 1])
            perm = [int(i) for i in rng.permutation(len(bags))]
            bags = [bags[perm.index(i)] for i in range(len(bags))]
            edges = [[perm[a], perm[b]] for a, b in edges]
            yield cg, td
            yield cg, TreeDecomposition(bags, edges)
            count -= 1


def test_engine_equals_the_reference_on_shuffled_decompositions():
    # the vertices are relabelled at random, so a bag's separator and the
    # vertices it eliminates interleave in id order
    rng = np.random.default_rng(35)
    for cg, td in _random_decompositions(rng, 40):
        n = int(rng.integers(len(cg.sources) + 1, 5))
        label = [int(x) for x in rng.permutation(cg.p)]
        proc = rng.choice([0.0, 0.1, 0.3, 2.5], size=(cg.p, n))
        proc[[label[s] for s in cg.sources]] = 0.0
        cg = build_computation(cg.p, [(label[a], label[b], lam) for a, b, lam in cg.edges],
                               [label[s] for s in cg.sources], label[cg.sink], proc)
        td = TreeDecomposition([[label[w] for w in bag] for bag in td.bags], td.tree_edges)
        links = [(u, v, float(rng.choice([0.0, 0.1, 0.7])))
                 for v in range(1, n) for u in range(v) if u == v - 1 or rng.random() < 0.5]
        net = place_roles(build_network(n, links), len(cg.sources), rng)
        dm = apsp(net)
        pinned = pinned_images(cg, net)
        _assert_same_solve(_solve_bags(cg, td, pinned, dm, DEFAULT_TABLE_BUDGET, ()),
                           reference_solve_bags(cg, td, pinned, dm, DEFAULT_TABLE_BUDGET))


class TestDecompositionValidation:
    def test_homes_match_nearest_bag(self):
        for cg, td in _random_decompositions(np.random.default_rng(33), 60):
            children, home_vertices, home_edges = _rooted(cg, td)
            root = min(i for i, bag in enumerate(td.bags) if cg.sink in bag)
            assert list(children.items()) == list(_reference_children(td, root).items())
            assert (home_vertices, home_edges) == _nearest_bag_homes(cg, td, children)

    def test_missing_edge_coverage(self):
        cg, net = load_fixture("prodsum")
        td = TreeDecomposition([(0, 1, 2, 3, 4), (5, 6)], [(0, 1)])
        with pytest.raises(InvalidDecomposition, match=r"^edge \(3,5\) is in no bag$"):
            _rooted(cg, td)
        # the solve runs the same check
        with pytest.raises(InvalidDecomposition, match=r"^edge \(3,5\) is in no bag$"):
            min_cost_treewidth(cg, td, net, apsp(net))

    def test_disconnected_occurrence(self):
        cg = build_computation(
            3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        with pytest.raises(InvalidDecomposition):
            _rooted(cg, TreeDecomposition([(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2)]))

    def test_not_a_tree(self):
        cg = build_computation(
            3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 2))
        )
        with pytest.raises(InvalidDecomposition):
            _rooted(cg, TreeDecomposition([(0, 1), (1, 2)], []))

    def test_every_emitted_decomposition_is_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            cg, ls = random_layered_cg(int(rng.integers(2, 5)), 3, n, rng)
            for td in (min_fill_decomposition(cg), layered_path_decomposition(ls, cg)):
                _, home_vertices, home_edges = _rooted(cg, td)
                # charging uniqueness: every vertex and edge has one home bag
                assert sorted(w for ws in home_vertices for w in ws) == list(range(cg.p))
                assert sorted(e for es in home_edges for e in es) == sorted(cg.edges)
                for bag, ws, es in zip(td.bags, home_vertices, home_edges):
                    assert all(w in bag for w in ws)
                    assert all(a in bag and b2 in bag for a, b2, _ in es)


def _assert_same_solve(got, ref):
    """Equal embeddings and cost reprs, as many messages, and each bag's
    messages equal in shape, dtype and bytes."""
    (emb, cost, messages), (ref_emb, ref_cost, ref_messages) = got, ref
    assert emb.assignment == ref_emb.assignment
    assert repr(cost) == repr(ref_cost)
    assert len(messages) == len(ref_messages)
    for message, ref_message in zip(messages, ref_messages):
        assert len(message) == len(ref_message) == 2
        for a, b in zip(message, ref_message):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def _intra_layer_edits(cg, ls):
    """Each absent edge (a, b), a < b, inside one middle layer, as an edit."""
    present = {(a, b) for a, b, _ in cg.edges}
    return [((a, b), ls.layer[a]) for b in range(cg.p) for a in range(b)
            if ls.layer[a] == ls.layer[b] and 1 < ls.layer[a] < ls.r and (a, b) not in present]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(layered_instances(_FRACTIONS), st.data())
def test_property_engine_equals_the_full_width_reference(instance, data):
    cg, ls, net = instance
    dm = apsp(net)
    pinned = pinned_images(cg, net)
    for td in (layered_path_decomposition(ls, cg), min_fill_decomposition(cg)):
        _assert_same_solve(_solve_bags(cg, td, pinned, dm, DEFAULT_TABLE_BUDGET, ()),
                           reference_solve_bags(cg, td, pinned, dm, DEFAULT_TABLE_BUDGET))
    # a re-plan reuses the messages of the bags the edit leaves unchanged, and
    # must still give a fresh full-width solve's messages and bytes
    candidates = _intra_layer_edits(cg, ls)
    if not candidates:
        return
    (a, b), lay = data.draw(st.sampled_from(candidates))
    edge = (a, b, data.draw(_FRACTIONS))
    cg2 = build_computation(cg.p, cg.edges + (edge,), cg.sources, cg.sink, cg.processing)
    _, _, state = min_cost_layered(cg, ls, net, dm)
    emb, cost, state2 = apply_perturbations(state, cg2, [(edge, lay)], dm)
    td2 = layered_path_decomposition(ls, cg2)
    ref = reference_solve_bags(cg2, td2, pinned, dm, DEFAULT_TABLE_BUDGET)
    # the table minimum on the state's messages of bags 0..lay-2, which lie
    # below the edit's home bag lay-1, is the reference's; the re-plan
    # reports its embedding's cost
    _assert_same_solve(_solve_bags(cg2, td2, pinned, dm, DEFAULT_TABLE_BUDGET,
                                   state.messages[:lay - 1]), ref)
    _assert_same_solve((emb, cost, state2.messages),
                       (ref[0], embedding_cost(cg2, dm, emb), ref[2]))


def test_all_ties_go_to_the_smallest_assignment():
    # bag (1, 2, 3) eliminates 2 and sends the root (1, 3, 4) a message over
    # (1, 3); its table lays out as (2, 1, 3), home vertex first, so its edge
    # (1, 2) is transposed into table order
    net = build_network(3, [(0, 1, 0.0), (1, 2, 0.0)], sources=(2,), sink=1)
    cg = build_computation(5, [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                               (1, 4, 1.0)], (0,), 4, np.zeros((5, 3)))
    td = min_fill_decomposition(cg)
    root = next(iter(_rooted(cg, td)[0]))
    assert (td.bags[1], td.bags[root]) == ((1, 2, 3), (1, 3, 4))
    assert (1, root) in td.tree_edges
    dm = apsp(net)
    pinned = pinned_images(cg, net)
    got = _solve_bags(cg, td, pinned, dm, DEFAULT_TABLE_BUDGET, ())
    _assert_same_solve(got, reference_solve_bags(cg, td, pinned, dm, DEFAULT_TABLE_BUDGET))
    assert got[0].assignment == (2, 0, 0, 0, 1)
    assert got[1] == 0.0
    assert min_cost_treewidth(cg, td, net, dm) == (got[0], 0.0)


@st.composite
def cyclic_instances(draw):
    """(graph, network): a schema of at most six vertices with a directed
    cycle through two or more of its middle vertices, any further edges
    between middle vertices in either direction, and edges from the sources
    and into the sink; a network of k+1..4 nodes.  Edge sizes, processing
    and link weights are multiples of 0.5 and may be zero."""
    k = draw(st.integers(1, 2))
    p = draw(st.integers(k + 3, 6))
    n = draw(st.integers(k + 1, 4))
    middle = list(range(k, p - 1))
    cycle = draw(st.permutations(middle))[: draw(st.integers(2, len(middle)))]
    pairs = {(cycle[i - 1], cycle[i]) for i in range(len(cycle))}
    candidates = [(a, b) for a in range(p - 1) for b in range(k, p) if a != b]
    pairs |= draw(st.sets(st.sampled_from(candidates)))
    edges = [(a, b, draw(_HALVES)) for a, b in sorted(pairs)]
    proc = np.zeros((p, n))
    proc[k:] = np.reshape(draw(st.lists(_HALVES, min_size=(p - k) * n,
                                        max_size=(p - k) * n)), (p - k, n))
    net = _network(draw, n, k, _HALVES)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cg = build_computation(p, edges, range(k), p - 1, proc, require_dag=False)
    return cg, net


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cyclic_instances())
def test_property_min_fill_solves_cyclic_schemas(instance):
    cg, net = instance
    assert not cg.is_dag
    dm = apsp(net)
    td = min_fill_decomposition(cg)
    assert (td.bags, td.tree_edges) == reference_min_fill(cg)
    emb, cost = min_cost_treewidth(cg, td, net, dm)
    assert cost == reference_brute_force(cg, net, dm, "mincost")[1]
    assert embedding_cost(cg, dm, emb) == cost
