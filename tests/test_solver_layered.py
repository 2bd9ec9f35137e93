import dataclasses
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import load_fixture, place_roles, random_connected_network
from dagplace.errors import BudgetExceeded, DanglingEdit, ValidationError, WidthExceeded
from dagplace.harness import random_layered_cg
from dagplace.metrics import embedding_cost
from dagplace.model import (
    LayeredStructure,
    apsp,
    build_computation,
    build_network,
    infer_layering,
)
from dagplace.oracle import brute_force_min_cost
from dagplace.solver_layered import apply_perturbations, min_cost_layered, perturbed_layering

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
from workloads import CostReplan  # noqa: E402


def solve_prodsum():
    cg, net = load_fixture("prodsum")
    dm = apsp(net)
    return cg, net, dm, min_cost_layered(cg, infer_layering(cg), net, dm)


def assert_states_equal(a, b):
    """Every field equal: the graph ``cg`` by its fields and its processing
    table, the distance matrix ``dm`` by its arrays, and the ``messages`` by
    bag index and their arrays' bytes."""
    for f in dataclasses.fields(a):
        if f.name not in ("cg", "dm", "messages"):
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    for name in ("p", "edges", "sources", "sink"):
        assert getattr(a.cg, name) == getattr(b.cg, name), name
    assert np.array_equal(a.cg.processing, b.cg.processing)
    assert a.dm.dist.tobytes() == b.dm.dist.tobytes()
    assert a.dm.weight.tobytes() == b.dm.weight.tobytes()
    assert len(a.messages) == len(b.messages)
    for (min_a, arg_a), (min_b, arg_b) in zip(a.messages, b.messages):
        for x, y in ((min_a, min_b), (arg_a, arg_b)):
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())


def test_prodsum_min_cost():
    cg, net, dm, (emb, cost, state) = solve_prodsum()
    assert cost == 34
    assert embedding_cost(cg, dm, emb) == cost


def test_chain_tie_break_prefers_smallest_node():
    from dagplace.model import build_network

    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
    cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 3)))
    emb, cost, _ = min_cost_layered(cg, infer_layering(cg), net, apsp(net))
    assert cost == 2
    assert emb[1] == 0  # all three placements cost 2; lex tie-break picks node 0


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 7))
        r = int(rng.integers(2, 5))
        cg, ls = random_layered_cg(r, 2, n, rng)
        if cg.k + 1 > n:
            continue
        net = random_connected_network(n, rng, weight_range=(0, 5))
        pnet = place_roles(net, cg.k, rng)
        dm = apsp(pnet)
        emb, cost, _ = min_cost_layered(cg, ls, pnet, dm)
        _, best = brute_force_min_cost(cg, pnet, dm)
        assert cost == best
        assert embedding_cost(cg, dm, emb) == cost
        checked += 1


def test_intra_layer_edges_supported():
    # two vertices on layer 2 joined by an edge, checked against brute force
    from dagplace.model import build_network

    net = build_network(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (0, 3, 1.0)],
                        sources=(0,), sink=2)
    proc = np.zeros((4, 4))
    proc[1] = [1, 0, 2, 0]
    proc[2] = [0, 1, 0, 2]
    cg = build_computation(
        4, [(0, 1, 1.0), (0, 3, 2.0), (3, 1, 1.0), (1, 2, 1.0)], (0,), 2, proc
    )
    ls = LayeredStructure(layer=(1, 2, 3, 2))
    dm = apsp(net)
    emb, cost, _ = min_cost_layered(cg, ls, net, dm)
    _, best = brute_force_min_cost(cg, net, dm)
    assert cost == best
    assert embedding_cost(cg, dm, emb) == cost


def test_budget_guard():
    cg, net, dm, _ = solve_prodsum()
    with pytest.raises(BudgetExceeded):
        min_cost_layered(cg, infer_layering(cg), net, dm, budget=100)


class TestPerturbations:
    def test_empty_edit_list_is_identity(self):
        cg, net, dm, (emb, cost, state) = solve_prodsum()
        emb2, cost2, state2 = apply_perturbations(state, cg, [], dm)
        assert emb2.assignment == emb.assignment
        assert cost2 == cost
        assert_states_equal(state2, state)

    def test_empty_edit_list_solves_under_the_matrix_given(self):
        # no edit, other link weights: the stored answer is stale, and the
        # re-plan gives a fresh solve's answer under the new matrix
        cg, net, dm, (emb, cost, state) = solve_prodsum()
        net2 = build_network(net.n, [(u, v, 3 * w + 1) for u, v, w in net.edges],
                             sources=net.sources, sink=net.sink)
        dm2 = apsp(net2)
        emb2, cost2, state2 = apply_perturbations(state, cg, [], dm2)
        emb3, cost3, state3 = min_cost_layered(cg, state.ls, net2, dm2)
        assert cost3 != cost
        assert (emb2.assignment, cost2) == (emb3.assignment, cost3)
        assert embedding_cost(cg, dm2, emb2) == cost2
        assert_states_equal(state2, state3)
        # under the state's own matrix every message is the stored one
        _, _, state4 = apply_perturbations(state, cg, [], dm)
        assert len(state4.messages) == len(state.messages)
        assert all(m is o for m, o in zip(state4.messages, state.messages))

    def test_empty_edit_list_is_bounded_by_the_budget(self):
        cg, net, dm, (_, _, state) = solve_prodsum()
        with pytest.raises(BudgetExceeded):
            apply_perturbations(state, cg, [], dm, budget=100)

    def test_empty_edit_list_checks_the_graph(self):
        cg, net, dm, (_, _, state) = solve_prodsum()
        doubled = tuple((a, b, 2 * lam) for a, b, lam in cg.edges)
        proc = cg.processing * 3 + 1
        proc[list(cg.sources)] = 0
        for cg2 in (
            dataclasses.replace(cg, edges=doubled),
            dataclasses.replace(cg, processing=proc),
            dataclasses.replace(cg, sources=cg.sources[::-1]),
        ):
            with pytest.raises(ValidationError, match="original plus the listed edits"):
                apply_perturbations(state, cg2, [], dm)

    def test_pendant_vertex_colocates(self):
        cg, net, dm, (emb, cost, state) = solve_prodsum()
        proc2 = np.zeros((8, net.n))
        proc2[:7] = cg.processing
        cg2 = build_computation(8, list(cg.edges) + [(5, 7, 1.0)], cg.sources,
                                cg.sink, proc2)
        emb2, cost2, _ = apply_perturbations(state, cg2, [((5, 7, 1.0), 3)], dm)
        assert cost2 == 34  # zero-distance attachment, zero processing
        assert emb2[7] == emb2[5]

    def test_random_batches_equal_fresh_solve(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 40:
            out = _random_perturbation_case(rng)
            if out is None:
                continue
            state, cg2, edits, ls2, pnet, dm = out
            assert perturbed_layering(state.cg, state.ls, cg2, edits).layer == ls2.layer
            emb2, cost2, state2 = apply_perturbations(state, cg2, edits, dm)
            emb3, cost3, state3 = min_cost_layered(cg2, ls2, pnet, dm)
            assert cost2 == cost3
            assert_states_equal(state2, state3)
            assert emb2.assignment == emb3.assignment
            checked += 1

    def test_dangling_edit_rejected(self):
        cg, net, dm, (_, _, state) = solve_prodsum()
        proc2 = np.zeros((9, net.n))
        proc2[:7] = cg.processing
        cg2 = build_computation(
            9, list(cg.edges) + [(7, 8, 1.0), (5, 7, 1.0)], cg.sources, cg.sink, proc2
        )
        with pytest.raises(DanglingEdit):
            apply_perturbations(state, cg2, [((7, 8, 1.0), 3), ((5, 7, 1.0), 3)], dm)

    def test_new_vertex_without_an_edit_is_dangling_with_no_edits_too(self):
        cg, net, dm, (_, _, state) = solve_prodsum()
        proc2 = np.zeros((8, net.n))
        proc2[:7] = cg.processing
        with pytest.warns(UserWarning, match="vertex 7 has no inputs"):
            cg2 = build_computation(8, list(cg.edges), cg.sources, cg.sink, proc2)
        with pytest.raises(DanglingEdit, match="without any edit naming it"):
            apply_perturbations(state, cg2, [], dm)

    def test_width_guard(self):
        cg, net, dm, (_, _, state) = solve_prodsum()
        # two new vertices on layer 2 push its width past k=3
        proc2 = np.zeros((9, net.n))
        proc2[:7] = cg.processing
        edges2 = list(cg.edges) + [(0, 7, 1.0), (1, 8, 1.0)]
        cg2 = build_computation(9, edges2, cg.sources, cg.sink, proc2)
        with pytest.raises(WidthExceeded):
            apply_perturbations(
                state, cg2, [((0, 7, 1.0), 2), ((1, 8, 1.0), 2)], dm
            )

    def test_mismatched_graph_rejected(self):
        cg, net, dm, (_, _, state) = solve_prodsum()
        with pytest.raises(ValidationError):
            apply_perturbations(state, cg, [((5, 7, 1.0), 3)], dm)

    def test_changed_processing_in_a_reused_bag_rejected(self):
        # five layers {0} {1,2} {3,4} {5} {6}; a pendant on layer 4 re-plans
        # from bag 2 on and reuses bag 1, the home of vertices 1 and 2
        net = build_network(3, [(0, 1, 1.0), (1, 2, 2.0)], sources=(0,), sink=2)
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 5, 1.0),
                 (4, 5, 1.0), (5, 6, 1.0)]
        proc = np.zeros((8, 3))
        proc[1:6] = [1, 2, 0]
        cg = build_computation(7, edges, (0,), 6, proc[:7])
        dm = apsp(net)
        _, _, state = min_cost_layered(cg, infer_layering(cg), net, dm)
        proc[1:3] = proc[1:3] * 3 + 1
        cg2 = build_computation(8, edges + [(3, 7, 1.0)], (0,), 6, proc)
        with pytest.raises(ValidationError, match="original plus the listed edits"):
            apply_perturbations(state, cg2, [((3, 7, 1.0), 4)], dm)

    def test_replan_with_another_distance_matrix_equals_fresh_solve(self):
        # the same n, other link weights: no message of the old solve holds
        cg, net, dm, (_, _, state) = solve_prodsum()
        reweighted = {(1, 3): 2.0, (6, 7): 3.0}  # s2-a and d-t
        net2 = build_network(net.n, [(u, v, reweighted.get((u, v), w)) for u, v, w in net.edges],
                             sources=net.sources, sink=net.sink)
        dm2 = apsp(net2)
        edge = (3, 4, 1.0)  # sum12 -> sum23, inside layer 2
        cg2 = build_computation(cg.p, cg.edges + (edge,), cg.sources, cg.sink, cg.processing)
        emb2, cost2, state2 = apply_perturbations(state, cg2, [(edge, 2)], dm2)
        emb3, cost3, state3 = min_cost_layered(cg2, state.ls, net2, dm2)
        assert cost3 == 33.0
        assert (emb2.assignment, cost2) == (emb3.assignment, cost3)
        assert embedding_cost(cg2, dm2, emb2) == cost2
        assert_states_equal(state2, state3)
        assert not any(m is o for m in state2.messages for o in state.messages)

    def test_replan_reuses_exactly_the_bags_below_the_edited_layer(self):
        # a re-plan on layer l takes the messages of bags 0..l-2 (layers 1..l)
        # from the solve and rebuilds the rest: the work perfbench counts
        for shape in CostReplan.SHAPES:
            for i in range(CostReplan.POOL):
                inst = CostReplan.instance(shape, i)
                dm = apsp(inst.net)
                _, _, state = min_cost_layered(inst.cg, infer_layering(inst.cg), inst.net, dm)
                old = state.messages
                for _, cg2, edits in inst.replans:
                    [(_, lay)] = edits
                    _, _, state2 = apply_perturbations(state, cg2, edits, dm)
                    reused = [m is o for m, o in zip(state2.messages, old)]
                    assert reused == [True] * (lay - 1) + [False] * (len(old) - lay + 1)

    def test_replan_reuses_the_bags_below_a_new_vertex_or_a_crossing_edge(self):
        # layers {0,1,2} {3,4} {5,6} {7,8} {9,10} {11}, joined as a ladder, so
        # each middle layer takes a new vertex (k = 3) and misses edges to the
        # next; bag i holds layers i+1 and i+2 and is home to the edges that
        # leave layer i+1
        rng = np.random.default_rng(36)
        net = place_roles(random_connected_network(5, rng, weight_range=(0, 5)), 3, rng)
        dm = apsp(net)
        edges = [(0, 3, 1.0), (1, 3, 2.0), (2, 4, 1.0), (3, 5, 3.0), (4, 6, 1.0), (5, 7, 2.0),
                 (6, 8, 1.0), (7, 9, 1.0), (8, 10, 2.0), (9, 11, 1.0), (10, 11, 3.0)]
        proc = rng.integers(0, 4, size=(13, net.n)).astype(float)
        proc[:3] = 0.0
        cg = build_computation(12, edges, (0, 1, 2), 11, proc[:12])
        ls = infer_layering(cg)
        layers = ls.layers()
        _, _, state = min_cost_layered(cg, ls, net, dm)
        assert len(state.messages) == ls.r - 1
        cases = []  # (edit, number of bags below it)
        for l in range(2, ls.r):
            # the new vertex 12 on layer l as the head of an edge inside the
            # layer, and as the tail of an edge into layer l+1: bag l-2 holds it
            cases.append((((layers[l - 1][0], 12, 2.0), l), l - 2))
            cases.append((((12, layers[l][0], 2.0), l), l - 2))
        for l in range(1, ls.r - 1):
            # an edge from layer l to l+1 between old vertices: bag l-1 is its home
            a, b = layers[l - 1][-1], layers[l][0]
            cases.append((((a, b, 2.0), l), l - 1))
        for edit, below in cases:
            (a, b, _), _ = edit
            if max(a, b) < cg.p:
                cg2 = build_computation(12, edges + [edit[0]], (0, 1, 2), 11, proc[:12])
            else:
                with pytest.warns(UserWarning):
                    cg2 = build_computation(13, edges + [edit[0]], (0, 1, 2), 11, proc)
            emb2, cost2, state2 = apply_perturbations(state, cg2, [edit], dm)
            shared = [m is o for m, o in zip(state2.messages, state.messages)]
            assert shared == [True] * below + [False] * (len(state.messages) - below), edit
            assert below == spans._replan_start(state, [edit]) - 1
            ls2 = perturbed_layering(cg, ls, cg2, [edit])
            emb3, cost3, state3 = min_cost_layered(cg2, ls2, net, dm)
            assert (emb2.assignment, cost2) == (emb3.assignment, cost3)
            assert_states_equal(state2, state3)

    def test_state_round_trips_through_pickle(self):
        cg, net, dm, (emb, cost, state) = solve_prodsum()
        state2 = pickle.loads(pickle.dumps(state))
        assert_states_equal(state2, state)


def _random_perturbation_case(rng):
    n = int(rng.integers(3, 7))
    r = int(rng.integers(3, 5))
    cg, ls = random_layered_cg(r, 2, n, rng)
    if cg.k + 1 > n:
        return None
    net = random_connected_network(n, rng, weight_range=(0, 5))
    pnet = place_roles(net, cg.k, rng)
    dm = apsp(pnet)
    _, _, state = min_cost_layered(cg, ls, pnet, dm)
    layers = [list(ws) for ws in ls.layers()]
    widths = [len(ws) for ws in layers]
    vlayer = {w: l for w, l in enumerate(ls.layer)}
    existing = set((a, b) for a, b, _ in cg.edges)
    edits, new_edges = [], []
    p2 = cg.p

    def edit_layer(u, v):
        # the edit names a fresh vertex's layer, otherwise the tail's layer
        if u >= cg.p:
            return vlayer[u]
        if v >= cg.p:
            return vlayer[v]
        return vlayer[u]

    for _ in range(int(rng.integers(1, 4))):
        kind = rng.random()
        if kind < 0.35:  # new edge between consecutive layers
            l = int(rng.integers(1, r))
            cands = [(u, v) for u in layers[l - 1] for v in layers[l]
                     if (u, v) not in existing]
            if not cands:
                continue
            u, v = cands[int(rng.integers(0, len(cands)))]
            existing.add((u, v))
            e = (u, v, float(rng.integers(1, 4)))
            new_edges.append(e)
            edits.append((e, edit_layer(u, v)))
        elif kind < 0.6:  # new intra-layer edge (not at layer 1: sources take no input)
            l = int(rng.integers(2, r))
            cands = [(u, v) for u in layers[l - 1] for v in layers[l - 1]
                     if u < v and (u, v) not in existing and (v, u) not in existing]
            if not cands:
                continue
            u, v = cands[int(rng.integers(0, len(cands)))]
            existing.add((u, v))
            e = (u, v, float(rng.integers(1, 4)))
            new_edges.append(e)
            edits.append((e, edit_layer(u, v)))
        else:  # pendant vertex fed from the previous layer
            l = int(rng.integers(2, r))
            if widths[l - 1] + 1 > ls.k:
                continue
            anchor = layers[l - 2][int(rng.integers(0, len(layers[l - 2])))]
            e = (anchor, p2, 1.0)
            existing.add((anchor, p2))
            new_edges.append(e)
            edits.append((e, l))
            layers[l - 1].append(p2)
            widths[l - 1] += 1
            vlayer[p2] = l
            p2 += 1
    if not edits:
        return None
    proc2 = np.zeros((p2, pnet.n))
    proc2[: cg.p] = cg.processing
    cg2 = build_computation(p2, list(cg.edges) + new_edges, cg.sources, cg.sink, proc2)
    layer2 = list(ls.layer) + [0] * (p2 - cg.p)
    for (a, b, _), lay in edits:
        if max(a, b) >= cg.p:
            layer2[max(a, b)] = lay
    ls2 = LayeredStructure(layer=tuple(layer2))
    return state, cg2, edits, ls2, pnet, dm
