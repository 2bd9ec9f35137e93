import dataclasses
import pickle

import numpy as np
import pytest

from conftest import place_roles
from dagplace import fixtures as fx
from dagplace.errors import BudgetExceeded, DanglingEdit, ValidationError, WidthExceeded
from dagplace.harness import random_connected_network, random_layered_cg
from dagplace.metrics import embedding_cost
from dagplace.model import (
    LayeredStructure,
    apsp,
    build_computation,
    infer_layering,
)
from dagplace.oracle import brute_force_min_cost
from dagplace.solver_layered import apply_perturbations, min_cost_layered


def solve_prodsum():
    cg = fx.prodsum_computation()
    net = fx.prodsum_network()
    dm = apsp(net)
    return cg, net, dm, min_cost_layered(cg, infer_layering(cg), net, dm)


def assert_states_equal(a, b):
    """Every field equal, the message arrays of ``h`` element by element."""
    for f in dataclasses.fields(a):
        if f.name != "h":
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    assert len(a.h) == len(b.h)
    for (min_a, arg_a), (min_b, arg_b) in zip(a.h, b.h):
        assert np.array_equal(min_a, min_b)
        assert np.array_equal(arg_a, arg_b)


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
    ls = LayeredStructure(layer=(1, 2, 3, 2), r=3, k=2)
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
        assert state2 is state

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
    ls2 = LayeredStructure(layer=tuple(layer2), r=r, k=max(widths))
    return state, cg2, edits, ls2, pnet, dm
