import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    load_embedding_fixture,
    load_fixture,
    place_roles,
    random_connected_network,
    random_embedding,
    random_tree_cg,
)
from dagplace.errors import ValidationError
from dagplace.metrics import (
    Embedding,
    _larger,
    capacity_aware_delay,
    embedding_cost,
    embedding_delay,
    max_link_usage,
    validate_embedding,
)
from dagplace.model import apsp, build_computation, build_network, check_tree
from dagplace.oracle import brute_force_min_cost, brute_force_min_delay
from dagplace.solver_layered import apply_perturbations, min_cost_layered
from dagplace.solver_tree import min_delay_collapse, min_delay_tree
from dagplace.solver_treewidth import (
    layered_path_decomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)
from test_oracle import oracle_instances
from test_solver_tree import in_trees
from test_solver_treewidth import _FRACTIONS, _intra_layer_edits, layered_instances


E_DELAY = load_embedding_fixture("prodsum", "emb_delay")  # the minimum-delay embedding
E_COST = load_embedding_fixture("prodsum", "emb_cost")  # the minimum-cost embedding
E_FANIN = load_embedding_fixture("fanin", "emb")  # two source feeds share link i-j


@pytest.fixture(scope="module")
def prodsum():
    cg, net = load_fixture("prodsum")
    return cg, net, apsp(net)


@pytest.fixture(scope="module")
def fanin():
    cg, net = load_fixture("fanin")
    return cg, net, apsp(net)


class TestCost:
    def test_reference_values(self, prodsum):
        cg, _, dm = prodsum
        assert embedding_cost(cg, dm, E_DELAY) == 36
        assert embedding_cost(cg, dm, E_COST) == 34

    def test_single_node_network_zero(self):
        net = build_network(1, [], sources=(0,), sink=0, allow_sink_source=True)
        cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 1)))
        dm = apsp(net)
        assert embedding_cost(cg, dm, Embedding((0, 0, 0))) == 0

    def test_direction_invariance(self, prodsum):
        # cost is unchanged when any subset of computation edges is reversed
        import dataclasses

        cg, net, dm = prodsum
        rng = np.random.default_rng(0)
        e = E_DELAY
        base = embedding_cost(cg, dm, e)
        for _ in range(12):
            flipped = tuple(
                (b, a, lam) if rng.random() < 0.5 else (a, b, lam)
                for a, b, lam in cg.edges
            )
            cg2 = dataclasses.replace(cg, edges=flipped)
            assert embedding_cost(cg2, dm, e) == base

    def test_scaling_by_alpha(self):
        # scaling link weights and processing jointly scales cost and delay
        rng = np.random.default_rng(1)
        net = random_connected_network(6, rng, weight_range=(1, 5))
        cg = random_tree_cg(rng, 6, 6)
        pnet = place_roles(net, cg.k, rng)
        dm = apsp(pnet)
        e = random_embedding(cg, pnet, rng)
        alpha = 3.0
        net2 = build_network(
            pnet.n, [(u, v, alpha * w) for u, v, w in pnet.edges], pnet.sources, pnet.sink
        )
        cg2 = build_computation(
            cg.p, cg.edges, cg.sources, cg.sink, alpha * np.asarray(cg.processing)
        )
        dm2 = apsp(net2)
        assert embedding_cost(cg2, dm2, e) == alpha * embedding_cost(cg, dm, e)
        assert embedding_delay(cg2, dm2, e).total == alpha * embedding_delay(cg, dm, e).total


class TestDelay:
    def test_reference_per_vertex(self):
        # the alternate weighting reproduces the reference intermediate delays
        cg, net_alt = load_fixture("prodsum", net="net_alt")
        dm = apsp(net_alt)
        rep = embedding_delay(cg, dm, E_DELAY)
        assert rep.per_vertex == (0, 0, 0, 11, 11, 13, 14)
        assert rep.total == 14
        assert embedding_delay(cg, dm, E_COST).total == 16

    def test_reference_totals_primary_weighting(self, prodsum):
        cg, _, dm = prodsum
        assert embedding_delay(cg, dm, E_DELAY).total == 14
        assert embedding_delay(cg, dm, E_COST).total == 16

    def test_fanin_delay(self, fanin):
        cg, _, dm = fanin
        assert embedding_delay(cg, dm, E_FANIN).total == 5

    def test_sources_at_zero_and_monotone_along_paths(self, prodsum):
        cg, net, dm = prodsum
        rng = np.random.default_rng(2)
        for _ in range(50):
            e = random_embedding(cg, net, rng)
            rep = embedding_delay(cg, dm, e)
            for s in cg.sources:
                assert rep.per_vertex[s] == 0
            for a, b, _ in cg.edges:
                assert rep.per_vertex[b] >= rep.per_vertex[a]

    def test_one_embedding_takes_the_maximum_as_a_block_does(self):
        # a NaN on either side wins, and of +0.0 and -0.0 the second
        values = [np.nan, -np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]
        for a in map(np.float64, values):
            for b in map(np.float64, values):
                assert np.float64(_larger(a, b)).tobytes() == np.maximum(a, b).tobytes(), (a, b)

    def test_delay_at_most_cost(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            net = random_connected_network(n, rng, weight_range=(0, 5))
            cg = random_tree_cg(rng, int(rng.integers(3, 8)), n)
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            e = random_embedding(cg, pnet, rng)
            assert embedding_delay(cg, dm, e).total <= embedding_cost(cg, dm, e)


class TestCapacityAware:
    def test_fanin_contention(self, fanin):
        cg, net, dm = fanin
        rep, sched = capacity_aware_delay(cg, net, dm, E_FANIN)
        assert rep.total == 6
        shared = sched.uses[(4, 5)]  # link i-j carries both source feeds
        assert [u.edge for u in shared] == [1, 2]
        assert (shared[0].arrival, shared[0].departure) == (1, 2)
        assert (shared[1].arrival, shared[1].departure) == (1, 3)

    def test_no_contention_equals_ideal(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
        cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 3)))
        dm = apsp(net)
        e = Embedding((0, 1, 2))
        rep, _ = capacity_aware_delay(cg, net, dm, e)
        assert rep.total == embedding_delay(cg, dm, e).total == 2

    def test_at_least_ideal_and_fifo_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            net = random_connected_network(n, rng, weight_range=(1, 4))
            cg = random_tree_cg(rng, int(rng.integers(3, 8)), n, lam_hi=2)
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            e = random_embedding(cg, pnet, rng)
            rep, sched = capacity_aware_delay(cg, pnet, dm, e)
            assert rep.total >= embedding_delay(cg, dm, e).total - 1e-9
            w = {(a, b): x for a, b, x in pnet.edges}
            for (u, v), uses in sched.uses.items():
                prev = None
                for use in uses:
                    lam = cg.edges[use.edge][2]
                    expect = max(prev, use.arrival) if prev is not None else use.arrival
                    assert use.departure == expect + lam * w[(u, v)]
                    prev = use.departure

    def test_per_direction_relieves_opposing_flows(self):
        # two transfers crossing one link in opposite directions: the shared
        # FIFO serializes them, per-direction queues do not
        net = build_network(2, [(0, 1, 1.0)], sources=(0, 1), sink=0,
                            allow_sink_source=True)
        proc = np.zeros((4, 2))
        cg = build_computation(4, [(0, 2, 1.0), (1, 3, 1.0), (2, 3, 0.0)],
                               (0, 1), 3, proc)
        e = Embedding((0, 1, 1, 0))
        dm = apsp(net)
        shared, _ = capacity_aware_delay(cg, net, dm, e)
        split, _ = capacity_aware_delay(cg, net, dm, e, per_direction=True)
        assert shared.total == 2 and split.total == 1

    def test_three_feeds_serialize_through_one_link(self):
        # three unit transfers all reach the hub at t=1 and must take turns
        # on the hub-sink link: departures 2, 3, 4
        net = build_network(
            5, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
            sources=(0, 1, 2), sink=4,
        )
        cg = build_computation(
            4, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)], (0, 1, 2), 3,
            np.zeros((4, 5)),
        )
        dm = apsp(net)
        e = Embedding((0, 1, 2, 4))
        assert embedding_delay(cg, dm, e).total == 2
        rep, sched = capacity_aware_delay(cg, net, dm, e)
        assert rep.total == 4
        assert [u.departure for u in sched.uses[(3, 4)]] == [2, 3, 4]

    def test_colocated_edges_use_no_links(self, prodsum):
        # mapping all interior vertices onto the sink leaves only the four
        # source feeds on the wire (they still contend on the link into t)
        cg, net, dm = prodsum
        e = Embedding((0, 1, 2, 7, 7, 7, 7))
        rep, sched = capacity_aware_delay(cg, net, dm, e)
        assert rep.total >= embedding_delay(cg, dm, e).total
        assert all(use.edge < 4 for uses in sched.uses.values() for use in uses)

    # The cases below pin the tie rule: events in (time, finishes before
    # arrivals, link, edge) order, each link serving by (arrival, edge).

    def test_non_source_without_inputs_fires_once(self):
        # vertex 1 has no inputs: it fires at its processing time 2, and the
        # colocated edge 1 fires vertex 2 at once, so edge 3 crosses link 1-2 once
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
        proc = np.zeros((4, 3))
        proc[1, 1], proc[2, 1] = 2, 1
        with pytest.warns(UserWarning, match="vertex 1 has no inputs"):
            cg = build_computation(4, [(0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
                                   (0,), 3, proc)
        rep, sched = capacity_aware_delay(cg, net, apsp(net), Embedding((0, 1, 1, 2)))
        assert rep.per_vertex == (0, 2, 3, 4)
        assert _uses(sched) == {
            (0, 1): [(0, 0, 1, 0, 1)],
            (1, 2): [(0, 1, 2, 1, 2), (2, 1, 2, 2, 3), (3, 1, 2, 3, 4)],
        }

    def test_negative_zero_source_fires_at_positive_zero(self):
        # build_computation admits a -0.0 source row; both delays start the
        # source at 0.0 + processing, so neither reports -0.0
        net = build_network(2, [(0, 1, 1.0)], sources=(0,), sink=1)
        cg = build_computation(2, [(0, 1, 1.0)], (0,), 1, [[-0.0, -0.0], [0.0, 1.0]])
        dm, e = apsp(net), Embedding((0, 1))
        rep, _ = capacity_aware_delay(cg, net, dm, e)
        ideal = embedding_delay(cg, dm, e)
        assert np.array(rep.per_vertex).tobytes() == np.array(ideal.per_vertex).tobytes()
        assert rep.per_vertex == (0.0, 2.0) and not np.signbit(rep.per_vertex[0])

    def test_simultaneous_waiters_are_served_by_edge_index(self):
        # edge 2 holds hub link 3-4 over [0, 2]; edges 0 and 1 both reach it
        # at t=1 and wait, and edge 0 goes first though its tail node is higher
        net = build_network(5, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 0.0), (3, 4, 1.0)],
                            sources=(0, 1, 2), sink=4)
        cg = build_computation(4, [(1, 3, 1.0), (0, 3, 1.0), (2, 3, 2.0)], (0, 1, 2), 3,
                               np.zeros((4, 5)))
        rep, sched = capacity_aware_delay(cg, net, apsp(net), Embedding((0, 1, 2, 4)))
        assert rep.total == 4
        assert _uses(sched)[(3, 4)] == [(2, 3, 4, 0, 2), (0, 3, 4, 1, 3), (1, 3, 4, 1, 4)]

    def test_finish_runs_before_arrival_at_the_same_time(self):
        # at t=1 edge 0 finishes on link 0-1 and edge 1 (from vertex 1, which
        # fires at t=1) reaches link 1-2: the finish runs first, so edge 0
        # reaches the free link 1-2 first too and, with the lower index, takes it
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0,), sink=2)
        proc = np.zeros((3, 3))
        proc[1, 1] = 1
        with pytest.warns(UserWarning, match="vertex 1 has no inputs"):
            cg = build_computation(3, [(0, 2, 1.0), (1, 2, 1.0)], (0,), 2, proc)
        rep, sched = capacity_aware_delay(cg, net, apsp(net), Embedding((0, 1, 2)))
        assert rep.total == 3
        assert _uses(sched)[(1, 2)] == [(0, 1, 2, 1, 2), (1, 1, 2, 1, 3)]

    def test_freed_link_takes_an_arrival_at_that_time(self):
        # edge 1 holds link 1-2 over [0, 1]; edge 0 reaches it at t=1 and
        # leaves at 2 without waiting
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], sources=(0, 1), sink=2)
        cg = build_computation(3, [(0, 2, 1.0), (1, 2, 1.0)], (0, 1), 2, np.zeros((3, 3)))
        rep, sched = capacity_aware_delay(cg, net, apsp(net), Embedding((0, 1, 2)))
        assert rep.total == 2
        assert _uses(sched)[(1, 2)] == [(1, 1, 2, 0, 1), (0, 1, 2, 1, 2)]

    def test_zero_weight_link_and_zero_size_edge(self):
        # link 0-1 costs nothing and edge 1 carries nothing: both still take
        # their turn on each link, for no time
        net = build_network(3, [(0, 1, 0.0), (1, 2, 1.0)], sources=(0, 1), sink=2)
        cg = build_computation(3, [(0, 2, 2.0), (1, 2, 0.0)], (0, 1), 2, np.zeros((3, 3)))
        rep, sched = capacity_aware_delay(cg, net, apsp(net), Embedding((0, 1, 2)))
        assert rep.total == 2
        assert _uses(sched) == {
            (0, 1): [(0, 0, 1, 0, 0)],
            (1, 2): [(0, 1, 2, 0, 2), (1, 1, 2, 0, 2)],
        }

    def test_fan_out_schedule(self, prodsum):
        cg, net, dm = prodsum
        rep, sched = capacity_aware_delay(cg, net, dm, E_COST)
        assert rep.total == 16
        assert _uses(sched) == {
            (0, 3): [(0, 0, 3, 0, 10)],
            (1, 3): [(1, 1, 3, 0, 4)],
            (1, 4): [(2, 1, 4, 0, 2)],
            (2, 4): [(3, 2, 4, 0, 11)],
            (3, 6): [(4, 3, 6, 11, 12)],
            (4, 6): [(5, 4, 6, 12, 14)],
            (6, 7): [(6, 6, 7, 15, 16)],
        }

    def test_long_chain_on_one_node_does_not_recurse(self):
        # every zero-hop delivery fires the next vertex at once: 2,000 of them
        # in a row must not exhaust the interpreter's stack
        p = 2000
        net = build_network(2, [(0, 1, 1.0)], sources=(0,), sink=1)
        proc = np.zeros((p, 2))
        proc[1:, 1] = 0.5
        cg = build_computation(p, [(w, w + 1, 1.0) for w in range(p - 1)], (0,), p - 1, proc)
        dm = apsp(net)
        e = Embedding((0,) + (1,) * (p - 1))
        rep, sched = capacity_aware_delay(cg, net, dm, e)
        assert rep == embedding_delay(cg, dm, e)
        assert rep.total == 1.0 + 0.5 * (p - 1)
        assert _uses(sched) == {(0, 1): [(0, 0, 1, 0, 1)]}

    def test_link_uses_hold_plain_numbers(self, prodsum):
        # edges 4-6 leave non-sources, whose firing times are sums with a
        # numpy processing entry; their times are plain floats all the same
        cg, net, dm = prodsum
        _, sched = capacity_aware_delay(cg, net, dm, E_COST)
        kinds = {tuple(type(getattr(u, f)) for f in ("edge", "tail", "head", "arrival",
                                                     "departure"))
                 for uses in sched.uses.values() for u in uses}
        assert kinds == {(int, int, int, float, float)}


def _uses(sched):
    """(edge, tail, head, arrival, departure) of each link's uses, in service order."""
    return {link: [(u.edge, u.tail, u.head, u.arrival, u.departure) for u in uses]
            for link, uses in sched.uses.items()}


class TestLinkUsage:
    def test_fanin(self, fanin):
        cg, _, dm = fanin
        assert max_link_usage(cg, dm, E_FANIN) == 2

    def test_single_edge(self):
        net = build_network(2, [(0, 1, 1.0)], sources=(0,), sink=1)
        cg = build_computation(2, [(0, 1, 1.0)], (0,), 1, np.zeros((2, 2)))
        assert max_link_usage(cg, apsp(net), Embedding((0, 1))) == 1

    def test_all_on_one_node(self):
        net = build_network(1, [], sources=(0,), sink=0, allow_sink_source=True)
        cg = build_computation(3, [(0, 1, 1.0), (1, 2, 1.0)], (0,), 2, np.zeros((3, 1)))
        assert max_link_usage(cg, apsp(net), Embedding((0, 0, 0))) == 0


class TestValidateEmbedding:
    def test_pinning_enforced(self, prodsum):
        cg, net, _ = prodsum
        validate_embedding(cg, net, E_DELAY)
        with pytest.raises(ValidationError):
            validate_embedding(cg, net, Embedding((3, 1, 2, 3, 5, 6, 7)))
        with pytest.raises(ValidationError):
            validate_embedding(cg, net, Embedding((0, 1, 2, 3, 5, 6, 6)))


def _bytes(value):
    return np.float64(value).tobytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(layered_instances(_FRACTIONS),
                 oracle_instances().map(lambda i: (i[0], None, i[1])),
                 in_trees().map(lambda i: (i[0], None, i[1]))),
       st.data())
def test_property_every_solver_reports_its_embeddings_metric(instance, data):
    # fractional sizes, weights and processing, so a value summed in any
    # other order than the metric's shows in its bytes
    cg, ls, net = instance
    dm = apsp(net)
    solves = [min_cost_treewidth(cg, min_fill_decomposition(cg), net, dm),
              brute_force_min_cost(cg, net, dm)]
    if ls is not None:
        emb, cost, state = min_cost_layered(cg, ls, net, dm)
        solves += [(emb, cost),
                   min_cost_treewidth(cg, layered_path_decomposition(ls, cg), net, dm)]
        if candidates := _intra_layer_edits(cg, ls):
            (a, b), lay = data.draw(st.sampled_from(candidates))
            edge = (a, b, data.draw(_FRACTIONS))
            cg2 = build_computation(cg.p, cg.edges + (edge,), cg.sources, cg.sink, cg.processing)
            emb2, cost2, _ = apply_perturbations(state, cg2, [(edge, lay)], dm)
            assert _bytes(embedding_cost(cg2, dm, emb2)) == _bytes(cost2)
    for emb, cost in solves:
        assert _bytes(embedding_cost(cg, dm, emb)) == _bytes(cost)

    delays = [(cg, brute_force_min_delay)]
    if check_tree(cg):
        # the same tree with unit sizes and no processing is in collapse's class
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a vertex without inputs, as in ``cg``
            unit = build_computation(cg.p, [(a, b, 1.0) for a, b, _ in cg.edges],
                                     cg.sources, cg.sink, np.zeros_like(cg.processing))
        delays += [(cg, min_delay_tree), (unit, min_delay_collapse)]
    for g, solver in delays:
        emb, report = solver(g, net, dm)
        assert _bytes(embedding_delay(g, dm, emb).total) == _bytes(report.total)
