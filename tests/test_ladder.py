"""The two-lane ladder: a parameterised instance whose cost and delay have
closed forms.

``fixtures/ladder_*.json`` hold ``ladder_instance(10, 0.1, 3)``; the builder
lets the closed forms be checked at other sizes too.
"""

import numpy as np
import pytest

from conftest import load_embedding_fixture, load_fixture
from dagplace.metrics import Embedding, embedding_cost, embedding_delay
from dagplace.model import ComputationGraph, NetworkGraph, apsp, build_computation, build_network


def ladder_cost_low(a: float, eps: float, stages: int) -> float:
    """Closed-form cost of the low-cost lane embedding."""
    return stages * (3 + 1.1 * a + 2 * eps) + eps


def ladder_delay_low_cost_lane(a: float, eps: float, stages: int) -> float:
    return stages * (a + eps + 2) + eps


def ladder_cost_high(a: float, eps: float, stages: int) -> float:
    """Closed-form cost of the low-delay lane embedding."""
    return stages * (3 + 1.2 * a + 2 * eps) + eps


def ladder_delay_low_delay_lane(a: float, eps: float, stages: int) -> float:
    return stages * (0.7 * a + eps + 2) + eps


def ladder_instance(
    a: float, eps: float, stages: int
) -> tuple[ComputationGraph, NetworkGraph, Embedding, Embedding]:
    """Build the two-lane ladder and its two lane embeddings.

    The computation graph chains ``stages`` combine vertices: the first is fed
    by two relays from sources 1 and 2, each later one by a left/right pair
    that also absorbs two fresh sources.  The network provides two placement
    lanes per stage whose per-stage cost sums are 1.1a + 2eps (low-cost lane)
    and 1.2a + 2eps (low-delay lane) and whose critical-path increments are
    a + eps + 2 and 0.7a + eps + 2.  Edge weights are balanced so that every
    distance an embedding pays equals its direct edge weight even though the
    lanes share side hosts and the sink.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    l = stages
    n_src = 2 * l

    # computation vertices
    p1, q1 = n_src, n_src + 1
    sigma = [n_src + 2]
    left, right = [], []
    nxt = n_src + 3
    for _ in range(l - 1):
        left.append(nxt)
        right.append(nxt + 1)
        sigma.append(nxt + 2)
        nxt += 3
    sink = nxt
    p = sink + 1

    cg_edges = [(0, p1, 1.0), (1, q1, 1.0), (p1, sigma[0], 1.0), (q1, sigma[0], 1.0)]
    for i in range(l - 1):
        cg_edges += [
            (sigma[i], left[i], 1.0),
            (sigma[i], right[i], 1.0),
            (2 * i + 2, left[i], 1.0),
            (2 * i + 3, right[i], 1.0),
            (left[i], sigma[i + 1], 1.0),
            (right[i], sigma[i + 1], 1.0),
        ]
    cg_edges.append((sigma[l - 1], sink, 1.0))

    # network nodes: sources, four relay hosts, per-stage combiner pair,
    # per-gap shared side pair, sink
    np1, nq1, np2, nq2 = n_src, n_src + 1, n_src + 2, n_src + 3
    c = []    # low-cost lane combiner hosts
    cp = []   # low-delay lane combiner hosts
    g, h = [], []
    nn = n_src + 4
    for i in range(l):
        c.append(nn)
        cp.append(nn + 1)
        nn += 2
        if i < l - 1:
            g.append(nn)
            h.append(nn + 1)
            nn += 2
    t = nn
    n = t + 1

    net_edges = [
        (0, np1, 0.75 * a + eps),
        (0, np2, 0.5 * a),
        (1, nq1, 0.1 * a),
        (1, nq2, 0.4 * a + eps),
        (np1, c[0], 0.25 * a),
        (nq1, c[0], eps),
        (np2, cp[0], eps),
        (nq2, cp[0], 0.3 * a),
        (c[l - 1], t, eps),
        (cp[l - 1], t, eps),
    ]
    for i in range(l - 1):
        # Two weight patterns alternate so no cross-lane detour undercuts a
        # paid edge: the lanes' value difference sits on the combiner side
        # whose inter-lane bridge is wide, and the two patterns provide those
        # wide bridges to each other (the sink end starts the alternation).
        if (l - 2 - i) % 2 == 0:
            a1, b1, a2, b2 = 0.55 * a + eps, 0.45 * a, eps, 0.1 * a
            a1p, b1p, a2p, b2p = 0.25 * a + eps, 0.45 * a, 0.4 * a + eps, 0.1 * a
        else:
            a1, b1, a2, b2 = 0.5 * a + eps, 0.5 * a, eps, 0.1 * a
            a1p, b1p, a2p, b2p = 0.5 * a + eps, 0.2 * a, eps, 0.5 * a
        net_edges += [
            (c[i], g[i], a1),
            (g[i], c[i + 1], b1),
            (c[i], h[i], a2),
            (h[i], c[i + 1], b2),
            (cp[i], g[i], a1p),
            (g[i], cp[i + 1], b1p),
            (cp[i], h[i], a2p),
            (h[i], cp[i + 1], b2p),
            (2 * i + 2, g[i], 0.0),
            (2 * i + 3, h[i], 0.0),
        ]

    proc = np.zeros((p, n))
    for w in range(n_src, sink):
        proc[w, :] = 1.0
    cg = build_computation(p, cg_edges, sources=tuple(range(n_src)), sink=sink, processing=proc)
    net = build_network(n, net_edges, sources=tuple(range(n_src)), sink=t)

    asg1 = list(range(n_src)) + [0] * (p - n_src)
    asg2 = list(range(n_src)) + [0] * (p - n_src)
    asg1[p1], asg1[q1] = np1, nq1
    asg2[p1], asg2[q1] = np2, nq2
    for i in range(l):
        asg1[sigma[i]] = c[i]
        asg2[sigma[i]] = cp[i]
    for i in range(l - 1):
        asg1[left[i]] = asg2[left[i]] = g[i]
        asg1[right[i]] = asg2[right[i]] = h[i]
    asg1[sink] = asg2[sink] = t
    return cg, net, Embedding(tuple(asg1)), Embedding(tuple(asg2))


def test_builder_matches_shipped_json():
    cg, net, low_cost, low_delay = ladder_instance(10.0, 0.1, 3)
    shipped_cg, shipped_net = load_fixture("ladder")
    assert shipped_net == net
    for field in ("p", "edges", "sources", "sink", "is_dag"):
        assert getattr(shipped_cg, field) == getattr(cg, field), field
    assert np.array_equal(shipped_cg.processing, cg.processing)
    assert load_embedding_fixture("ladder", "emb_lowcost") == low_cost
    assert load_embedding_fixture("ladder", "emb_lowdelay") == low_delay


@pytest.mark.parametrize("stages", range(1, 7))
@pytest.mark.parametrize("a, eps", [(10.0, 0.1), (4.0, 0.5), (20.0, 0.01)])
def test_closed_forms(a, eps, stages):
    cg, net, low_cost, low_delay = ladder_instance(a, eps, stages)
    dm = apsp(net)
    tol = 1e-9
    assert abs(embedding_cost(cg, dm, low_cost) - ladder_cost_low(a, eps, stages)) <= tol
    assert abs(embedding_delay(cg, dm, low_cost).total
               - ladder_delay_low_cost_lane(a, eps, stages)) <= tol
    assert abs(embedding_cost(cg, dm, low_delay) - ladder_cost_high(a, eps, stages)) <= tol
    assert abs(embedding_delay(cg, dm, low_delay).total
               - ladder_delay_low_delay_lane(a, eps, stages)) <= tol
