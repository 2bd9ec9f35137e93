import logging
import math
import re

import numpy as np
import pytest

from dagplace.errors import MaxResamplesExceeded, ValidationError
from dagplace.harness import (
    ExperimentConfig,
    StatsTable,
    _rng,
    experiment_k2_gap,
    experiment_link_usage,
    random_binary_tree_cg,
    random_layered_cg,
    random_network,
)
from conftest import reference_components
from dagplace.model import build_computation, build_network, check_tree, infer_layering

NAN = float("nan")


def reference_random_network(n, p_r, seed, weight_model="unit", *, max_resamples=200,
                             weight_range=(1, 5)):
    """(network, resamples) of the list-of-pairs sampler that
    ``random_network`` replaced; it draws the same generator stream and
    checks each draw with ``reference_components`` and ``build_network``."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for attempt in range(max_resamples):
        mask = rng.random(len(pairs)) < p_r
        chosen = [p for p, m in zip(pairs, mask) if m]
        if weight_model == "unit":
            weights = [1.0] * len(chosen)
        else:
            lo, hi = weight_range
            weights = [float(x) for x in rng.integers(lo, hi + 1, size=len(chosen))]
        edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
        if len(reference_components(n, edges)) == 1:
            return build_network(n, edges), attempt
    raise MaxResamplesExceeded("no connected sample")


def _outcome(sample, *args, **kwargs):
    """("edges", edges) of a sampled network, or ("raises", type, message)."""
    try:
        return "edges", sample(*args, **kwargs).edges
    except Exception as exc:  # compared with the reference's, whatever it is
        return "raises", type(exc), str(exc)


class TestRandomNetwork:
    @pytest.mark.parametrize("weight_model", ["unit", "randint"])
    @pytest.mark.parametrize("p_r", [0.05, 0.1, 0.3, 0.6, 1.0])
    def test_same_networks_as_the_reference_sampler(self, p_r, weight_model, caplog):
        caplog.set_level(logging.DEBUG, logger="dagplace.harness")
        for seed in range(6):
            caplog.clear()
            got = random_network(60, p_r, seed, weight_model)
            ref, resamples = reference_random_network(60, p_r, seed, weight_model)
            assert got.edges == ref.edges
            assert all(type(x) is int for u, v, _ in got.edges for x in (u, v))
            assert all(type(w) is float for _, _, w in got.edges)
            # the DEBUG line the benchmark counts, only after a resample
            logged = re.findall(r"connected after (\d+) resamples", caplog.text)
            assert logged == ([str(resamples)] if resamples else [])
        if p_r == 0.05:  # resample-heavy: most draws are disconnected
            assert "resamples" in caplog.text

    @pytest.mark.parametrize("weight_range", [(-3, -1), (-1, 2), (NAN, 4), (1, NAN)])
    def test_bad_weights_raise_as_build_network(self, weight_range):
        # a negative weight is named by build_network; a NaN bound fails in the draw
        for n, p_r, seed in [(12, 0.5, 0), (12, 0.5, 1), (30, 0.1, 2), (2, 1.0, 3)]:
            got = _outcome(random_network, n, p_r, seed, "randint", weight_range=weight_range)
            assert got[0] == "raises"
            assert got == _outcome(lambda *a, **k: reference_random_network(*a, **k)[0],
                                   n, p_r, seed, "randint", weight_range=weight_range)
        with pytest.raises(ValidationError, match=r"^edge \(0,1\) has negative weight -3\.0$"):
            random_network(2, 1.0, 0, "randint", weight_range=(-3, -3))

    def test_complete_graph_at_p_one(self):
        net = random_network(7, 1.0, 0)
        assert len(net.edges) == 7 * 6 // 2

    def test_deterministic_for_seed(self):
        a = random_network(12, 0.4, 99)
        b = random_network(12, 0.4, 99)
        assert a.edges == b.edges

    def test_edge_count_within_binomial_bound(self):
        net = random_network(120, 0.5, 1)
        pairs = 120 * 119 // 2
        sigma = math.sqrt(pairs * 0.25)
        assert abs(len(net.edges) - pairs * 0.5) < 4 * sigma

    def test_resample_limit(self):
        with pytest.raises(MaxResamplesExceeded):
            random_network(40, 0.001, 5, max_resamples=3)

    def test_randint_weights(self):
        net = random_network(8, 0.9, 3, "randint", weight_range=(2, 4))
        assert all(2 <= w <= 4 and w == int(w) for _, _, w in net.edges)


def reference_binary_tree_cg(p: int, n: int, seed, *, xi_lo=1, xi_hi=10):
    """The per-call construction that ``random_binary_tree_cg`` replaced: the
    heap shape rebuilt and checked by ``build_computation`` on every call."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    heap_children = {w: [c for c in (2 * w, 2 * w + 1) if c <= p] for w in range(1, p + 1)}
    leaves = sorted(w for w, cs in heap_children.items() if not cs)
    internal = sorted((w for w, cs in heap_children.items() if cs), reverse=True)
    ident = {}
    for i, w in enumerate(leaves):
        ident[w] = i
    for i, w in enumerate(internal[:-1]):
        ident[w] = len(leaves) + i
    ident[1] = p - 1  # root last
    edges = [(ident[w], ident[w // 2], 1.0) for w in range(2, p + 1)]
    proc = np.zeros((p, n))
    for w in range(len(leaves), p):
        proc[w, :] = float(rng.integers(xi_lo, xi_hi + 1))
    return build_computation(
        p, edges, sources=tuple(range(len(leaves))), sink=p - 1, processing=proc
    )


class TestRandomTree:
    def test_same_trees_as_the_reference_construction(self):
        # one generator feeds many calls, as in a link-usage trial
        got_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for p in [*range(3, 41), 16, 3, 40, 16]:
            for n, xi in [(1, (1, 10)), (6, (0, 3)), (60, (2, 2))]:
                got = random_binary_tree_cg(p, n, got_rng, xi_lo=xi[0], xi_hi=xi[1])
                ref = reference_binary_tree_cg(p, n, ref_rng, xi_lo=xi[0], xi_hi=xi[1])
                assert (got.p, got.edges, got.sources, got.sink) == \
                    (ref.p, ref.edges, ref.sources, ref.sink)
                assert got.topological_order() == ref.topological_order()
                assert got.in_edges() == ref.in_edges()
                assert (got.processing.shape, got.processing.dtype, got.processing.tobytes()) \
                    == (ref.processing.shape, ref.processing.dtype, ref.processing.tobytes())
                assert not got.processing.flags.writeable

    @pytest.mark.parametrize("xi", [(-2, 5), (-4, -1)])
    def test_negative_processing_is_rejected(self, xi):
        with pytest.raises(ValidationError, match=r"^processing table has negative entries$"):
            for seed in range(20):  # (-2, 5) draws a negative within a few trees
                random_binary_tree_cg(15, 4, seed, xi_lo=xi[0], xi_hi=xi[1])

    def test_minimal(self):
        cg = random_binary_tree_cg(3, 4, 0)
        assert cg.k == 2 and cg.sink == 2 and check_tree(cg)

    def test_thirty_two_vertices(self):
        cg = random_binary_tree_cg(32, 4, 0)
        assert check_tree(cg)
        assert cg.k == 16

    def test_processing_deterministic(self):
        a = random_binary_tree_cg(9, 5, 123)
        b = random_binary_tree_cg(9, 5, 123)
        assert (np.asarray(a.processing) == np.asarray(b.processing)).all()
        assert a.edges == b.edges


class TestRandomLayered:
    def test_round_trip_against_inference(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            cg, ls = random_layered_cg(int(rng.integers(2, 6)), 3, 5, rng)
            inferred = infer_layering(cg)
            assert inferred.layer == ls.layer


def desk_cfg():
    return ExperimentConfig(
        n=12, p_r_grid=(0.3, 0.9), instances=2, placements=2, p=7, master_seed=5
    )


class TestExperiments:
    def test_single_trial_identity(self):
        from dagplace.metrics import max_link_usage
        from dagplace.model import apsp
        from dagplace.solver_tree import min_delay_tree
        from dagplace.harness import _rng, _place_roles

        cfg = ExperimentConfig(n=8, p_r_grid=(1.0,), instances=1, placements=1,
                               p=5, master_seed=9)
        table = experiment_link_usage(cfg)
        assert table.rows[0][3] == 1
        net = random_network(8, 1.0, _rng(9, 0, 0, 0))
        dm = apsp(net)
        rng = _rng(9, 0, 0, 1)
        cg = random_binary_tree_cg(5, 8, rng)
        pnet = _place_roles(net, cg.k, rng)
        emb, _ = min_delay_tree(cg, pnet, dm)
        assert table.rows[0][1] == float(max_link_usage(cg, dm, emb))

    def test_full_run_determinism(self):
        t1 = experiment_link_usage(desk_cfg())
        t2 = experiment_link_usage(desk_cfg())
        assert t1.to_csv() == t2.to_csv()

    def test_stats_at_least_one(self):
        table = experiment_link_usage(desk_cfg())
        for _, mean, median, trials in table.rows:
            assert trials == 4
            assert mean >= 1 and median >= 1

    def test_k2_rows(self):
        cfg = ExperimentConfig(n=4, p_r_grid=(0.7,), instances=10, placements=1,
                               p=5, master_seed=6, layers=3, width=2, xi_lo=0, xi_hi=2)
        table = experiment_k2_gap(cfg)
        assert table.columns == ("instance", "k", "ratio", "bound",
                                 "delay_of_min_cost", "min_delay")
        assert len(table.rows) >= 8
        for _, k, ratio, bound, dc, dmin in table.rows:
            assert ratio >= 1.0
            assert bound == k * k
            assert math.isclose(ratio, dc / dmin)

    def test_csv_shape(self):
        csv = experiment_link_usage(desk_cfg()).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "p_r,mean,median,trials"
        assert len(lines) == 3


def test_stats_table_csv_round_trip_floats():
    t = StatsTable(columns=("a", "b"), rows=((0.1, 2),))
    assert t.to_csv() == "a,b\n0.1,2\n"


# Every draw the studies make, from generators seeded as the studies seed them
# (one spawned SeedSequence per draw, so a changed method fails alone).  NEP 19
# keeps the bit generators' raw streams stable across numpy releases, but not
# the Generator methods that transform them.
_DRAWS = [  # (test id, where the studies draw it, draw, pinned values)
    ("random", "random_network's links", lambda g: g.random(4).tolist(),
     [0.8815889077323412, 0.23981099858455435, 0.11746826691484324, 0.214337537546487]),
    ("integers-size", "random_network's weights, random_layered_cg's processing",
     lambda g: g.integers(1, 6, size=6).tolist(), [4, 2, 4, 5, 3, 5]),
    ("integers-scalar", "random_binary_tree_cg's processing, random_layered_cg's widths",
     lambda g: [int(g.integers(1, 11)) for _ in range(6)], [2, 10, 6, 10, 9, 3]),
    ("choice-range-60", "_place_roles at n = 60",
     lambda g: g.choice(60, size=4, replace=False).tolist(), [53, 32, 20, 21]),
    ("choice-range-5", "_place_roles at n = 5",
     lambda g: g.choice(5, size=3, replace=False).tolist(), [3, 1, 0]),
    ("choice-list", "random_layered_cg's feeds",
     lambda g: g.choice([3, 4, 5, 6], size=3, replace=False).tolist(), [3, 5, 6]),
    ("choice-one", "random_layered_cg's extra links and weights",
     lambda g: [g.choice([7, 8, 9]).item() for _ in range(5)]
     + [g.choice((1.0,)).item(), g.choice((1.0, 2.0)).item()],
     [7, 7, 8, 7, 8, 1.0, 2.0]),
]


@pytest.mark.parametrize("key, where, draw, pinned",
                         [(i, *d[1:]) for i, d in enumerate(_DRAWS)], ids=[d[0] for d in _DRAWS])
def test_numpy_draws_of_the_studies_are_pinned(key, where, draw, pinned):
    got = draw(_rng(20140, key))
    assert got == pinned, (
        f"{where}: numpy {np.__version__} draws {got}, but the desk CSV, the k2-gap "
        f"counts and the perfbench references were recorded with draws giving {pinned}. "
        "NEP 19 lets a numpy release change how Generator methods transform the bit "
        "stream, so if only numpy changed, the study outputs change with it."
    )
