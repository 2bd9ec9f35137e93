import logging
import math

import numpy as np
import pytest

from dagplace.errors import MaxResamplesExceeded
from dagplace.harness import (
    ExperimentConfig,
    StatsTable,
    experiment_k2_gap,
    experiment_link_usage,
    random_binary_tree_cg,
    random_layered_cg,
    random_network,
)
from dagplace.model import _components, build_network, check_tree, infer_layering


def reference_random_network(n, p_r, seed, weight_model="unit", *, max_resamples=200,
                             weight_range=(1, 5)):
    """The list-of-pairs sampler that ``random_network`` replaced; it draws
    the same generator stream."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(max_resamples):
        mask = rng.random(len(pairs)) < p_r
        chosen = [p for p, m in zip(pairs, mask) if m]
        if weight_model == "unit":
            weights = [1.0] * len(chosen)
        else:
            lo, hi = weight_range
            weights = [float(x) for x in rng.integers(lo, hi + 1, size=len(chosen))]
        edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
        if len(_components(n, edges)) == 1:
            return build_network(n, edges)
    raise MaxResamplesExceeded("no connected sample")


class TestRandomNetwork:
    @pytest.mark.parametrize("weight_model", ["unit", "randint"])
    @pytest.mark.parametrize("p_r", [0.05, 0.1, 0.3, 0.6, 1.0])
    def test_same_networks_as_the_reference_sampler(self, p_r, weight_model, caplog):
        caplog.set_level(logging.DEBUG, logger="dagplace.harness")
        for seed in range(6):
            got = random_network(60, p_r, seed, weight_model)
            assert got.edges == reference_random_network(60, p_r, seed, weight_model).edges
            assert all(type(x) is int for u, v, _ in got.edges for x in (u, v))
            assert all(type(w) is float for _, _, w in got.edges)
        if p_r == 0.05:  # resample-heavy: most draws are disconnected
            assert "resamples" in caplog.text

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


class TestRandomTree:
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
