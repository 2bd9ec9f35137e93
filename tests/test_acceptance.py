"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time

import numpy as np

from conftest import (
    FIXTURES,
    load_embedding_fixture,
    load_fixture,
    place_roles,
    random_connected_network,
    random_dag_cg,
    random_embedding,
    random_tree_cg,
)
from dagplace.harness import (
    ExperimentConfig,
    experiment_k2_gap,
    experiment_link_usage,
    random_layered_cg,
)
from dagplace.metrics import (
    capacity_aware_delay,
    embedding_cost,
    embedding_delay,
)
from dagplace.model import apsp, build_computation, infer_layering
from dagplace.oracle import brute_force_min_cost, brute_force_min_delay
from dagplace.solver_layered import apply_perturbations, min_cost_layered
from dagplace.solver_tree import min_delay_tree
from dagplace.solver_treewidth import (
    layered_path_decomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)
from test_ladder import (
    ladder_cost_high,
    ladder_cost_low,
    ladder_delay_low_cost_lane,
    ladder_delay_low_delay_lane,
)


class _Check:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s
        self.failures = []

    def expect(self, label, ok):
        if not ok:
            self.failures.append(label)

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        if exc is not None:
            print(f"[FAIL] criterion {self.number}: {self.description} ({exc})")
            return False
        if elapsed > self.limit_s:
            self.failures.append(f"runtime {elapsed:.1f}s over the {self.limit_s}s limit")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.description}"
              f" ({elapsed:.1f}s)")
        assert not self.failures, f"criterion {self.number}: {self.failures}"
        return False


def test_criterion_1_reference_instance_exactness():
    with _Check(1, "reference instance cost/delay and optima", 1.0) as c:
        cg, net = load_fixture("prodsum")
        dm = apsp(net)
        e1 = load_embedding_fixture("prodsum", "emb_delay")
        e2 = load_embedding_fixture("prodsum", "emb_cost")
        c.expect("cost(E1)=36", embedding_cost(cg, dm, e1) == 36)
        c.expect("cost(E2)=34", embedding_cost(cg, dm, e2) == 34)
        c.expect("delay(E1)=14", embedding_delay(cg, dm, e1).total == 14)
        c.expect("delay(E2)=16", embedding_delay(cg, dm, e2).total == 16)
        _, cost, _ = min_cost_layered(cg, infer_layering(cg), net, dm)
        c.expect("layered min cost=34", cost == 34)
        _, rep = brute_force_min_delay(cg, net, dm)
        c.expect("oracle min delay=14", rep.total == 14)


def test_criterion_2_ladder_closed_forms():
    with _Check(2, "two-lane ladder closed forms (a=10, eps=0.1, l=3)", 1.0) as c:
        a, eps, l = 10.0, 0.1, 3
        cg, net = load_fixture("ladder")
        e1 = load_embedding_fixture("ladder", "emb_lowcost")
        e2 = load_embedding_fixture("ladder", "emb_lowdelay")
        dm = apsp(net)
        tol = 1e-9
        c.expect("C(E1)", abs(embedding_cost(cg, dm, e1)
                              - ladder_cost_low(a, eps, l)) <= tol)
        c.expect("d(E1)", abs(embedding_delay(cg, dm, e1).total
                              - ladder_delay_low_cost_lane(a, eps, l)) <= tol)
        c.expect("C(E2)", abs(embedding_cost(cg, dm, e2)
                              - ladder_cost_high(a, eps, l)) <= tol)
        c.expect("d(E2)", abs(embedding_delay(cg, dm, e2).total
                              - ladder_delay_low_delay_lane(a, eps, l)) <= tol)


def test_criterion_3_contention():
    with _Check(3, "shared-link contention raises delay 5 to 6", 1.0) as c:
        cg, net = load_fixture("fanin")
        dm = apsp(net)
        emb = load_embedding_fixture("fanin", "emb")
        c.expect("ideal delay=5", embedding_delay(cg, dm, emb).total == 5)
        rep, _ = capacity_aware_delay(cg, net, dm, emb)
        c.expect("capacity-aware delay=6", rep.total == 6)
        _, best = min_delay_tree(cg, net, dm)
        c.expect("tree solver delay=5", best.total == 5)


def test_criterion_4_oracle_equivalence():
    with _Check(4, "solvers equal brute force on random instances", 120.0) as c:
        rng = np.random.default_rng(1004)
        done = 0
        while done < 200:  # trees, p <= 7, n <= 6
            n = int(rng.integers(2, 7))
            net = random_connected_network(n, rng, weight_range=(0, 5))
            cg = random_tree_cg(rng, int(rng.integers(3, 8)), n)
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, rep = min_delay_tree(cg, pnet, dm)
            _, best = brute_force_min_delay(cg, pnet, dm)
            c.expect(f"tree instance {done}", rep.total == best.total)
            done += 1
        done = 0
        while done < 200:  # layered, r <= 4, k <= 2, n <= 6
            n = int(rng.integers(2, 7))
            cg, ls = random_layered_cg(int(rng.integers(2, 5)), 2, n, rng)
            if cg.k + 1 > n:
                continue
            net = random_connected_network(n, rng, weight_range=(0, 5))
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, cost, _ = min_cost_layered(cg, ls, pnet, dm)
            _, best = brute_force_min_cost(cg, pnet, dm)
            c.expect(f"layered instance {done}", cost == best)
            done += 1
        done = 0
        while done < 100:  # treewidth via min-fill, on general DAGs
            n = int(rng.integers(2, 6))
            cg = random_dag_cg(rng, int(rng.integers(3, 8)), n)
            if cg.k + 1 > n:
                continue
            net = random_connected_network(n, rng, weight_range=(0, 5))
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            emb, cost = min_cost_treewidth(cg, min_fill_decomposition(cg), pnet, dm)
            _, best = brute_force_min_cost(cg, pnet, dm)
            c.expect(f"treewidth instance {done}", cost == best)
            c.expect(f"treewidth charge uniqueness {done}",
                     embedding_cost(cg, dm, emb) == cost)
            done += 1
        done = 0
        while done < 50:  # path decomposition agrees with the layered sweep
            n = int(rng.integers(2, 6))
            cg, ls = random_layered_cg(int(rng.integers(2, 5)), 2, n, rng)
            if cg.k + 1 > n:
                continue
            net = random_connected_network(n, rng, weight_range=(0, 5))
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, cost_l, _ = min_cost_layered(cg, ls, pnet, dm)
            _, cost_p = min_cost_treewidth(
                cg, layered_path_decomposition(ls, cg), pnet, dm
            )
            c.expect(f"cross-solver instance {done}", cost_p == cost_l)
            done += 1


def test_criterion_5_incremental_equals_fresh():
    from test_solver_layered import _random_perturbation_case

    with _Check(5, "incremental re-plan equals fresh solve", 60.0) as c:
        rng = np.random.default_rng(1005)
        done = 0
        while done < 100:
            case = _random_perturbation_case(rng)
            if case is None:
                continue
            state, cg2, edits, ls2, pnet, dm = case
            _, cost_inc, _ = apply_perturbations(state, cg2, edits, dm)
            _, cost_fresh, _ = min_cost_layered(cg2, ls2, pnet, dm)
            c.expect(f"batch {done}", cost_inc == cost_fresh)
            done += 1


def test_criterion_6_property_suites():
    with _Check(6, "metric inequalities and invariances", 120.0) as c:
        rng = np.random.default_rng(1006)
        done = 0
        while done < 1000:  # delay <= cost and capacity-aware >= ideal
            n = int(rng.integers(2, 7))
            net = random_connected_network(n, rng, weight_range=(0, 4))
            cg = random_tree_cg(rng, int(rng.integers(3, 8)), n, lam_hi=2)
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            e = random_embedding(cg, pnet, rng)
            ideal = embedding_delay(cg, dm, e)
            c.expect("d<=C", ideal.total <= embedding_cost(cg, dm, e))
            rep, _ = capacity_aware_delay(cg, pnet, dm, e)
            c.expect("cap>=d", rep.total >= ideal.total - 1e-9)
            done += 1
        done = 0
        while done < 100:  # direction invariance of the cost
            n = int(rng.integers(2, 6))
            net = random_connected_network(n, rng, weight_range=(0, 4))
            cg = random_tree_cg(rng, int(rng.integers(3, 7)), n)
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            e = random_embedding(cg, pnet, rng)
            base = embedding_cost(cg, dm, e)
            flipped = tuple(
                (b, a, lam) if rng.random() < 0.5 else (a, b, lam)
                for a, b, lam in cg.edges
            )
            cg2 = dataclasses.replace(cg, edges=flipped)
            c.expect("direction invariance", embedding_cost(cg2, dm, e) == base)
            done += 1
        done = 0
        while done < 100:  # sink collapse is optimal without processing delays
            n = int(rng.integers(2, 6))
            net = random_connected_network(n, rng, weight_range=(0, 4))
            cg = random_tree_cg(rng, int(rng.integers(3, 7)), n)
            cg = build_computation(
                cg.p, [(a, b, 1.0) for a, b, _ in cg.edges], cg.sources, cg.sink,
                np.zeros((cg.p, n)),
            )
            if cg.k + 1 > n:
                continue
            pnet = place_roles(net, cg.k, rng)
            dm = apsp(pnet)
            _, best = brute_force_min_delay(cg, pnet, dm)
            bound = max(dm.dist[s, pnet.sink] for s in pnet.sources)
            c.expect("collapse bound attained", best.total == bound)
            done += 1


def test_criterion_7_link_usage_study():
    with _Check(7, "max link usage falls toward one on denser networks", 300.0) as c:
        cfg = ExperimentConfig(
            n=60, p_r_grid=(0.05, 0.1, 0.2, 0.4, 0.8),
            instances=8, placements=5, p=16, master_seed=42,
        )
        table = experiment_link_usage(cfg)
        means = [row[1] for row in table.rows]
        inversions = [max(0.0, b - a) for a, b in zip(means, means[1:])]
        c.expect("at most one inversion", sum(1 for x in inversions if x > 0) <= 1)
        c.expect("inversion at most 0.2", all(x <= 0.2 for x in inversions))
        c.expect("densest mean <= 1.2", means[-1] <= 1.2)
        pinned = (FIXTURES / "bench_link_usage_desk_expected.csv").read_text()
        c.expect("regression data unchanged", table.to_csv() == pinned)


def test_criterion_8_k2_gap_study(capsys):
    with _Check(8, "min-cost embedding within k^2 of the minimum delay", 120.0) as c:
        cfg = ExperimentConfig(
            n=5, p_r_grid=(0.6,), instances=100, placements=1, p=8,
            master_seed=7, layers=3, width=2, xi_lo=0, xi_hi=3,
        )
        table = experiment_k2_gap(cfg)
        c.expect("all instances solved", len(table.rows) == 100)
        within = sum(1 for _, _, ratio, bound, _, _ in table.rows
                     if ratio <= bound + 1e-12)
        with capsys.disabled():
            print()
            for inst, k, ratio, bound, dc, dmin in table.rows:
                print(f"  instance {inst:3d}: k={k} ratio={ratio:.4f} bound={bound}")
        c.expect("ratio within bound on >= 95 instances", within >= 95)
        c.expect("ratios at least one", all(r >= 1 - 1e-12 for _, _, r, _, _, _ in table.rows))
