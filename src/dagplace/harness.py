"""Random instance generation and the reproducible experiment suites.

All randomness flows from numpy SeedSequences spawned off a master seed with
per-trial keys, so runs are deterministic, order-independent and safe to
parallelize.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import MaxResamplesExceeded
from .metrics import embedding_delay, max_link_usage
from .model import (
    ComputationGraph,
    LayeredStructure,
    NetworkGraph,
    apsp,
    build_computation,
    build_network,
)
from .oracle import brute_force_min_delay
from .solver_layered import min_cost_layered
from .solver_tree import min_delay_tree

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p_r_grid: tuple[float, ...]
    instances: int
    placements: int
    p: int
    master_seed: int
    weight_model: str = "unit"  # network edge weights
    xi_lo: int = 1
    xi_hi: int = 10
    max_resamples: int = 200
    # the gap study draws layered instances instead of trees
    layers: int = 3
    width: int = 2

    def __post_init__(self):
        if not all(0 < pr <= 1 for pr in self.p_r_grid):
            raise ValueError("edge probabilities must lie in (0,1]")
        if self.instances < 1 or self.placements < 1:
            raise ValueError("counts must be at least 1")


@dataclass(frozen=True)
class StatsTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
        return "\n".join(lines) + "\n"


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def random_network(
    n: int,
    p_r: float,
    seed,
    weight_model: str = "unit",
    *,
    max_resamples: int = 200,
    weight_range: tuple[int, int] = (1, 5),
) -> NetworkGraph:
    """Erdos-Renyi network, resampled until connected.

    ``weight_model`` is "unit" or "randint" (uniform integers from
    ``weight_range``).  Roles (sources, sink) are assigned separately.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for attempt in range(max_resamples):
        mask = rng.random(len(pairs)) < p_r
        chosen = [p for p, m in zip(pairs, mask) if m]
        if weight_model == "unit":
            weights = [1.0] * len(chosen)
        elif weight_model == "randint":
            lo, hi = weight_range
            weights = [float(x) for x in rng.integers(lo, hi + 1, size=len(chosen))]
        else:
            raise ValueError(f"unknown weight model {weight_model!r}")
        edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
        if _connected(n, edges):
            if attempt:
                logger.debug("connected after %d resamples (n=%d, p_r=%g)",
                             attempt, n, p_r)
            return build_network(n, edges)
    raise MaxResamplesExceeded(
        f"no connected sample in {max_resamples} draws (n={n}, p_r={p_r})"
    )


def _connected(n, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def random_connected_network(n, seed, *, extra_edge_p=0.3, weight_range=(0, 5)) -> NetworkGraph:
    """Random spanning tree plus extra edges; integer weights, test-sized."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = weight_range
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.integers(lo, hi + 1))))
        present.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_p:
                edges.append((u, v, float(rng.integers(lo, hi + 1))))
    return build_network(n, edges)


def random_binary_tree_cg(p: int, n: int, seed, *, xi_lo=1, xi_hi=10) -> ComputationGraph:
    """Binary in-tree: leaves are the sources, the root is the sink.

    Vertex w of the heap shape feeds floor(w/2); leaves become sources 0..K-1,
    the root becomes the sink.  Edge weights are one; processing of each
    non-source vertex is one integer from [xi_lo, xi_hi] uniformly, the same
    at every network node.
    """
    if p < 3:
        raise ValueError("need at least three vertices")
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


def random_layered_cg(
    r: int, k: int, n: int, seed, *, lam_choices=(1.0,), xi_range=(0, 3)
) -> tuple[ComputationGraph, LayeredStructure]:
    """Random layered DAG whose longest-path layering equals the built one.

    Layer 1 holds the sources, layer r the sink alone; every other layer has
    1..k vertices.  Each non-first-layer vertex takes at least one feed from
    the previous layer and every non-sink vertex feeds the next layer, so all
    vertices lie on source-to-sink paths.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    widths = [int(rng.integers(1, k + 1)) for _ in range(r)]
    widths[-1] = 1
    layers = []
    nxt = 0
    for wd in widths:
        layers.append(list(range(nxt, nxt + wd)))
        nxt += wd
    p = nxt
    sink = p - 1
    edges = set()
    for l in range(1, r):
        for w in layers[l]:
            feeds = rng.choice(layers[l - 1], size=int(rng.integers(1, len(layers[l - 1]) + 1)),
                               replace=False)
            for u in feeds:
                edges.add((int(u), w))
    for l in range(r - 1):
        for u in layers[l]:
            if not any((u, w) in edges for w in layers[l + 1]):
                edges.add((u, int(rng.choice(layers[l + 1]))))
    lam = {e: float(rng.choice(lam_choices)) for e in edges}
    proc = np.zeros((p, n))
    lo, hi = xi_range
    for w in range(p):
        if w not in layers[0]:
            proc[w, :] = rng.integers(lo, hi + 1, size=n)
    layer_map = [0] * p
    for i, ws in enumerate(layers):
        for w in ws:
            layer_map[w] = i + 1
    cg = build_computation(
        p,
        [(a, b, lam[(a, b)]) for a, b in sorted(edges)],
        sources=tuple(layers[0]),
        sink=sink,
        processing=proc,
    )
    ls = LayeredStructure(layer=tuple(layer_map), r=r, k=max(widths))
    return cg, ls


def _place_roles(net: NetworkGraph, k: int, rng) -> NetworkGraph:
    picks = rng.choice(net.n, size=k + 1, replace=False)
    return net.with_roles(tuple(int(x) for x in picks[:-1]), int(picks[-1]))


def _usage_trials(cfg: ExperimentConfig, gi: int, inst: int) -> list[int]:
    """All placements of one (grid point, instance) pair; empty when the
    network sample stayed disconnected."""
    p_r = cfg.p_r_grid[gi]
    try:
        net = random_network(
            cfg.n, p_r, _rng(cfg.master_seed, gi, inst, 0),
            cfg.weight_model, max_resamples=cfg.max_resamples,
        )
    except MaxResamplesExceeded:
        return []
    dm = apsp(net)
    values = []
    for pl in range(cfg.placements):
        rng = _rng(cfg.master_seed, gi, inst, 1 + pl)
        cg = random_binary_tree_cg(cfg.p, cfg.n, rng, xi_lo=cfg.xi_lo, xi_hi=cfg.xi_hi)
        pnet = _place_roles(net, cg.k, rng)
        emb, _ = min_delay_tree(cg, pnet, dm)
        values.append(max_link_usage(cg, dm, emb))
    return values


def experiment_link_usage(cfg: ExperimentConfig) -> StatsTable:
    """Mean/median of the maximum link usage of minimum-delay tree embeddings.

    For each edge probability: ``instances`` random networks, each solved for
    ``placements`` random source/sink placements.  Samples that stay
    disconnected past the resample limit are discarded and counted out of the
    ``trials`` column.
    """
    rows = []
    for gi, p_r in enumerate(cfg.p_r_grid):
        values = [v for inst in range(cfg.instances) for v in _usage_trials(cfg, gi, inst)]
        rows.append((
            p_r,
            statistics.fmean(values) if values else float("nan"),
            float(statistics.median(values)) if values else float("nan"),
            len(values),
        ))
    return StatsTable(columns=("p_r", "mean", "median", "trials"), rows=tuple(rows))


def experiment_k2_gap(cfg: ExperimentConfig) -> StatsTable:
    """Delay of the min-cost embedding versus the true minimum delay.

    Each instance is a random layered graph with unit edge weights embedded in
    a random unit-weight network; the row reports the ratio and the k*k bound.
    """
    rows = []
    for inst in range(cfg.instances):
        rng = _rng(cfg.master_seed, inst)
        try:
            net = random_network(cfg.n, cfg.p_r_grid[0], rng, "unit",
                                 max_resamples=cfg.max_resamples)
        except MaxResamplesExceeded:
            continue
        cg, ls = random_layered_cg(cfg.layers, cfg.width, cfg.n, rng,
                                   xi_range=(cfg.xi_lo, cfg.xi_hi))
        pnet = _place_roles(net, cg.k, rng)
        dm = apsp(pnet)
        emb_c, _, _ = min_cost_layered(cg, ls, pnet, dm)
        delay_of_cost = embedding_delay(cg, dm, emb_c).total
        _, best = brute_force_min_delay(cg, pnet, dm)
        ratio = delay_of_cost / best.total if best.total > 0 else 1.0
        rows.append((inst, ls.k, ratio, float(ls.k**2), delay_of_cost, best.total))
    return StatsTable(
        columns=("instance", "k", "ratio", "bound", "delay_of_min_cost", "min_delay"),
        rows=tuple(rows),
    )
