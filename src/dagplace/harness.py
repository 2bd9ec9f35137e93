"""Random instance generation and the reproducible experiment suites.

All randomness flows from numpy SeedSequences spawned off a master seed with
per-trial keys, so runs are deterministic, order-independent and safe to
parallelize.
"""

from __future__ import annotations

import functools
import logging
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .errors import MaxResamplesExceeded, ValidationError
from .metrics import embedding_delay, max_link_usage
from .model import (
    ComputationGraph,
    LayeredStructure,
    NetworkGraph,
    _components,
    apsp,
    build_computation,
    build_network,
)
from .oracle import brute_force_min_delay
from .solver_layered import min_cost_layered
from .solver_tree import min_delay_tree
from .solver_treewidth import DEFAULT_TABLE_BUDGET

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
        if self.n < 2:
            raise ValueError("need at least two network nodes")
        if self.n * self.n > DEFAULT_TABLE_BUDGET:
            raise ValueError(f"an n x n distance table exceeds {DEFAULT_TABLE_BUDGET} cells")
        if self.weight_model not in ("unit", "randint"):
            raise ValueError(f"unknown weight model {self.weight_model!r}")
        if not all(0 < pr <= 1 for pr in self.p_r_grid):
            raise ValueError("edge probabilities must lie in (0,1]")
        if self.instances < 1 or self.placements < 1:
            raise ValueError("counts must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.xi_lo < 0:
            raise ValueError("xi_lo must be non-negative")
        if self.xi_lo > self.xi_hi:
            raise ValueError("xi_lo must not exceed xi_hi")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be at least 1")


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
    if weight_model not in ("unit", "randint"):
        raise ValueError(f"unknown weight model {weight_model!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tails, heads = np.triu_indices(n, 1)  # pairs u < v in row-major order
    for attempt in range(max_resamples):
        mask = rng.random(tails.size) < p_r
        if weight_model == "unit":
            weights = np.ones(np.count_nonzero(mask))
        else:
            lo, hi = weight_range
            weights = rng.integers(lo, hi + 1, size=np.count_nonzero(mask)).astype(float)
        u, v = tails[mask], heads[mask]
        # most sparse draws leave a node without links, and counting takes
        # a fraction of a search
        if np.bincount(np.concatenate((u, v)), minlength=n).all() \
                and len(next(_components(n, u, v))) == n:
            if attempt:
                logger.debug("connected after %d resamples (n=%d, p_r=%g)",
                             attempt, n, p_r)
            # the pairs are distinct, in range and sorted by construction, so
            # only the weights can be invalid; build_network names the link
            edges = tuple(zip(u.tolist(), v.tolist(), weights.tolist()))
            if not (np.isfinite(weights) & (weights >= 0)).all():
                return build_network(n, edges)  # raises, naming the first bad link
            return NetworkGraph(n=n, edges=edges)
    raise MaxResamplesExceeded(
        f"no connected sample in {max_resamples} draws (n={n}, p_r={p_r})"
    )


@functools.lru_cache(maxsize=64)
def _binary_tree(p: int) -> ComputationGraph:
    """The checked heap-shaped in-tree of ``random_binary_tree_cg``, with a
    zero processing table of one column."""
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
    return build_computation(
        p, edges, sources=tuple(range(len(leaves))), sink=p - 1, processing=np.zeros((p, 1))
    )


def random_binary_tree_cg(p: int, n: int, seed, *, xi_lo=1, xi_hi=10) -> ComputationGraph:
    """Binary in-tree: leaves are the sources, the root is the sink.

    Vertex w of the heap shape feeds floor(w/2); leaves become sources 0..K-1,
    the root becomes the sink.  Edge weights are one; processing of each
    non-source vertex is one integer from [xi_lo, xi_hi] uniformly, the same
    at every network node.  The shape is built and checked once per p.
    """
    if p < 3:
        raise ValueError("need at least three vertices")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tree = _binary_tree(p)
    xi = [float(rng.integers(xi_lo, xi_hi + 1)) for _ in range(tree.k, p)]
    proc = np.zeros((p, n))
    proc[tree.k:] = np.array(xi)[:, None]
    if (proc < 0).any():
        return build_computation(p, tree.edges, tree.sources, tree.sink, proc)  # raises
    proc.setflags(write=False)
    return replace(tree, processing=proc)


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
    ls = LayeredStructure(layer=tuple(layer_map))
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
    if cfg.p < 3 or cfg.p - cfg.p // 2 >= cfg.n:  # p - p//2 leaves (sources) and the sink
        raise ValidationError(f"link-usage needs 3 <= p and p - p//2 < n, got p={cfg.p}, n={cfg.n}")
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
    if cfg.layers < 2 or not 1 <= cfg.width < cfg.n or not cfg.p_r_grid:
        raise ValidationError(f"k2-gap needs 2 <= layers, 1 <= width < n and a p_r_grid value,"
                              f" got layers={cfg.layers}, width={cfg.width}, n={cfg.n}")
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
