"""Graph data model: communication networks, computation DAGs, shortest paths.

Node ids are dense integers 0..n-1 (resp. 0..p-1).  Human-readable names are
handled by the CLI layer.  All types are immutable after construction and all
operations here are pure functions.
"""

from __future__ import annotations

import functools
import heapq
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CyclicGraph,
    DisconnectedGraph,
    DuplicateEdge,
    NegativeWeight,
    NotLayered,
    SelfLoop,
    SinkNotLast,
    UnknownNodeId,
    ValidationError,
)


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected weighted connected network with optional source/sink roles.

    Edge weights are finite, non-negative transmission times (or costs) of
    one unit of data.
    ``sources`` may be empty and ``sink`` None for a bare topology whose roles
    are assigned later; solvers require both to be set.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]  # (u, v, weight) with u < v
    sources: tuple[int, ...] = ()
    sink: int | None = None

    @property
    def k(self) -> int:
        return len(self.sources)

    def with_roles(self, sources, sink) -> "NetworkGraph":
        sources, sink = _check_roles(self.n, sources, sink)
        return replace(self, sources=sources, sink=sink)


@dataclass(frozen=True, eq=False)
class ComputationGraph:
    """Weighted computation DAG with a per-(vertex, network node) processing table.

    ``edges`` are directed (tail, head, weight) triples; the weight is the
    size of the intermediate result flowing along the edge.  ``processing``
    has shape (p, n) and is zero on source rows by convention.

    ``__post_init__`` derives from ``edges`` each vertex's in-edges, as
    (tail, weight) pairs, its out-edges, as indices into ``edges`` (both in
    edge order), and the topological order: Kahn's, smallest ready vertex
    first, and None on a cycle (then ``is_dag`` is False).  They cannot be
    passed in, so ``dataclasses.replace`` rebuilds them.
    Equality and hashing are by identity: ``processing`` is an ndarray, whose
    ``==`` has no truth value.
    """

    p: int
    edges: tuple[tuple[int, int, float], ...]
    sources: tuple[int, ...]
    sink: int
    processing: np.ndarray  # (p, n); treated as read-only
    _in_edges: tuple = field(init=False, repr=False)
    _out_edges: tuple = field(init=False, repr=False)
    _topo: tuple[int, ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        ine: list[list[tuple[int, float]]] = [[] for _ in range(self.p)]
        out: list[list[int]] = [[] for _ in range(self.p)]
        for idx, (a, b, lam) in enumerate(self.edges):
            ine[b].append((a, lam))
            out[a].append(idx)
        indeg = [len(x) for x in ine]
        ready = [v for v, d in enumerate(indeg) if not d]  # ascending, so a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for idx in out[v]:
                w = self.edges[idx][1]
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
        object.__setattr__(self, "_in_edges", tuple(map(tuple, ine)))
        object.__setattr__(self, "_out_edges", tuple(map(tuple, out)))
        object.__setattr__(self, "_topo", tuple(order) if len(order) == self.p else None)

    @property
    def k(self) -> int:
        return len(self.sources)

    @property
    def q(self) -> int:
        return len(self.edges)

    @property
    def is_dag(self) -> bool:
        return self._topo is not None

    def topological_order(self) -> tuple[int, ...]:
        if self._topo is None:
            raise CyclicGraph("computation graph is not acyclic")
        return self._topo

    def in_edges(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        return self._in_edges

    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Indices into ``edges`` of each vertex's out-edges, ascending."""
        return self._out_edges


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs shortest path weights, with shortest paths built on demand.

    ``dist[u, v]`` is the weight of a shortest u->v path, its link weights
    added one at a time from u outward.  ``weight`` is the dense link-weight
    matrix (inf where two nodes share no link, and on the diagonal).

    ``extract_path`` picks one shortest path per pair by a fixed rule.  For a
    source u, a link x->w is *tight* when ``dist[u, x] + weight[x, w] ==
    dist[u, w]`` in floats, and ``h[w]`` is the fewest tight links on a path
    from u to w.  The chosen u->v path is the lexicographically smallest node
    sequence among the tight paths along which (dist[u, .], h) strictly rises.
    With positive weights every tight link raises the distance, so this is
    the lexicographically smallest shortest path.  A zero-weight link (or a
    positive one whose weight is lost to rounding) must instead raise h, so
    zero-weight cycles are never walked.  h counts every tight link, so the
    chosen path need not have the fewest hops of all shortest paths.
    ``_walk`` walks the paths in lock step: greedily on an exact network
    (``_exact``), otherwise from each source's route tree, built for that call.
    Equality and hashing are by identity, as for ``ComputationGraph``.
    """

    dist: np.ndarray  # (n, n) float
    weight: np.ndarray  # (n, n) float, inf off the links

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @functools.cached_property
    def _links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tails, heads and weights of the directed links, in (tail, head) order."""
        tails, heads = np.nonzero(self.weight < np.inf)
        return tails, heads, self.weight[tails, heads]

    @functools.cached_property
    def _exact(self) -> bool:
        """Whether every link weight is a positive integer and every distance
        is below 2**53, so that path sums are exact: ``_walk`` then walks the
        chosen paths greedily instead of building route trees."""
        w = self._links[2]
        return bool((w > 0).all() and (w == np.floor(w)).all() and (self.dist < 2.0**53).all())


@dataclass(frozen=True)
class LayeredStructure:
    """Layer labelling of a computation graph.

    ``layer[w]`` is in 1..r; every edge stays within a layer or crosses to the
    next one, all sources sit at layer 1 and the sink is alone at layer r.
    Only ``layer`` is passed in; ``__post_init__`` derives ``r`` (the deepest
    label) and ``k`` (the widest layer), so they cannot disagree with it.
    """

    layer: tuple[int, ...]
    r: int = field(init=False, compare=False)
    k: int = field(init=False, compare=False)

    def __post_init__(self):
        layer = tuple(self.layer)
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "r", max(layer, default=0))
        object.__setattr__(self, "k", max(map(layer.count, set(layer)), default=0))

    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Vertices of each layer, ordered by vertex id; index 0 is layer 1."""
        out: list[list[int]] = [[] for _ in range(self.r)]
        for w, l in enumerate(self.layer):
            out[l - 1].append(w)
        return tuple(tuple(x) for x in out)


def pinned_images(cg: ComputationGraph, net: NetworkGraph) -> dict[int, int]:
    """Network node of each pinned vertex: the i-th source of ``cg`` goes to
    the i-th source of ``net``, the sink to the sink, and the rest are free.
    Raises ValidationError unless ``net`` has as many sources as ``cg`` and a sink."""
    if net.sink is None or len(net.sources) != len(cg.sources):
        raise ValidationError("network roles do not match the computation graph")
    pinned = dict(zip(cg.sources, net.sources))
    pinned[cg.sink] = net.sink
    return pinned


def _components(n: int, tails, heads):
    """Yield the connected components of the n-node graph with links
    ``tails[i]``-``heads[i]``, each as an ascending node list, in order of
    their smallest node.  Each is a breadth-first search over a dense
    adjacency matrix, so taking only the first costs one search."""
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = adj[heads, tails] = True
    left = np.ones(n, dtype=bool)
    while left.any():
        comp = np.zeros(n, dtype=bool)
        front = comp.copy()
        front[left.argmax()] = True
        while front.any():
            comp |= front
            front = adj[front].any(axis=0) & ~comp
        left &= ~comp
        yield np.flatnonzero(comp).tolist()


def build_network(n, edges, sources=(), sink=None, *, allow_sink_source=False) -> NetworkGraph:
    """Validate and construct a NetworkGraph.

    Raises DisconnectedGraph, NegativeWeight, DuplicateEdge, UnknownNodeId,
    SelfLoop or ValidationError (also for a NaN or infinite weight) on
    malformed input.  ``allow_sink_source`` permits the sink to coincide
    with a source (rejected by default).
    """
    if n < 1:
        raise ValidationError("network needs at least one node")
    norm = []
    seen_pairs = set()
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w) + 0.0  # -0.0 + 0.0 is +0.0
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownNodeId(f"edge ({u},{v}) references a node outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        if w < 0:
            raise NegativeWeight(f"edge ({u},{v}) has negative weight {w}")
        if not math.isfinite(w):
            raise ValidationError(f"edge ({u},{v}) has non-finite weight {w}")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise DuplicateEdge(f"more than one edge between {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        norm.append((pair[0], pair[1], w))
    ends = np.array([(u, v) for u, v, _ in norm], dtype=np.intp).reshape(-1, 2)
    comps = _components(n, ends[:, 0], ends[:, 1])
    first = next(comps)
    if len(first) < n:
        raise DisconnectedGraph([first, *comps])
    sources, sink = _check_roles(n, sources, sink, allow_sink_source)
    return NetworkGraph(n=n, edges=tuple(sorted(norm)), sources=sources, sink=sink)


def _check_roles(n, sources, sink, allow_sink_source=False) -> tuple[tuple[int, ...], int | None]:
    """Normalised (sources, sink) of an n-node network; raises on invalid roles."""
    sources = tuple(int(s) for s in sources)
    for s in sources:
        if not 0 <= s < n:
            raise UnknownNodeId(f"source {s} outside 0..{n - 1}")
    if len(set(sources)) != len(sources):
        raise ValidationError("sources must be pairwise distinct")
    if sink is not None:
        sink = int(sink)
        if not 0 <= sink < n:
            raise UnknownNodeId(f"sink {sink} outside 0..{n - 1}")
        if sink in sources and not allow_sink_source:
            raise ValidationError(
                "sink coincides with a source (pass allow_sink_source=True to permit)"
            )
    return sources, sink


def build_computation(
    p,
    edges,
    sources,
    sink,
    processing,
    *,
    require_dag=True,
) -> ComputationGraph:
    """Validate and construct a ComputationGraph.

    ``processing`` is array-like of shape (p, n_network).  Source rows must be
    zero.  Edge sizes and processing values must be finite and non-negative
    (ValidationError for NaN or infinity).
    ``require_dag=False`` admits cyclic schemas; only cost-based operations
    accept those.
    """
    if p < 2:
        raise ValidationError("computation graph needs at least a source and a sink")
    sources = tuple(int(s) for s in sources)
    sink = int(sink)
    if len(sources) != len(set(sources)):
        raise ValidationError("computation sources must be distinct")
    if not sources:
        raise ValidationError("computation graph needs at least one source")
    for s in sources:
        if not 0 <= s < p:
            raise UnknownNodeId(f"source {s} outside 0..{p - 1}")
    if not 0 <= sink < p:
        raise UnknownNodeId(f"sink {sink} outside 0..{p - 1}")
    if sink in sources:
        raise ValidationError("computation sink cannot be a source")

    norm = []
    seen = set()
    for a, b, lam in edges:
        a, b, lam = int(a), int(b), float(lam)
        if not (0 <= a < p and 0 <= b < p):
            raise UnknownNodeId(f"edge ({a},{b}) references a vertex outside 0..{p - 1}")
        if a == b:
            raise SelfLoop(f"self-loop at computation vertex {a}")
        if lam < 0:
            raise NegativeWeight(f"edge ({a},{b}) has negative weight {lam}")
        if not math.isfinite(lam):
            raise ValidationError(f"edge ({a},{b}) has non-finite weight {lam}")
        if (a, b) in seen:
            raise DuplicateEdge(f"more than one edge ({a},{b})")
        seen.add((a, b))
        norm.append((a, b, lam))
    proc = np.array(processing, dtype=float, order="C")
    proc.setflags(write=False)
    cg = ComputationGraph(p=p, edges=tuple(norm), sources=sources, sink=sink, processing=proc)

    ine = cg.in_edges()
    for s in sources:
        if ine[s]:
            raise ValidationError(f"source {s} has incoming edges")
    if cg.out_edges()[sink]:
        raise ValidationError("sink has outgoing edges")
    for v in range(p):
        if not ine[v] and v not in sources and v != sink:
            warnings.warn(f"vertex {v} has no inputs but is not a declared source")

    if require_dag and not cg.is_dag:
        raise CyclicGraph("computation graph contains a directed cycle")

    if proc.ndim != 2 or proc.shape[0] != p:
        raise ValidationError(f"processing table must have shape (p={p}, n); got {proc.shape}")
    if (proc < 0).any():
        raise NegativeWeight("processing table has negative entries")
    if not np.isfinite(proc).all():
        raise ValidationError("processing table has non-finite entries")
    if any(proc[s].any() for s in sources):
        raise ValidationError("processing of a source must be zero")

    if cg.is_dag:
        _warn_off_path(cg)
    return cg


def _warn_off_path(cg: ComputationGraph) -> None:
    edges, ine, out = cg.edges, cg.in_edges(), cg.out_edges()
    order = cg.topological_order()
    fed = [False] * cg.p  # reached from a source
    for s in cg.sources:
        fed[s] = True
    for v in order:
        if fed[v]:
            for i in out[v]:
                fed[edges[i][1]] = True
    drains = [False] * cg.p  # reaches the sink
    drains[cg.sink] = True
    for v in reversed(order):
        if drains[v]:
            for a, _ in ine[v]:
                drains[a] = True
    off = [v for v in range(cg.p) if not (fed[v] and drains[v])]
    if off:
        warnings.warn(f"vertices {off} lie on no source-to-sink path")


def apsp(net: NetworkGraph) -> DistanceMatrix:
    """Exact all-pairs shortest paths: ``dist[u, v]`` is the least
    left-to-right sum of link weights over the u->v paths (inf if none).
    One of three branches computes it, each to the same floats.

    When every link weighs the same c, with 0 <= c < inf, the distances are
    hop levels (``_hop_levels``).  Every k-hop path then sums to the same
    L_k = (..(c + c) + ..) + c, and float addition is monotone, so L_k never
    falls as k grows: the least sum is L at the fewest hops.  That is the
    fixpoint the lock-step Dijkstra below reaches, bit for bit, also for
    c = 0, for fractional c and where L_k overflows to inf.

    When every link weight is a non-negative integer and their total is at
    most 2**52, the distances come from Floyd-Warshall (``_floyd_warshall``).
    Each finite value it forms is a sum of two path weights, each at most
    the total, so it is an exact integer below 2**53, and each distance is
    the exact least path weight.  The Dijkstra's left-to-right sums are
    exact on such a network too, so both give the same floats.

    Every other network takes Dijkstra from every source in lock step:
    fractional weights, a total above 2**52 (links of 1e308, say), or a NaN
    or -0.0 link (``build_network`` rejects NaN and stores -0.0 as +0.0, so
    only in a ``NetworkGraph`` built directly; ``np.minimum`` carries NaN and
    the sign of zero through).  It is the one branch whose floats are the
    least left-to-right sums where sums round or overflow.  ``dist`` starts
    as the link weights with a zero diagonal.  Each of ``n - 2`` steps
    settles every row's nearest unsettled node x and relaxes
    ``dist[u] = min(dist[u], dist[u, x] + weight[x])``.  With non-negative
    weights and monotone float addition every distance is then the least
    left-to-right path sum from the source.  No paths are stored; see
    ``DistanceMatrix`` for the rule ``extract_path`` follows.
    """
    n = net.n
    weight = np.full((n, n), np.inf)
    w = np.empty(0)
    if net.edges:
        u, v, w = (np.array(c) for c in zip(*net.edges))
        weight[u, v] = w
        weight[v, u] = w
    c = float(w[0]) if w.size else 0.0
    if (w == c).all() and 0 <= c < np.inf and not np.signbit(w).any():
        return DistanceMatrix(dist=_hop_levels(weight, c), weight=weight)
    dist = weight.copy()
    np.fill_diagonal(dist, 0.0)
    with np.errstate(over="ignore"):  # a sum that overflows is inf, as it should be
        if (w == np.floor(w)).all() and not np.signbit(w).any() and w.sum() <= 2**52:
            return DistanceMatrix(dist=_floyd_warshall(dist), weight=weight)
        rows = np.arange(n)
        settled = np.where(np.eye(n, dtype=bool), np.inf, 0.0)  # inf: settled in that row
        step = np.empty((n, n))
        for _ in range(n - 2):
            x = np.add(dist, settled, out=step).argmin(axis=1)
            settled[rows, x] = np.inf
            np.add(weight[x], dist[rows, x][:, None], out=step)
            np.minimum(dist, step, out=dist)  # unlike a ``<`` mask, it carries NaN through
    return DistanceMatrix(dist=dist, weight=weight)


def _floyd_warshall(dist: np.ndarray) -> np.ndarray:
    """Floyd-Warshall in place on ``dist``, the link weights with a zero
    diagonal: for each k in turn, ``dist = min(dist, dist[:, k] + dist[k])``,
    the sums formed in one preallocated buffer."""
    step = np.empty_like(dist)
    for k in range(len(dist)):
        np.minimum(dist, np.add(dist[:, k, None], dist[k], out=step), out=dist)
    return dist


def _hop_levels(weight: np.ndarray, c) -> np.ndarray:
    """Distances of a network whose links (``weight < inf``) all weigh c:
    breadth-first levels from every source at once.  Each level is one float
    ``frontier @ adjacency`` product masked by the nodes already reached, and
    its nodes get the running sum ``total += c``; unreached pairs stay inf."""
    n = len(weight)
    adj = (weight < np.inf).astype(float)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    reached = np.eye(n, dtype=bool)
    front = np.eye(n)
    total = 0.0
    while front.any():
        level = (front @ adj > 0) & ~reached
        total += c
        dist[level] = total
        reached |= level
        front = level.astype(float)
    return dist


def _route_tree(dm: DistanceMatrix, u: int) -> list[int]:
    """Parents of the chosen paths from u: ``parent[v]`` precedes v on the
    chosen u->v path (u for v == u, -1 where v is unreachable).  It walks u's
    tight links depth-first, smallest node first; on this acyclic link set
    the first visit of a node comes along its lexicographically smallest path."""
    tails, heads, weights = dm._links
    n = dm.n
    d = dm.dist[u]
    dt, dh = d[tails], d[heads]
    tight = dt + weights == dh
    flat = tight & (dt == dh)
    # every other tight link raises the distance, so hops are needed only
    # when u has a flat one
    if flat.any():
        # hops by breadth-first levels over the tight links; a flat tight
        # link is kept only when it adds the one hop
        hops = np.full(n, n)
        level = np.zeros(n, dtype=bool)
        level[u] = True
        k = 0
        while level.any():
            hops[level] = k
            k += 1
            front = level
            level = np.zeros(n, dtype=bool)
            level[heads[tight & front[tails]]] = True
            level &= hops == n
        tight &= ~flat | (hops[tails] < hops[heads])
    head = heads[tight].tolist()  # in (tail, head) order
    end = np.cumsum(np.bincount(tails[tight], minlength=n)).tolist()
    nxt = [0] + end[:-1]
    parent = [-1] * n
    parent[u] = u
    stack = [u]
    while stack:
        x = stack[-1]
        i, stop = nxt[x], end[x]
        while i < stop and parent[head[i]] >= 0:
            i += 1
        if i == stop:
            stack.pop()
            continue
        nxt[x] = i + 1
        w = head[i]
        parent[w] = x
        stack.append(w)
    return parent


def _walk(dm: DistanceMatrix, pairs) -> np.ndarray:
    """The chosen u->v paths of ``pairs``, walked in lock step: column j is
    pair j's path, row k its node after k hops, and a path stays at v once
    there.  This is the one reader of ``DistanceMatrix._exact``.  With exact
    sums the chosen path is the lexicographically smallest shortest path, so
    from x it steps to the smallest y with ``weight[x, y] + dist[y, v] ==
    dist[x, v]``.  Otherwise each path is read from the route tree of its
    source, built for this call, and padded with its own v."""
    uv = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
    if dm._exact:
        x, v = uv[:, 0].copy(), uv[:, 1]
        walk = [uv[:, 0]]
        live = np.flatnonzero(x != v)
        while live.size:
            xl, vl = x[live], v[live]
            x[live] = (dm.weight[xl] + dm.dist[:, vl].T == dm.dist[xl, vl][:, None]).argmax(axis=1)
            walk.append(x.copy())
            live = live[x[live] != vl]
        return np.array(walk)
    pairs = uv.tolist()
    trees = {u: _route_tree(dm, u) for u in {u for u, v in pairs if u != v}}
    paths = []
    for u, v in pairs:
        path = [v]
        while path[-1] != u:
            path.append(trees[u][path[-1]])
            if path[-1] < 0:
                raise ValidationError(f"no path from {u} to {v}")
        paths.append(path[::-1])
    rows = max(map(len, paths), default=1)
    walk = np.array([p + p[-1:] * (rows - len(p)) for p in paths], dtype=np.intp)
    return walk.reshape(-1, rows).T


def extract_paths(dm: DistanceMatrix, pairs) -> list[list[int]]:
    """Node sequences of the chosen shortest u->v paths of ``pairs``, in
    order; [u] when u == v.  Each is a column of ``_walk``, cut after its
    last hop."""
    walk = _walk(dm, pairs)
    hops = (walk[1:] != walk[:-1]).sum(axis=0).tolist()
    return [col[:h + 1] for col, h in zip(walk.T.tolist(), hops)]


def extract_path(dm: DistanceMatrix, u: int, v: int) -> list[int]:
    """Node sequence of the chosen shortest u->v path; [u] when u == v."""
    return extract_paths(dm, [(u, v)])[0]


def infer_layering(cg: ComputationGraph) -> LayeredStructure:
    """Assign layer(w) = longest path length from the sources + 1 and verify.

    Raises NotLayered when an edge spans two or more layers under this
    labelling and SinkNotLast when the sink does not sit alone on the final
    layer.
    """
    topo = cg.topological_order()
    layer = [1] * cg.p
    ine = cg.in_edges()
    for v in topo:
        if ine[v]:
            layer[v] = max(layer[u] for u, _ in ine[v]) + 1
    ls = LayeredStructure(layer)
    validate_layering(cg, ls)
    return ls


def validate_layering(cg: ComputationGraph, ls: LayeredStructure) -> None:
    """Check an externally supplied layer labelling against its invariants."""
    if len(ls.layer) != cg.p:
        raise NotLayered("layer map size does not match vertex count")
    if any(l < 1 for l in ls.layer):
        raise NotLayered("layer labels must lie in 1..r")
    for a, b, _ in cg.edges:
        if ls.layer[b] - ls.layer[a] not in (0, 1):
            raise NotLayered(f"edge ({a},{b}) spans layers {ls.layer[a]}..{ls.layer[b]}")
    for s in cg.sources:
        if ls.layer[s] != 1:
            raise NotLayered(f"source {s} not at layer 1")
    if ls.layer[cg.sink] != ls.r:
        raise SinkNotLast("sink not on the last layer")
    if [v for v in range(cg.p) if ls.layer[v] == ls.r] != [cg.sink]:
        raise SinkNotLast("last layer must hold the sink alone")
    if len(set(ls.layer)) != ls.r:  # labels lie in 1..r, so one is missing
        raise NotLayered("every layer needs at least one vertex")


def check_tree(cg: ComputationGraph) -> bool:
    """True iff every non-sink vertex has out-degree exactly 1 (sink 0)."""
    return all(len(out) == (0 if v == cg.sink else 1) for v, out in enumerate(cg.out_edges()))
