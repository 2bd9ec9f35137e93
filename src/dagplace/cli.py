"""Command-line interface: solve, eval, perturb, bench, validate.

File formats (all JSON, unknown fields rejected):

* network:      {"nodes": [names...], "edges": [[u, v, weight]...],
                 "sources": [names...], "sink": name, "allow_sink_source": bool?}
* computation:  {"nodes": [...], "edges": [[u, v, weight]...], "sources": [...],
                 "sink": name, "processing": P, "allow_cycles": bool?}
                where P is either {"default": x, "overrides": [[vertex, node, value]...]}
                with node a 0-based network node index or "*" for every node,
                or {"matrix": [[...]]} with one row per vertex and one column
                per network node.  The default/overrides form sets source rows
                to zero; a matrix with a non-zero source row exits 2.
* embedding:    {"map": {vertex-name: node-name, ...}} plus optional metric
                fields when written by this tool.
* edits:        {"adds": [{"edge": [u, v, weight], "layer": int}, ...]}
                New computation vertices may appear as fresh names; the edit's
                layer places a fresh vertex, and must touch the edge's layer
                otherwise.
* decomposition: {"bags": [[vertex-name...]...], "tree_edges": [[i, j]...]}
                with i, j 0-based bag indices; ``load_decomposition`` parses it.
* experiment config: {"n": int, "p_r_grid": [float...], "instances": int,
                 "placements": int, "p": int, "master_seed": int} plus the
                 optional knobs of ExperimentConfig.
* state:        {"format_version": 3, "network": {...}, "computation": {...},
                 "layer": [int...]}: the inputs of a layered solve and each
                 vertex's layer, written by ``--state-out`` (``solve`` takes
                 it with ``--method layered`` only, and exits 2 otherwise).

The document parsers (the ``from_json`` constructors, ``load_embedding``,
``load_edits``, ``load_decomposition``, ``load_experiment_config`` and
``load_state``) check each document's shape (lists, arities, name strings,
number types) before using it, so a wrong-shaped document exits 2 with one
``error:`` line, never a traceback.  A number is a finite JSON int or float
that fits a double, so NaN, Infinity and a 400-digit integer exit 2 as well.
A state file holds no solver tables, so loading one runs no code; ``perturb``
solves the edited graph afresh.  Exit codes: 0 ok, 2 validation error, 3 budget
exceeded, 4 solver precondition failure.
A warning that the active filters let through is one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .errors import (
    BudgetExceeded,
    DagplaceError,
    DisconnectedGraph,
    PreconditionError,
    ValidationError,
)
from .harness import ExperimentConfig, experiment_k2_gap, experiment_link_usage
from .metrics import (
    Embedding,
    capacity_aware_delay,
    embedding_cost,
    embedding_delay,
    max_link_usage,
    validate_embedding,
)
from .model import (
    ComputationGraph,
    LayeredStructure,
    NetworkGraph,
    apsp,
    build_computation,
    build_network,
    infer_layering,
)
from .oracle import brute_force_min_cost, brute_force_min_delay
from .solver_layered import min_cost_layered, perturbed_layering
from .solver_tree import min_delay_collapse, min_delay_tree
from .solver_treewidth import (
    DEFAULT_TABLE_BUDGET,
    TreeDecomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)

STATE_FORMAT_VERSION = 3

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4


# ---------------------------------------------------------------------------
# document parsing


def _require_fields(doc: dict, required, optional=(), *, what: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    missing = [f for f in required if f not in doc]
    if missing:
        raise ValidationError(f"{what}: missing fields {missing}")
    unknown = [f for f in doc if f not in required and f not in optional]
    if unknown:
        raise ValidationError(f"{what}: unknown fields {unknown}")


def _name_table(names, what: str) -> dict:
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValidationError(f"{what}: 'nodes' must be a list of names")
    if len(set(names)) != len(names):
        raise ValidationError(f"{what}: duplicate node names")
    return {name: i for i, name in enumerate(names)}


def _num(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"{what}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{what}: integer too large for a double") from None


def _num_matrix(rows: list[list], what: str) -> np.ndarray:
    """``rows`` as a float array, each cell checked as ``_num`` checks it."""
    kinds = set()
    for row in rows:
        kinds.update(map(type, row))
    if not kinds <= {int, float}:
        for row in rows:  # name the first cell that is no number
            for x in row:
                _num(x, what)
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what}: integer too large for a double") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _flag(doc: dict, key: str, what: str) -> bool:
    x = doc.get(key, False)
    if not isinstance(x, bool):
        raise ValidationError(f"{what}: {key!r} must be true or false, got {x!r}")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValidationError(f"{what} must be a list, got {x!r}")
    return x


def _lookup(ids: dict, x, what: str) -> int:
    if not isinstance(x, str) or x not in ids:
        raise ValidationError(f"{what} {x!r}")
    return ids[x]


def _matrix_rows(proc_doc: dict) -> list[list]:
    rows = proc_doc["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError("processing: 'matrix' must be a list of rows")
    if len({len(row) for row in rows}) > 1:
        raise ValidationError("processing: matrix rows differ in length")
    return rows


def _read_graph(doc, required, flag: str, what: str, item: str):
    """(name table, edges, sources, sink, ``flag``) of a network or computation
    document, whose fields beyond the graph's are ``required`` and ``flag``."""
    _require_fields(doc, ("nodes", "edges", "sources", "sink", *required), (flag,), what=what)
    ids = _name_table(doc["nodes"], what)
    unknown, weight = f"{what}: unknown {item} name", f"{what} edge weight"
    edges = []
    for e in _list(doc["edges"], f"{what}: 'edges'"):
        if not isinstance(e, list) or len(e) != 3:
            raise ValidationError(f"{what}: edge {e!r} must be [u, v, weight]")
        edges.append((_lookup(ids, e[0], unknown), _lookup(ids, e[1], unknown),
                      _num(e[2], weight)))
    sources = tuple(_lookup(ids, s, unknown) for s in _list(doc["sources"], f"{what}: 'sources'"))
    sink = _lookup(ids, doc["sink"], unknown)
    return ids, edges, sources, sink, _flag(doc, flag, what)


class NetworkDoc:
    def __init__(self, names: list[str], net: NetworkGraph):
        self.names = names
        self.net = net

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkDoc":
        ids, edges, sources, sink, allow = _read_graph(doc, (), "allow_sink_source",
                                                       "network", "node")
        try:
            net = build_network(len(ids), edges, sources, sink, allow_sink_source=allow)
        except DisconnectedGraph as exc:
            named = ", ".join(
                str([doc["nodes"][i] for i in comp]) for comp in exc.components
            )
            raise ValidationError(f"network is not connected; components: {named}")
        return cls(list(doc["nodes"]), net)

    def to_json(self) -> dict:
        doc = {
            "nodes": self.names,
            "edges": [[self.names[u], self.names[v], w] for u, v, w in self.net.edges],
            "sources": [self.names[s] for s in self.net.sources],
            "sink": self.names[self.net.sink],
        }
        if self.net.sink in self.net.sources:
            doc["allow_sink_source"] = True
        return doc


class ComputationDoc:
    def __init__(self, names: list[str], cg: ComputationGraph):
        self.names = names
        self.cg = cg

    @classmethod
    def from_json(cls, doc: dict, n_network: int) -> "ComputationDoc":
        ids, edges, sources, sink, cyclic = _read_graph(doc, ("processing",), "allow_cycles",
                                                        "computation", "vertex")
        p = len(ids)
        unknown = "computation: unknown vertex name"
        proc_doc = doc["processing"]
        if not isinstance(proc_doc, dict):
            raise ValidationError("computation: 'processing' must be an object")
        if "matrix" in proc_doc:
            _require_fields(proc_doc, ("matrix",), what="processing")
            proc = _num_matrix(_matrix_rows(proc_doc), "processing")
            if proc.shape != (p, n_network):
                raise ValidationError(
                    f"processing matrix must be {p}x{n_network}, got {proc.shape}"
                )
        else:
            _require_fields(proc_doc, ("default",), ("overrides",), what="processing")
            proc = np.full((p, n_network), _num(proc_doc["default"], "processing default"))
            for ov in _list(proc_doc.get("overrides", []), "processing: 'overrides'"):
                if not isinstance(ov, list) or len(ov) != 3:
                    raise ValidationError(f"processing override {ov!r} must be [vertex, node, value]")
                w, node, val = ov
                if node == "*":
                    proc[_lookup(ids, w, unknown), :] = _num(val, "processing override")
                else:
                    if not _is_int(node) or not 0 <= node < n_network:
                        raise ValidationError(
                            f"processing override node {node!r} must be '*' or 0..{n_network - 1}"
                        )
                    proc[_lookup(ids, w, unknown), node] = _num(val, "processing override")
            proc[list(sources), :] = 0.0
        cg = build_computation(p, edges, sources, sink, proc, require_dag=not cyclic)
        return cls(list(doc["nodes"]), cg)

    def to_json(self) -> dict:
        return {
            "nodes": self.names,
            "edges": [[self.names[a], self.names[b], lam] for a, b, lam in self.cg.edges],
            "sources": [self.names[s] for s in self.cg.sources],
            "sink": self.names[self.cg.sink],
            "processing": {"matrix": self.cg.processing.tolist()},
            "allow_cycles": not self.cg.is_dag,
        }


def load_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ValidationError(f"{path}: {exc}") from None


def load_network(path: str) -> NetworkDoc:
    return NetworkDoc.from_json(load_json(path))


def load_computation(path: str, n_network: int) -> ComputationDoc:
    return ComputationDoc.from_json(load_json(path), n_network)


def _check_sources(ndoc: NetworkDoc, cdoc: ComputationDoc) -> None:
    if ndoc.net.k != cdoc.cg.k:
        raise ValidationError(f"network has {ndoc.net.k} sources, computation {cdoc.cg.k}")


def load_embedding(doc: dict, cdoc: ComputationDoc, ndoc: NetworkDoc) -> Embedding:
    _require_fields(doc, ("map",), ("cost", "delay", "objective", "method"), what="embedding")
    cids = {name: i for i, name in enumerate(cdoc.names)}
    nids = {name: i for i, name in enumerate(ndoc.names)}
    asg = [-1] * cdoc.cg.p
    if not isinstance(doc["map"], dict):
        raise ValidationError("embedding: 'map' must be an object of vertex: node names")
    for w, v in doc["map"].items():
        w = _lookup(cids, w, "embedding: unknown computation vertex")
        asg[w] = _lookup(nids, v, "embedding: unknown network node")
    if any(x < 0 for x in asg):
        raise ValidationError("embedding: every computation vertex needs an image")
    e = Embedding(tuple(asg))
    validate_embedding(cdoc.cg, ndoc.net, e)
    return e


def load_decomposition(doc: dict, cdoc: ComputationDoc) -> TreeDecomposition:
    _require_fields(doc, ("bags", "tree_edges"), what="decomposition")
    cids = {name: i for i, name in enumerate(cdoc.names)}
    bags = [
        [_lookup(cids, w, "decomposition: unknown vertex") for w in _list(bag, "decomposition: a bag")]
        for bag in _list(doc["bags"], "decomposition: 'bags'")
    ]
    tree_edges = _list(doc["tree_edges"], "decomposition: 'tree_edges'")
    for e in tree_edges:
        if not isinstance(e, list) or len(e) != 2 or not all(_is_int(i) for i in e):
            raise ValidationError(f"decomposition: tree edge {e!r} must be [i, j] bag indices")
    return TreeDecomposition(bags, tree_edges)


def load_experiment_config(doc: dict, master_seed: int | None = None) -> ExperimentConfig:
    """An ExperimentConfig from a document whose fields are its keywords;
    ``master_seed``, when given, replaces the document's."""
    _require_fields(
        doc,
        ("n", "p_r_grid", "instances", "placements", "p", "master_seed"),
        ("weight_model", "xi_lo", "xi_hi", "max_resamples", "layers", "width"),
        what="experiment config",
    )
    for key, value in doc.items():
        if key not in ("p_r_grid", "weight_model") and not _is_int(value):
            raise ValidationError(f"experiment config: {key!r} must be an integer, got {value!r}")
    for pr in _list(doc["p_r_grid"], "experiment config: 'p_r_grid'"):
        _num(pr, "experiment config p_r_grid")
    fields = dict(doc, p_r_grid=tuple(doc["p_r_grid"]))
    if master_seed is not None:
        fields["master_seed"] = master_seed
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ValidationError(f"experiment config: {exc}") from None


def embedding_to_json(e: Embedding, cdoc: ComputationDoc, ndoc: NetworkDoc, **extra) -> dict:
    doc = {"map": {cdoc.names[w]: ndoc.names[v] for w, v in enumerate(e.assignment)}}
    doc.update(extra)
    return doc


def load_edits(doc: dict, cdoc: ComputationDoc):
    """Returns (edits for perturbed_layering, extended ComputationDoc)."""
    _require_fields(doc, ("adds",), what="edits")
    names = list(cdoc.names)
    ids = {name: i for i, name in enumerate(names)}
    new_edges = []
    edits = []
    for add in _list(doc["adds"], "edits: 'adds'"):
        _require_fields(add, ("edge", "layer"), what="edit")
        spec, layer = add["edge"], add["layer"]
        if not isinstance(spec, list) or len(spec) != 3 \
                or not all(isinstance(x, str) for x in spec[:2]):
            raise ValidationError(f"edit: edge {spec!r} must be [u, v, weight]")
        if isinstance(layer, bool) or not isinstance(layer, int):
            raise ValidationError(f"edit: layer {layer!r} must be an integer")
        u, v, lam = spec
        for x in (u, v):
            if x not in ids:
                ids[x] = len(names)
                names.append(x)
        edge = (ids[u], ids[v], _num(lam, "edit weight"))
        new_edges.append(edge)
        edits.append((edge, layer))
    cg = cdoc.cg
    p2 = len(names)
    proc2 = np.zeros((p2, cg.processing.shape[1]))
    proc2[: cg.p] = cg.processing
    cg2 = build_computation(
        p2, list(cg.edges) + new_edges, cg.sources, cg.sink, proc2
    )
    return edits, ComputationDoc(names, cg2)


def save_state(path, ls: LayeredStructure, ndoc: NetworkDoc, cdoc: ComputationDoc) -> None:
    """Write the inputs of a layered solve on the layering ``ls`` as a state document."""
    _write_json(path, {
        "format_version": STATE_FORMAT_VERSION,
        "network": ndoc.to_json(),
        "computation": cdoc.to_json(),
        "layer": list(ls.layer),
    })


def load_state(path) -> tuple[NetworkDoc, ComputationDoc, LayeredStructure]:
    """(network, computation, layering) of a state document."""
    doc = load_json(path)
    _require_fields(doc, ("format_version", "network", "computation", "layer"),
                    what="state")
    if doc["format_version"] != STATE_FORMAT_VERSION:
        raise ValidationError(f"state file format {doc['format_version']!r} unsupported")
    ndoc = NetworkDoc.from_json(doc["network"])
    cdoc = ComputationDoc.from_json(doc["computation"], ndoc.net.n)
    _check_sources(ndoc, cdoc)
    p = cdoc.cg.p
    layer = _list(doc["layer"], "state: 'layer'")
    if len(layer) != p or not all(_is_int(x) and 1 <= x <= p for x in layer):
        raise ValidationError(f"state: 'layer' must hold {p} layer numbers in 1..{p}")
    return ndoc, cdoc, LayeredStructure(layer)


def _write_json(path, doc) -> None:
    text = json.dumps(doc, indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _delay(emb, report):
    return emb, report.total


# (method, objective) -> solver of (cg, net, dm, shape, budget) giving
# (embedding, value); ``shape`` is a layered solve's layering or a treewidth
# solve's decomposition (or None); each looks its solver up by name when called
_SOLVERS = {
    ("tree", "mindelay"):
        lambda cg, net, dm, _, budget: _delay(*min_delay_tree(cg, net, dm)),
    ("layered", "mincost"):
        lambda cg, net, dm, shape, budget: min_cost_layered(
            cg, shape, net, dm, budget=budget)[:2],
    ("treewidth", "mincost"):
        lambda cg, net, dm, shape, budget: min_cost_treewidth(
            cg, shape or min_fill_decomposition(cg), net, dm, budget=budget),
    ("collapse", "mindelay"):
        lambda cg, net, dm, _, budget: _delay(*min_delay_collapse(cg, net, dm)),
    ("oracle", "mincost"):
        lambda cg, net, dm, _, budget: brute_force_min_cost(cg, net, dm, budget=budget),
    ("oracle", "mindelay"):
        lambda cg, net, dm, _, budget: _delay(*brute_force_min_delay(cg, net, dm, budget=budget)),
}


def _cmd_solve(args) -> int:
    ndoc = load_network(args.network)
    cdoc = load_computation(args.computation, ndoc.net.n)
    _check_sources(ndoc, cdoc)
    method, objective = args.method, args.objective
    solve = _SOLVERS.get((method, objective))
    if solve is None:
        raise PreconditionError(f"method {method!r} does not solve {objective!r}")
    if args.decomposition and method != "treewidth":
        raise ValidationError("--decomposition requires --method treewidth")
    if args.state_out is not None and method != "layered":
        raise ValidationError("--state-out requires --method layered")
    shape = load_decomposition(load_json(args.decomposition), cdoc) if args.decomposition else None
    dm = apsp(ndoc.net)
    if method == "layered":  # the layering the solve uses, and a state file stores
        shape = infer_layering(cdoc.cg)
    emb, value = solve(cdoc.cg, ndoc.net, dm, shape, args.budget)
    key = "cost" if objective == "mincost" else "delay"
    out = embedding_to_json(emb, cdoc, ndoc, objective=objective, method=method,
                            **{key: value})
    _write_json(args.out, out)
    if args.state_out is not None:
        save_state(args.state_out, shape, ndoc, cdoc)
    print(f"{key} = {value!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.per_direction and args.metric != "capdelay":
        raise ValidationError("--per-direction requires --metric capdelay")
    ndoc = load_network(args.network)
    cdoc = load_computation(args.computation, ndoc.net.n)
    _check_sources(ndoc, cdoc)
    emb = load_embedding(load_json(args.embedding), cdoc, ndoc)
    dm = apsp(ndoc.net)
    cg = cdoc.cg
    if args.metric == "cost":
        result = {"cost": embedding_cost(cg, dm, emb)}
    elif args.metric == "delay":
        rep = embedding_delay(cg, dm, emb)
        result = {
            "delay": rep.total,
            "per_vertex": {cdoc.names[w]: t for w, t in enumerate(rep.per_vertex)},
        }
    elif args.metric == "capdelay":
        rep, sched = capacity_aware_delay(cg, ndoc.net, dm, emb,
                                          per_direction=args.per_direction)
        result = {
            "capdelay": rep.total,
            "per_vertex": {cdoc.names[w]: t for w, t in enumerate(rep.per_vertex)},
            "links": {
                f"{ndoc.names[u]}--{ndoc.names[v]}": [
                    {"edge": use.edge, "from": ndoc.names[use.tail],
                     "to": ndoc.names[use.head], "arrival": use.arrival,
                     "departure": use.departure}
                    for use in uses
                ]
                for (u, v), uses in sorted(sched.uses.items())
            },
        }
    else:
        result = {"link_usage": max_link_usage(cg, dm, emb)}
    _write_json(args.out, result)
    value = result.get(args.metric.replace("link-usage", "link_usage"))
    print(f"{args.metric} = {value!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_perturb(args) -> int:
    ndoc, cdoc, ls = load_state(args.state)
    edits, cdoc2 = load_edits(load_json(args.edits), cdoc)
    dm = apsp(ndoc.net)
    ls2 = perturbed_layering(cdoc.cg, ls, cdoc2.cg, edits)
    # --budget judges the edited graph's solve; with no edits that graph is the
    # stored one, whose solve already passed a budget of its own
    budget = args.budget if edits else max(args.budget, DEFAULT_TABLE_BUDGET)
    emb, cost, _ = min_cost_layered(cdoc2.cg, ls2, ndoc.net, dm, budget=budget)
    _write_json(args.out, embedding_to_json(emb, cdoc2, ndoc, cost=cost))
    if args.state_out:
        save_state(args.state_out, ls2, ndoc, cdoc2)
    print(f"cost = {cost!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = load_experiment_config(load_json(args.config), args.seed)
    if args.study == "link-usage":
        table = experiment_link_usage(cfg)
    else:
        table = experiment_k2_gap(cfg)
        ratios = [row[2] for row in table.rows]
        if ratios:
            print(f"max ratio = {max(ratios)!r}, mean ratio = {sum(ratios) / len(ratios)!r}",
                  file=sys.stderr)
    csv = table.to_csv()
    if args.csv == "-":
        print(csv, end="")
    else:
        with open(args.csv, "w") as f:
            f.write(csv)
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.network and args.n is not None:  # the network gives n
        raise ValidationError("--n cannot be combined with --network")
    if args.network:
        ndoc = load_network(args.network)
        print(f"network ok: {ndoc.net.n} nodes, {len(ndoc.net.edges)} edges,"
              f" {len(ndoc.net.sources)} sources")
        if args.computation:
            cdoc = load_computation(args.computation, ndoc.net.n)
            _check_sources(ndoc, cdoc)
            print(f"computation ok: {cdoc.cg.p} vertices, {cdoc.cg.q} edges")
    elif args.computation:
        doc = load_json(args.computation)
        n_guess = args.n if args.n is not None else 1
        if n_guess < 1:
            raise ValidationError("--n must be at least 1")
        if isinstance(doc, dict) and isinstance(doc.get("processing"), dict) \
                and "matrix" in doc["processing"]:
            rows = _matrix_rows(doc["processing"])
            n_guess = len(rows[0]) if rows else 0
        cdoc = ComputationDoc.from_json(doc, n_guess)
        print(f"computation ok: {cdoc.cg.p} vertices, {cdoc.cg.q} edges")
    else:
        raise ValidationError("nothing to validate; pass --network and/or --computation")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dagplace", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an optimal embedding")
    p.add_argument("--objective", required=True, choices=["mincost", "mindelay"])
    p.add_argument("--method", required=True, choices=list(dict.fromkeys(m for m, _ in _SOLVERS)))
    p.add_argument("--network", required=True)
    p.add_argument("--computation", required=True)
    p.add_argument("--decomposition", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--state-out", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_BUDGET)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate an embedding")
    p.add_argument("--metric", required=True,
                   choices=["cost", "delay", "capdelay", "link-usage"])
    p.add_argument("--network", required=True)
    p.add_argument("--computation", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--per-direction", action="store_true",
                   help="give each link direction its own FIFO")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("perturb", help="re-plan a stored layered solve after edits")
    p.add_argument("--state", required=True)
    p.add_argument("--edits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--state-out", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_BUDGET)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("bench", help="run an experiment suite")
    p.add_argument("study", choices=["link-usage", "k2-gap"])
    p.add_argument("--config", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", help="check input files")
    p.add_argument("--network", default=None)
    p.add_argument("--computation", default=None)
    p.add_argument("--n", type=int, default=None,
                   help="network size for validating a computation file alone")
    p.set_defaults(func=_cmd_validate)
    return ap


_parser: argparse.ArgumentParser | None = None  # main's parser, built on first use


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    with warnings.catch_warnings():
        # only the format changes: the caller's filters still decide what shows
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return args.func(args)
        except BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except PreconditionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        except (DagplaceError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
