"""Command-line interface: solve, eval, perturb, bench, validate.

File formats (all JSON, unknown fields rejected):

* network:      {"nodes": [names...], "edges": [[u, v, weight]...],
                 "sources": [names...], "sink": name}
* computation:  {"nodes": [...], "edges": [[u, v, weight]...], "sources": [...],
                 "sink": name, "processing": P, "allow_cycles": bool?}
                where P is either {"default": x, "overrides": [[vertex, node, value]...]}
                with node a 0-based network node index or "*" for every node,
                or {"matrix": [[...]]} with one row per vertex and one column
                per network node.  Source rows are forced to zero.
* embedding:    {"map": {vertex-name: node-name, ...}} plus optional metric
                fields when written by this tool.
* edits:        {"adds": [{"edge": [u, v, weight], "layer": int}, ...]}
                New computation vertices may appear as fresh names; the edit's
                layer places a fresh vertex, and must touch the edge's layer
                otherwise.
* decomposition: {"bags": [[vertex-name...]...], "tree_edges": [[i, j]...]}
* experiment config: {"n": int, "p_r_grid": [float...], "instances": int,
                 "placements": int, "p": int, "master_seed": int} plus the
                 optional knobs of ExperimentConfig.

Solver state files are pickles of a versioned dict (format 2) carrying the
network, the computation graph, the name tables and the ``LayeredDPState`` of
the layered solve, so ``perturb`` is self-contained.  The state's ``h[i]`` is
the (min, argmin) message that bag i of the layered path decomposition
(layers i+1 and i+2) sends to bag i+1: numpy arrays with one axis per unpinned
vertex of layer i+2 in increasing vertex-id order, the argmin being a C-order
flat index over the unpinned vertices of layer i+1.  Exit codes: 0 ok,
2 validation error, 3 budget exceeded, 4 solver precondition failure.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys

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
    NetworkGraph,
    apsp,
    build_computation,
    build_network,
    infer_layering,
)
from .oracle import brute_force_min_cost, brute_force_min_delay
from .solver_layered import apply_perturbations, min_cost_layered
from .solver_tree import min_delay_collapse, min_delay_tree
from .solver_treewidth import (
    DEFAULT_TABLE_BUDGET,
    make_decomposition,
    min_cost_treewidth,
    min_fill_decomposition,
)

STATE_FORMAT_VERSION = 2

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
    return float(x)


def _matrix_rows(proc_doc: dict) -> list[list]:
    rows = proc_doc["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError("processing: 'matrix' must be a list of rows")
    if len({len(row) for row in rows}) > 1:
        raise ValidationError("processing: matrix rows differ in length")
    return rows


class NetworkDoc:
    def __init__(self, names: list[str], net: NetworkGraph):
        self.names = names
        self.net = net

    @classmethod
    def from_json(cls, doc: dict) -> "NetworkDoc":
        _require_fields(doc, ("nodes", "edges", "sources", "sink"),
                        ("allow_sink_source",), what="network")
        ids = _name_table(doc["nodes"], "network")

        def nid(x):
            if x not in ids:
                raise ValidationError(f"network: unknown node name {x!r}")
            return ids[x]

        edges = []
        for e in doc["edges"]:
            if not isinstance(e, list) or len(e) != 3:
                raise ValidationError(f"network: edge {e!r} must be [u, v, weight]")
            edges.append((nid(e[0]), nid(e[1]), _num(e[2], "network edge weight")))
        try:
            net = build_network(
                len(ids), edges,
                sources=tuple(nid(s) for s in doc["sources"]),
                sink=nid(doc["sink"]),
                allow_sink_source=bool(doc.get("allow_sink_source", False)),
            )
        except DisconnectedGraph as exc:
            named = ", ".join(
                str([doc["nodes"][i] for i in comp]) for comp in exc.components
            )
            raise ValidationError(f"network is not connected; components: {named}")
        return cls(list(doc["nodes"]), net)

    def to_json(self) -> dict:
        return {
            "nodes": self.names,
            "edges": [[self.names[u], self.names[v], w] for u, v, w in self.net.edges],
            "sources": [self.names[s] for s in self.net.sources],
            "sink": self.names[self.net.sink],
        }


class ComputationDoc:
    def __init__(self, names: list[str], cg: ComputationGraph):
        self.names = names
        self.cg = cg

    @classmethod
    def from_json(cls, doc: dict, n_network: int) -> "ComputationDoc":
        _require_fields(doc, ("nodes", "edges", "sources", "sink", "processing"),
                        ("allow_cycles",), what="computation")
        ids = _name_table(doc["nodes"], "computation")
        p = len(ids)

        def vid(x):
            if x not in ids:
                raise ValidationError(f"computation: unknown vertex name {x!r}")
            return ids[x]

        edges = []
        for e in doc["edges"]:
            if not isinstance(e, list) or len(e) != 3:
                raise ValidationError(f"computation: edge {e!r} must be [u, v, weight]")
            edges.append((vid(e[0]), vid(e[1]), _num(e[2], "computation edge weight")))

        proc_doc = doc["processing"]
        if not isinstance(proc_doc, dict):
            raise ValidationError("computation: 'processing' must be an object")
        if "matrix" in proc_doc:
            _require_fields(proc_doc, ("matrix",), what="processing")
            proc = np.array(
                [[_num(x, "processing") for x in row] for row in _matrix_rows(proc_doc)]
            )
            if proc.shape != (p, n_network):
                raise ValidationError(
                    f"processing matrix must be {p}x{n_network}, got {proc.shape}"
                )
        else:
            _require_fields(proc_doc, ("default",), ("overrides",), what="processing")
            proc = np.full((p, n_network), _num(proc_doc["default"], "processing default"))
            for ov in proc_doc.get("overrides", []):
                if not isinstance(ov, list) or len(ov) != 3:
                    raise ValidationError(f"processing override {ov!r} must be [vertex, node, value]")
                w, node, val = ov
                if node == "*":
                    proc[vid(w), :] = _num(val, "processing override")
                else:
                    if not isinstance(node, int) or not 0 <= node < n_network:
                        raise ValidationError(
                            f"processing override node {node!r} must be '*' or 0..{n_network - 1}"
                        )
                    proc[vid(w), node] = _num(val, "processing override")
            for s in doc["sources"]:
                proc[vid(s), :] = 0.0
        cg = build_computation(
            p, edges,
            sources=tuple(vid(s) for s in doc["sources"]),
            sink=vid(doc["sink"]),
            processing=proc,
            require_dag=not bool(doc.get("allow_cycles", False)),
        )
        return cls(list(doc["nodes"]), cg)


def load_json(path: str):
    with open(path) as f:
        return json.load(f)


def load_network(path: str) -> NetworkDoc:
    return NetworkDoc.from_json(load_json(path))


def load_computation(path: str, n_network: int) -> ComputationDoc:
    return ComputationDoc.from_json(load_json(path), n_network)


def load_embedding(doc: dict, cdoc: ComputationDoc, ndoc: NetworkDoc) -> Embedding:
    _require_fields(doc, ("map",), ("cost", "delay", "objective", "method"), what="embedding")
    cids = {name: i for i, name in enumerate(cdoc.names)}
    nids = {name: i for i, name in enumerate(ndoc.names)}
    asg = [-1] * cdoc.cg.p
    if not isinstance(doc["map"], dict):
        raise ValidationError("embedding: 'map' must be an object of vertex: node names")
    for w, v in doc["map"].items():
        if w not in cids:
            raise ValidationError(f"embedding: unknown computation vertex {w!r}")
        if not isinstance(v, str) or v not in nids:
            raise ValidationError(f"embedding: unknown network node {v!r}")
        asg[cids[w]] = nids[v]
    if any(x < 0 for x in asg):
        raise ValidationError("embedding: every computation vertex needs an image")
    e = Embedding(tuple(asg))
    validate_embedding(cdoc.cg, ndoc.net, e)
    return e


def embedding_to_json(e: Embedding, cdoc: ComputationDoc, ndoc: NetworkDoc, **extra) -> dict:
    doc = {"map": {cdoc.names[w]: ndoc.names[v] for w, v in enumerate(e.assignment)}}
    doc.update(extra)
    return doc


def load_edits(doc: dict, cdoc: ComputationDoc):
    """Returns (edits for apply_perturbations, extended ComputationDoc)."""
    _require_fields(doc, ("adds",), what="edits")
    names = list(cdoc.names)
    ids = {name: i for i, name in enumerate(names)}
    new_edges = []
    edits = []
    for add in doc["adds"]:
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


def save_state(path, state, ndoc: NetworkDoc, cdoc: ComputationDoc) -> None:
    blob = {
        "format_version": STATE_FORMAT_VERSION,
        "network": ndoc.to_json(),
        "computation_names": cdoc.names,
        "computation_edges": cdoc.cg.edges,
        "computation_sources": cdoc.cg.sources,
        "computation_sink": cdoc.cg.sink,
        "processing": np.asarray(cdoc.cg.processing),
        "state": state,
    }
    with open(path, "wb") as f:
        pickle.dump(blob, f)


def load_state(path):
    with open(path, "rb") as f:
        blob = pickle.load(f)
    if blob.get("format_version") != STATE_FORMAT_VERSION:
        raise ValidationError(
            f"state file format {blob.get('format_version')!r} unsupported"
        )
    ndoc = NetworkDoc.from_json(blob["network"])
    cg = build_computation(
        len(blob["computation_names"]),
        blob["computation_edges"],
        blob["computation_sources"],
        blob["computation_sink"],
        blob["processing"],
    )
    cdoc = ComputationDoc(blob["computation_names"], cg)
    return blob["state"], ndoc, cdoc


def _write_json(path, doc) -> None:
    text = json.dumps(doc, indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    ndoc = load_network(args.network)
    cdoc = load_computation(args.computation, ndoc.net.n)
    cg, net = cdoc.cg, ndoc.net
    dm = apsp(net)
    budget = args.budget
    state = None

    method, objective = args.method, args.objective
    ok_pairs = {
        ("tree", "mindelay"), ("collapse", "mindelay"),
        ("layered", "mincost"), ("treewidth", "mincost"),
        ("oracle", "mincost"), ("oracle", "mindelay"),
    }
    if (method, objective) not in ok_pairs:
        raise PreconditionError(f"method {method!r} does not solve {objective!r}")

    if method == "tree":
        emb, report = min_delay_tree(cg, net, dm)
        value, key = report.total, "delay"
    elif method == "collapse":
        emb, report = min_delay_collapse(cg, net, dm)
        value, key = report.total, "delay"
    elif method == "layered":
        ls = infer_layering(cg)
        emb, value, state = min_cost_layered(cg, ls, net, dm, budget=budget)
        key = "cost"
    elif method == "treewidth":
        if args.decomposition:
            doc = load_json(args.decomposition)
            _require_fields(doc, ("bags", "tree_edges"), what="decomposition")
            cids = {name: i for i, name in enumerate(cdoc.names)}
            try:
                bags = [[cids[w] for w in bag] for bag in doc["bags"]]
            except KeyError as exc:
                raise ValidationError(f"decomposition: unknown vertex {exc.args[0]!r}")
            td = make_decomposition(cg, bags, doc["tree_edges"])
        else:
            td = min_fill_decomposition(cg)
        emb, value = min_cost_treewidth(cg, td, net, dm, budget=budget)
        key = "cost"
    else:
        if objective == "mincost":
            emb, value = brute_force_min_cost(cg, net, dm, budget=budget)
            key = "cost"
        else:
            emb, report = brute_force_min_delay(cg, net, dm, budget=budget)
            value, key = report.total, "delay"

    out = embedding_to_json(emb, cdoc, ndoc, objective=objective, method=method,
                            **{key: value})
    _write_json(args.out, out)
    if args.state_out is not None:
        if state is None:
            raise PreconditionError("--state-out requires --method layered")
        save_state(args.state_out, state, ndoc, cdoc)
    print(f"{key} = {value!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    ndoc = load_network(args.network)
    cdoc = load_computation(args.computation, ndoc.net.n)
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
    state, ndoc, cdoc = load_state(args.state)
    edits, cdoc2 = load_edits(load_json(args.edits), cdoc)
    dm = apsp(ndoc.net)
    emb, cost, new_state = apply_perturbations(state, cdoc2.cg, edits, dm,
                                               budget=args.budget)
    _write_json(args.out, embedding_to_json(emb, cdoc2, ndoc, cost=cost))
    if args.state_out:
        save_state(args.state_out, new_state, ndoc, cdoc2)
    print(f"cost = {cost!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    doc = load_json(args.config)
    _require_fields(
        doc,
        ("n", "p_r_grid", "instances", "placements", "p", "master_seed"),
        ("weight_model", "xi_lo", "xi_hi", "max_resamples", "layers", "width"),
        what="experiment config",
    )
    if args.seed is not None:
        doc = dict(doc, master_seed=args.seed)
    cfg = ExperimentConfig(
        n=doc["n"], p_r_grid=tuple(doc["p_r_grid"]), instances=doc["instances"],
        placements=doc["placements"], p=doc["p"], master_seed=doc["master_seed"],
        weight_model=doc.get("weight_model", "unit"),
        xi_lo=doc.get("xi_lo", 1), xi_hi=doc.get("xi_hi", 10),
        max_resamples=doc.get("max_resamples", 200),
        layers=doc.get("layers", 3), width=doc.get("width", 2),
    )
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
    if args.network:
        ndoc = load_network(args.network)
        print(f"network ok: {ndoc.net.n} nodes, {len(ndoc.net.edges)} edges,"
              f" {len(ndoc.net.sources)} sources")
        if args.computation:
            cdoc = load_computation(args.computation, ndoc.net.n)
            print(f"computation ok: {cdoc.cg.p} vertices, {cdoc.cg.q} edges")
    elif args.computation:
        doc = load_json(args.computation)
        n_guess = args.n if args.n is not None else 1
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
    p.add_argument("--method", required=True,
                   choices=["tree", "layered", "treewidth", "collapse", "oracle"])
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValidationError, OSError, json.JSONDecodeError, pickle.UnpicklingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DagplaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
