"""The three benchmark workloads: input generators, jobs and output checks.

Every workload is a closed loop: one client in one thread runs its jobs one
after another, each job being one user-level call into dagplace.  Inputs come
from a fixed pool of instances per stratum; the workload seed picks which
pool entries a run uses.  The pool is what lets every job's output be checked
against a reference recorded from the seed commit (``reference/*.json``,
written by ``record.py``), whatever seed a run is given.

Generators use the standard library's ``random`` with string seeds, which are
stable across Python versions and independent of dagplace's own generators.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import dagplace as dp
import dagplace.cli as dp_cli
import dagplace.harness as dp_harness

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


# ---------------------------------------------------------------------------
# jobs and their checks


@dataclass
class Job:
    """One user-level call and the checks of its output.

    ``summarize`` turns the result into the JSON-able value whose digest is
    compared with the reference.  ``invariant`` holds checks that need no
    reference (cross-solver agreement, recomputed costs).  A ``known_bad``
    job's target is exit code 2; its reference is the outcome at the seed.
    """

    key: str
    run: Callable[[], object]
    summarize: Callable[[object], object] = None
    invariant: Callable[[object], bool] = None
    known_bad: bool = False


@dataclass
class JobError:
    """A job raised instead of returning."""

    kind: str
    message: str


@dataclass
class CliResult:
    rc: int
    stdout: str
    outputs: tuple[Path, ...]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(result) -> str:
    """Short description of how a job ended, for known-bad references."""
    if isinstance(result, JobError):
        return f"raise:{result.kind}"
    return f"exit:{result.rc}"


def judge(job: Job, result, reference: dict) -> str:
    """"ok" when the job met its target; "known" when a known-bad job missed
    its target exactly as it did at the seed; "fail" otherwise."""
    if job.known_bad:
        if isinstance(result, CliResult) and result.rc == dp_cli.EXIT_VALIDATION:
            return "ok"
        return "known" if outcome(result) == reference.get(job.key) else "fail"
    if isinstance(result, JobError):
        return "fail"
    if job.invariant is not None and not job.invariant(result):
        return "fail"
    return "ok" if digest(job.summarize(result)) == reference.get(job.key) else "fail"


def record(job: Job, result):
    """The reference entry for a job's result at the recording commit."""
    if job.known_bad:
        return outcome(result)
    if isinstance(result, JobError):
        raise RuntimeError(f"{job.key} raised {result.kind}: {result.message}")
    if job.invariant is not None and not job.invariant(result):
        raise RuntimeError(f"{job.key} fails its invariant")
    return digest(job.summarize(result))


def _sample(seed: int, strata: dict, pool: int) -> list[tuple]:
    """Pick ``strata[s]`` of the ``pool`` entries of each stratum s;
    interleave the strata."""
    rng = random.Random(seed)
    picks = {s: rng.sample(range(pool), count) for s, count in strata.items()}
    return [(s, picks[s][i]) for i in range(max(strata.values()))
            for s in strata if i < strata[s]]


def _full_pool(strata: dict, pool: int) -> list[tuple]:
    return [(s, i) for i in range(pool) for s in strata]


def _random_edges(rng: random.Random, n: int, extra: int, lo: int, hi: int):
    """Random spanning tree plus ``extra`` further edges, integer weights."""
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = rng.randint(lo, hi)
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(lo, hi)
    return [(u, v, float(w)) for (u, v), w in sorted(edges.items())]


# ---------------------------------------------------------------------------
# studies: the link-usage and k^2-gap experiment suites


class Studies:
    """Jobs are ``harness.experiment_link_usage`` and
    ``harness.experiment_k2_gap`` runs on desk-style configs.

    Every round starts with the desk link-usage config (seed 42), whose CSV
    must equal ``fixtures/bench_link_usage_desk_expected.csv`` byte for byte.
    Link-usage jobs use n=60, p=16 and unit weights, one instance with five
    placements each, stratified over the desk edge probabilities so that every
    round holds the same mix of densities (APSP cost grows with density).
    k^2-gap jobs run eight instances of n=6 with 3 or 4 layers of width 2;
    they are the only traffic into the brute-force oracle.  The counts put
    the median job among the p_r=0.2 runs and the tail job (ten jobs beyond
    it: the desk run, six p_r=0.8 runs, three p_r=0.4 runs) in the middle of
    the p_r=0.4 runs, so neither sits on the edge between two job sizes.
    """

    name = "studies"
    # link-usage jobs per round at each edge probability
    P_R = {0.05: 8, 0.1: 8, 0.2: 8, 0.4: 8, 0.8: 6}
    LAYERS = {3: 4, 4: 4}  # k^2-gap jobs per round at each layer count
    LINK_POOL, K2_POOL = 40, 50

    def select(self, seed: int):
        return _sample(seed, self.P_R, self.LINK_POOL), _sample(seed + 1, self.LAYERS, self.K2_POOL)

    def pool(self):
        return _full_pool(self.P_R, self.LINK_POOL), _full_pool(self.LAYERS, self.K2_POOL)

    def setup(self, selection, workdir: Path):
        links, k2s = selection
        doc = json.loads((FIXTURES / "bench_link_usage_desk.json").read_text())
        desk = dp_harness.ExperimentConfig(
            n=doc["n"], p_r_grid=tuple(doc["p_r_grid"]), instances=doc["instances"],
            placements=doc["placements"], p=doc["p"], master_seed=doc["master_seed"],
        )
        expected = (FIXTURES / "bench_link_usage_desk_expected.csv").read_bytes()
        link_cfgs = [
            (f"link/p_r={pr}/{i}", dp_harness.ExperimentConfig(
                n=60, p_r_grid=(pr,), instances=1, placements=5, p=16,
                master_seed=10_000 * (1 + list(self.P_R).index(pr)) + i))
            for pr, i in links
        ]
        k2_cfgs = [
            (f"k2/layers={layers}/{i}", dp_harness.ExperimentConfig(
                n=6, p_r_grid=(0.6,), instances=8, placements=1, p=8,
                master_seed=100_000 * layers + i, layers=layers, width=2, xi_lo=0, xi_hi=3))
            for layers, i in k2s
        ]
        return desk, expected, link_cfgs, k2_cfgs

    def jobs(self, inputs, outdir: Path) -> list[Job]:
        desk, expected, link_cfgs, k2_cfgs = inputs

        def csv(table):
            return table.to_csv()

        jobs = [Job("desk", lambda: dp_harness.experiment_link_usage(desk), csv,
                    lambda t: t.to_csv().encode() == expected)]
        for key, cfg in link_cfgs:
            jobs.append(Job(key, lambda c=cfg: dp_harness.experiment_link_usage(c), csv))
        for key, cfg in k2_cfgs:
            jobs.append(Job(key, lambda c=cfg: dp_harness.experiment_k2_gap(c), csv))
        return jobs


# ---------------------------------------------------------------------------
# cost_replan: fresh layered / treewidth solves beside incremental re-plans


@dataclass
class LayeredInstance:
    key: str
    net: object
    cg: object
    replans: tuple  # (label, edited graph, edits)


class CostReplan:
    """Full-width layered DAGs on small randint-weight networks.

    Shapes (r, k, n) are fixed, every middle layer holds k vertices and
    consecutive layers are completely connected, so the DP table sizes are
    known and equal for every seed; the seed draws network topology, weights,
    source/sink placement, processing and edge sizes.  Per instance the jobs
    are a fresh ``min_cost_layered`` solve, ``min_cost_treewidth`` on the
    layered path decomposition and on the min-fill decomposition, then one
    ``apply_perturbations`` re-plan of the layered solve per middle layer l,
    each adding an edge inside layer l: l=2 rebuilds almost every table,
    l=r-1 only the last.  One instance per shape keeps a round short, so each
    job is timed many times per run.
    """

    name = "cost_replan"
    SHAPES = {(6, 2, 12): 1, (8, 2, 10): 1, (5, 3, 6): 1}  # instances per round
    POOL = 16

    def select(self, seed: int):
        return _sample(seed, self.SHAPES, self.POOL)

    def pool(self):
        return _full_pool(self.SHAPES, self.POOL)

    def setup(self, selection, workdir: Path) -> list[LayeredInstance]:
        return [self.instance(shape, i) for shape, i in selection]

    @staticmethod
    def instance(shape, index: int) -> LayeredInstance:
        r, k, n = shape
        rng = random.Random(f"cost_replan/{r}-{k}-{n}/{index}")
        roles = rng.sample(range(n), k + 1)
        net = dp.build_network(n, _random_edges(rng, n, n // 2, 1, 5),
                               sources=roles[:k], sink=roles[k])
        layers = [list(range(k * l, k * l + k)) for l in range(r - 1)]
        p = k * (r - 1) + 1
        layers.append([p - 1])
        edges = [(a, b, float(rng.randint(1, 3)))
                 for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower]
        proc = [[0.0] * n if w < k else [float(rng.randint(0, 3)) for _ in range(n)]
                for w in range(p)]
        cg = dp.build_computation(p, edges, layers[0], p - 1, proc)
        replans = []
        for lay in range(2, r):
            a, b = layers[lay - 1][0], layers[lay - 1][1]
            edge = (a, b, float(rng.randint(1, 3)))
            cg2 = dp.build_computation(p, edges + [edge], layers[0], p - 1, proc)
            replans.append((f"layer{lay}", cg2, [(edge, lay)]))
        return LayeredInstance(f"{r}-{k}-{n}/{index}", net, cg, tuple(replans))

    def jobs(self, inputs: list[LayeredInstance], outdir: Path) -> list[Job]:
        jobs = []
        for inst in inputs:
            jobs.extend(self._instance_jobs(inst))
        return jobs

    @staticmethod
    def _instance_jobs(inst: LayeredInstance) -> list[Job]:
        net, cg = inst.net, inst.cg
        solved = {}  # filled by the layered job; read by the jobs after it

        def layered():
            dm = dp.apsp(net)
            emb, cost, state = dp.min_cost_layered(cg, dp.infer_layering(cg), net, dm)
            solved.update(dm=dm, state=state, cost=cost)
            return emb, cost, dm

        def tw_path():
            dm = dp.apsp(net)
            td = dp.layered_path_decomposition(dp.infer_layering(cg), cg)
            return (*dp.min_cost_treewidth(cg, td, net, dm), dm)

        def tw_minfill():
            dm = dp.apsp(net)
            td = dp.min_fill_decomposition(cg)
            return (*dp.min_cost_treewidth(cg, td, net, dm), dm)

        def summary(result):
            emb, cost, _ = result
            return {"cost": cost, "assignment": list(emb.assignment)}

        def consistent(graph, agree_with_layered):
            def check(result):
                emb, cost, dm = result
                if dp.embedding_cost(graph, dm, emb) != cost:
                    return False
                return not agree_with_layered or cost == solved.get("cost")
            return check

        jobs = [
            Job(f"{inst.key}/layered", layered, summary, consistent(cg, False)),
            Job(f"{inst.key}/tw_path", tw_path, summary, consistent(cg, True)),
            Job(f"{inst.key}/tw_minfill", tw_minfill, summary, consistent(cg, True)),
        ]
        for label, cg2, edits in inst.replans:
            def replan(cg2=cg2, edits=edits):
                emb, cost, _ = dp.apply_perturbations(solved["state"], cg2, edits, solved["dm"])
                return emb, cost, solved["dm"]
            jobs.append(Job(f"{inst.key}/replan_{label}", replan, summary, consistent(cg2, False)))
        return jobs


# ---------------------------------------------------------------------------
# cli_tree_eval: in-process CLI commands on generated JSON files


class CliTreeEval:
    """``cli.main(argv)`` on generated files: a min-delay tree solve, the four
    eval metrics and validate per in-tree instance; the fixture round-trip
    (layered solve with a state file, perturb, treewidth solve with a
    decomposition file); and three malformed inputs that must exit 2.

    In-trees have p up to 511 vertices and at most n-1 sources, on networks
    of n = 48..64 nodes with about 2n edges, so APSP is a minority of each
    command.  Each round holds one instance per (n, p) slot; even slots give
    processing as a full matrix, odd slots as default plus overrides.
    """

    name = "cli_tree_eval"
    SLOTS = ((48, 127), (56, 127), (64, 127), (48, 255), (56, 255), (64, 255),
             (56, 511), (64, 511))
    SLOT_COUNTS = dict.fromkeys(SLOTS, 1)  # instances per round
    POOL = 16
    METRICS = ("cost", "delay", "capdelay", "link-usage")

    def select(self, seed: int):
        return _sample(seed, self.SLOT_COUNTS, self.POOL)

    def pool(self):
        return _full_pool(self.SLOT_COUNTS, self.POOL)

    def setup(self, selection, workdir: Path):
        indir = workdir / "in"
        indir.mkdir(parents=True, exist_ok=True)
        trees = []
        for slot, index in selection:
            net_doc, cg_doc = self.tree_docs(slot, index)
            tag = f"tree-{slot[0]}-{slot[1]}-{index}"
            net_path, cg_path = indir / f"{tag}-net.json", indir / f"{tag}-cg.json"
            net_path.write_text(json.dumps(net_doc))
            cg_path.write_text(json.dumps(cg_doc))
            trees.append((f"{slot[0]}-{slot[1]}/{index}", net_path, cg_path))
        bad = {
            "edits": {"adds": [{"edge": ["prod", "tap"], "layer": 3}]},
            "embedding": {"map": [["x1", "s1"], ["out", "t"]]},
            "computation": {"nodes": ["a", "b"], "edges": [["a", "b", 1.0]],
                            "sources": ["a"], "sink": "b", "processing": {"matrix": [1]}},
        }
        bad_paths = {}
        for what, doc in bad.items():
            bad_paths[what] = indir / f"bad-{what}.json"
            bad_paths[what].write_text(json.dumps(doc))
        return trees, bad_paths

    def tree_docs(self, slot, index: int):
        n, p = slot
        rng = random.Random(f"cli_tree_eval/{n}-{p}/{index}")
        k = n // 2
        nodes = [f"v{i}" for i in range(n)]
        roles = rng.sample(range(n), k + 1)
        net_doc = {
            "nodes": nodes,
            "edges": [[nodes[u], nodes[v], w] for u, v, w in _random_edges(rng, n, n, 1, 9)],
            "sources": [nodes[i] for i in roles[:k]],
            "sink": nodes[roles[k]],
        }
        succ = in_tree(rng, p, k)
        names = [f"w{i}" for i in range(p)]
        if self.SLOTS.index(slot) % 2:
            overrides = []
            for w in rng.sample(range(k, p), (p - k) // 4):
                node = "*" if rng.random() < 0.25 else rng.randrange(n)
                overrides.append([names[w], node, rng.randint(1, 5)])
            processing = {"default": rng.randint(1, 5), "overrides": overrides}
        else:
            processing = {"matrix": [[0] * n if w < k else [rng.randint(1, 5) for _ in range(n)]
                                     for w in range(p)]}
        cg_doc = {
            "nodes": names,
            "edges": [[names[a], names[b], float(rng.randint(1, 3))] for a, b in sorted(succ.items())],
            "sources": names[:k],
            "sink": names[p - 1],
            "processing": processing,
        }
        return net_doc, cg_doc

    def jobs(self, inputs, outdir: Path) -> list[Job]:
        trees, bad = inputs
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        jobs = []
        for key, net, cg in trees:
            emb = outdir / f"{key.replace('/', '-')}-emb.json"
            jobs.append(_cli_job(f"{key}/solve", [
                "solve", "--objective", "mindelay", "--method", "tree",
                "--network", net, "--computation", cg, "--out", emb], emb))
            for metric in self.METRICS:
                out = outdir / f"{key.replace('/', '-')}-{metric}.json"
                jobs.append(_cli_job(f"{key}/eval_{metric}", [
                    "eval", "--metric", metric, "--network", net, "--computation", cg,
                    "--embedding", emb, "--out", out], out))
            jobs.append(_cli_job(f"{key}/validate", [
                "validate", "--network", net, "--computation", cg]))

        state, emb, out = outdir / "prodsum-state.bin", outdir / "prodsum-emb.json", outdir / "out.json"
        prodsum = ["--network", FIXTURES / "prodsum_net.json",
                   "--computation", FIXTURES / "prodsum_cg.json"]
        jobs += [
            _cli_job("fixture/solve_layered", [
                "solve", "--objective", "mincost", "--method", "layered", *prodsum,
                "--out", emb, "--state-out", state], emb),
            _cli_job("fixture/perturb", [
                "perturb", "--state", state, "--edits", FIXTURES / "prodsum_edits.json",
                "--out", outdir / "prodsum-emb2.json", "--state-out", outdir / "prodsum-state2.bin"],
                outdir / "prodsum-emb2.json"),
            _cli_job("fixture/solve_treewidth", [
                "solve", "--objective", "mincost", "--method", "treewidth",
                "--network", FIXTURES / "loop_net.json", "--computation", FIXTURES / "loop_cg.json",
                "--decomposition", FIXTURES / "loop_td.json", "--out", outdir / "loop-emb.json"],
                outdir / "loop-emb.json"),
            _cli_job("bad/perturb_edge_arity", [
                "perturb", "--state", state, "--edits", bad["edits"], "--out", out],
                known_bad=True),
            _cli_job("bad/eval_map_list", [
                "eval", "--metric", "cost", *prodsum, "--embedding", bad["embedding"], "--out", out],
                known_bad=True),
            _cli_job("bad/validate_matrix_scalar_rows", [
                "validate", "--computation", bad["computation"]], known_bad=True),
        ]
        return jobs


def _cli_job(key: str, argv, *outputs: Path, known_bad: bool = False) -> Job:
    argv = [str(a) for a in argv]

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                rc = dp_cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
        return CliResult(rc, buf.getvalue(), outputs)

    def summarize(result: CliResult):
        files = [json.loads(path.read_text()) if path.exists() else None
                 for path in result.outputs]
        return {"rc": result.rc, "stdout": result.stdout, "files": files}

    return Job(key, run, summarize, known_bad=known_bad)


def in_tree(rng: random.Random, p: int, k: int) -> dict[int, int]:
    """Successor of every non-sink vertex of a random in-tree.

    Vertices 0..k-1 are the sources and p-1 is the sink.  The internal
    vertices form a tree with at most k leaves, and every internal leaf gets
    a source, so every vertex lies on a source-to-sink path.
    """
    succ: dict[int, int] = {}
    placed = [p - 1]
    leaves = {p - 1}
    for v in range(p - 2, k - 1, -1):
        if len(leaves) < k and rng.random() < 0.5:
            u = rng.choice(placed)
        else:
            u = rng.choice(sorted(leaves))
        succ[v] = u
        leaves.discard(u)
        leaves.add(v)
        placed.append(v)
    ends = sorted(leaves)
    for s in range(k):
        succ[s] = ends[s] if s < len(ends) else rng.choice(placed)
    return succ


WORKLOADS = {w.name: w for w in (Studies(), CostReplan(), CliTreeEval())}
