import copy
import json
import pickle
import random
import warnings

import numpy as np
import pytest

import dagplace.solver_layered
from conftest import fixture_path as fx
from dagplace import cli
from dagplace.cli import ComputationDoc, NetworkDoc, load_edits, load_json, main
from dagplace.errors import ValidationError
from dagplace.model import LayeredStructure, apsp
from dagplace.solver_layered import min_cost_layered


def test_solve_layered_prodsum(tmp_path):
    out = tmp_path / "emb.json"
    code = main([
        "solve", "--objective", "mincost", "--method", "layered",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["cost"] == 34
    assert doc["map"]["x1"] == "s1" and doc["map"]["out"] == "t"


def test_solve_oracle_min_delay(tmp_path):
    out = tmp_path / "emb.json"
    code = main([
        "solve", "--objective", "mindelay", "--method", "oracle",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["delay"] == 14


def test_solve_tree_and_collapse_fanin(tmp_path):
    for method in ("tree", "collapse"):
        out = tmp_path / f"{method}.json"
        code = main([
            "solve", "--objective", "mindelay", "--method", method,
            "--network", fx("fanin_net.json"), "--computation", fx("fanin_cg.json"),
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["delay"] == 5


def test_solve_treewidth_with_and_without_decomposition(tmp_path):
    out = tmp_path / "emb.json"
    code = main([
        "solve", "--objective", "mincost", "--method", "treewidth",
        "--network", fx("loop_net.json"), "--computation", fx("loop_cg.json"),
        "--decomposition", fx("loop_td.json"), "--out", str(out),
    ])
    assert code == 0
    with_td = json.loads(out.read_text())["cost"]
    code = main([
        "solve", "--objective", "mincost", "--method", "treewidth",
        "--network", fx("loop_net.json"), "--computation", fx("loop_cg.json"),
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["cost"] == with_td


@pytest.mark.parametrize("bags, tree_edges, message", [
    # a tree edge names bag 7 of 5
    (None, [[0, 1], [1, 2], [1, 3], [3, 7]], "bad tree edge (3,7)"),
    # vertex a (1) also in bag 4, whose neighbour bag 3 lacks it
    ([["src", "a"], ["a", "b", "e"], ["b", "c", "e"], ["b", "d", "e"], ["e", "out", "a"]],
     None, "bags containing vertex 1 are not connected"),
    # no bag holds both c (3) and e (5)
    ([["src", "a"], ["a", "b", "e"], ["b", "c"], ["b", "d", "e"], ["e", "out"]],
     None, "edge (3,5) is in no bag"),
])
def test_broken_decomposition_exits_4_before_the_budget(tmp_path, capsys, bags, tree_edges,
                                                        message):
    # with --budget 10 the fixture's decomposition itself exits 3 (64-cell
    # tables), so the decomposition is checked before the budget
    td = load_json(fx("loop_td.json"))
    td = dict(td, bags=bags or td["bags"], tree_edges=tree_edges or td["tree_edges"])
    path, out = tmp_path / "td.json", tmp_path / "emb.json"
    path.write_text(json.dumps(td))
    argv = ["solve", "--objective", "mincost", "--method", "treewidth", "--network",
            fx("loop_net.json"), "--computation", fx("loop_cg.json"), "--out", str(out)]
    assert main(argv + ["--decomposition", fx("loop_td.json"), "--budget", "10"]) == 3
    for budget in ([], ["--budget", "10"]):
        capsys.readouterr()
        assert main(argv + ["--decomposition", str(path)] + budget) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_eval_metrics(tmp_path):
    out = tmp_path / "r.json"
    for metric, key, value in (
        ("cost", "cost", 36.0),
        ("delay", "delay", 14.0),
        ("capdelay", "capdelay", None),
        ("link-usage", "link_usage", None),
    ):
        args = [
            "eval", "--metric", metric,
            "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
            "--embedding", fx("prodsum_emb_delay.json"), "--out", str(out),
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        if value is not None:
            assert doc[key] == value


def test_eval_capdelay_fanin(tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "eval", "--metric", "capdelay",
        "--network", fx("fanin_net.json"), "--computation", fx("fanin_cg.json"),
        "--embedding", fx("fanin_emb.json"), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["capdelay"] == 6
    assert doc["links"]["i--j"][0]["departure"] == 2


def test_perturb_round_trip(tmp_path):
    state = tmp_path / "state.json"
    emb = tmp_path / "emb.json"
    code = main([
        "solve", "--objective", "mincost", "--method", "layered",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(emb), "--state-out", str(state),
    ])
    assert code == 0
    out = tmp_path / "emb2.json"
    state2 = tmp_path / "state2.json"
    code = main([
        "perturb", "--state", str(state), "--edits", fx("prodsum_edits.json"),
        "--out", str(out), "--state-out", str(state2),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["cost"] == 34
    assert doc["map"]["tap"] == doc["map"]["prod"]
    assert state2.exists()


def test_validate_ok_and_disconnected(tmp_path, capsys):
    assert main(["validate", "--network", fx("prodsum_net.json"),
                 "--computation", fx("prodsum_cg.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": ["a", "b", "c", "d"],
        "edges": [["a", "b", 1], ["c", "d", 1]],
        "sources": ["a"], "sink": "d",
    }))
    code = main(["validate", "--network", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "['a', 'b']" in err and "['c', 'd']" in err


def test_exit_codes(tmp_path):
    out = tmp_path / "o.json"
    # budget exceeded -> 3
    assert main([
        "solve", "--objective", "mincost", "--method", "oracle",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(out), "--budget", "10",
    ]) == 3
    # solver precondition (tree method on a non-tree) -> 4
    assert main([
        "solve", "--objective", "mindelay", "--method", "tree",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(out),
    ]) == 4
    # incompatible method/objective -> 4
    assert main([
        "solve", "--objective", "mincost", "--method", "tree",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(out),
    ]) == 4
    # malformed file -> 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["a"], "edges": [], "sources": [], "sink": "a", "x": 1}')
    assert main([
        "solve", "--objective", "mincost", "--method", "oracle",
        "--network", str(bad), "--computation", fx("prodsum_cg.json"),
        "--out", str(out),
    ]) == 2


def test_state_out_is_refused_before_the_solve(tmp_path, capsys):
    out, state = tmp_path / "o.json", tmp_path / "s.json"
    argv = ["solve", "--objective", "mindelay", "--method", "tree", "--network",
            fx("fanin_net.json"), "--computation", fx("fanin_cg.json"),
            "--out", str(out), "--state-out", str(state)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --state-out requires --method layered\n"
    assert not out.exists() and not state.exists()
    # a malformed input file still exits 2 first
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main([str(bad) if a.endswith("fanin_net.json") else a for a in argv]) == 2


def test_decomposition_is_refused_without_treewidth(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["solve", "--objective", "mincost", "--method", "layered", "--network",
                 fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
                 "--decomposition", "/nonexistent/td.json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --decomposition requires --method treewidth\n"
    assert not out.exists()



def test_per_direction_is_refused_without_capdelay(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["eval", "--metric", "cost", "--network", fx("fanin_net.json"), "--computation",
            fx("fanin_cg.json"), "--embedding", fx("fanin_emb.json"), "--out", str(out),
            "--per-direction"]
    for metric in ("cost", "delay", "link-usage"):
        argv[2] = metric
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --per-direction requires --metric capdelay\n"
        assert not out.exists()
    # refused before any file is read
    assert main([a.replace("fanin_net.json", "missing.json") for a in argv]) == 2
    assert capsys.readouterr().err == "error: --per-direction requires --metric capdelay\n"
    argv[2] = "capdelay"
    assert main(argv) == 0
    assert "capdelay" in json.loads(out.read_text())


@pytest.mark.parametrize("size", [1.0, 0.0])
def test_overflowing_distances_solve_without_a_traceback(size, tmp_path, capsys):
    # d(s, t) = 1e308 + 1e308 overflows to inf; a zero size times inf is NaN
    net, cg = tmp_path / "net.json", tmp_path / "cg.json"
    net.write_text(json.dumps({"nodes": ["s", "m", "t"], "sources": ["s"], "sink": "t",
                               "edges": [["s", "m", 1e308], ["m", "t", 1e308]]}))
    cg.write_text(json.dumps({"nodes": ["x", "f", "out"], "sources": ["x"], "sink": "out",
                              "edges": [["x", "f", size], ["f", "out", 1.0]],
                              "processing": {"default": 0}}))
    for method, objective in cli._SOLVERS:
        capsys.readouterr()
        code = main(["solve", "--objective", objective, "--method", method, "--network",
                     str(net), "--computation", str(cg), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        if size == 0.0 and method == "collapse":
            # collapse's precondition is unit sizes
            assert code == 4, err
        else:
            # cost and delay alike carry the NaN through
            key = "cost" if objective == "mincost" else "delay"
            value = "nan" if size == 0.0 else "inf"
            assert (code, err.splitlines()[-1]) == (0, f"{key} = {value}"), method

def test_a_nan_arrival_after_a_finite_one_is_kept(tmp_path, capsys):
    # the sink's second input crosses d(s1, t) = inf with size 0: a NaN
    # arrival after the finite one of x2, which the scalar maximum must keep
    net, cg = tmp_path / "net.json", tmp_path / "cg.json"
    net.write_text(json.dumps({"nodes": ["s1", "s2", "m", "t"], "sources": ["s1", "s2"],
                               "sink": "t", "edges": [["s1", "m", 1e308], ["m", "t", 1e308],
                                                      ["s2", "t", 1]]}))
    cg.write_text(json.dumps({"nodes": ["x1", "x2", "out"], "sources": ["x1", "x2"],
                              "sink": "out", "edges": [["x2", "out", 1.0], ["x1", "out", 0.0]],
                              "processing": {"default": 0}}))
    for method, objective in cli._SOLVERS:
        if method == "collapse":  # its precondition is unit sizes
            continue
        capsys.readouterr()
        code = main(["solve", "--objective", objective, "--method", method, "--network",
                     str(net), "--computation", str(cg), "--out", str(tmp_path / "o.json")])
        key = "cost" if objective == "mincost" else "delay"
        assert (code, capsys.readouterr().err.splitlines()[-1]) == (0, f"{key} = nan"), method


# name -> (bundled document, a command line that reads it); BAD stands for the
# document under test, other *.json words for bundled files, STATE for the
# state file of a layered solve of prodsum and OUT for an output file
COMMANDS = {
    "perturb": ("prodsum_edits.json", "perturb --state STATE --edits BAD --out OUT"),
    "eval": ("prodsum_emb_delay.json", "eval --metric cost --network prodsum_net.json"
             " --computation prodsum_cg.json --embedding BAD --out OUT"),
    "validate": ("prodsum_cg.json", "validate --computation BAD"),
    "validate-network": ("prodsum_net.json", "validate --network BAD"),
    "layered-network": ("prodsum_net.json", "solve --objective mincost --method layered"
                        " --network BAD --computation prodsum_cg.json --out OUT"),
    "layered": ("prodsum_cg.json", "solve --objective mincost --method layered"
                " --network prodsum_net.json --computation BAD --out OUT"),
    "tree-network": ("fanin_net.json", "solve --objective mindelay --method tree"
                     " --network BAD --computation fanin_cg.json --out OUT"),
    "tree": ("fanin_cg.json", "solve --objective mindelay --method tree"
             " --network fanin_net.json --computation BAD --out OUT"),
    "capdelay": ("fanin_emb.json", "eval --metric capdelay --network fanin_net.json"
                 " --computation fanin_cg.json --embedding BAD --out OUT"),
    "treewidth": ("loop_td.json", "solve --objective mincost --method treewidth"
                  " --network loop_net.json --computation loop_cg.json --decomposition BAD"
                  " --out OUT"),
    "treewidth-cg": ("loop_cg.json", "solve --objective mincost --method treewidth"
                     " --network loop_net.json --computation BAD --decomposition loop_td.json"
                     " --out OUT"),
    "perturb-state": ("STATE", "perturb --state BAD --edits prodsum_edits.json --out OUT"),
    "bench": ("bench_k2_desk.json", "bench k2-gap --config BAD --csv OUT"),
    "bench-link-usage": ("bench_link_usage_desk.json", "bench link-usage --config BAD --csv OUT"),
}


def _state(tmp_path, net: str = fx("prodsum_net.json")) -> str:
    """The state file of a layered solve of prodsum on ``net``, written on first use."""
    state = tmp_path / "state.json"
    if not state.exists():
        assert main(["solve", "--objective", "mincost", "--method", "layered",
                     "--network", net, "--computation", fx("prodsum_cg.json"),
                     "--out", str(tmp_path / "solved.json"), "--state-out", str(state)]) == 0
    return str(state)


def _argv(name: str, bad: str, tmp_path) -> list[str]:
    words = {"BAD": bad, "OUT": str(tmp_path / "out")}
    if "STATE" in COMMANDS[name][1]:
        words["STATE"] = _state(tmp_path)
    return [words.get(w, fx(w) if w.endswith(".json") else w) for w in COMMANDS[name][1].split()]


def _with(fixture, **fields):
    return dict(load_json(fx(fixture)), **fields)


def _first_edge_weight(fixture, weight):
    edges = load_json(fx(fixture))["edges"]
    return _with(fixture, edges=[[*edges[0][:2], weight], *edges[1:]])


def _chain_cg(rows) -> dict:
    """A chain w0 -> w1 -> ... whose processing matrix holds ``rows``; w0 is the source."""
    names = [f"w{i}" for i in range(len(rows))]
    return {"nodes": names, "edges": [[a, b, 1.0] for a, b in zip(names, names[1:])],
            "sources": names[:1], "sink": names[-1], "processing": {"matrix": rows}}


NAN, INF, HUGE = float("nan"), float("inf"), 10 ** 400  # HUGE: no double holds it


def _one_error_line(argv, capsys) -> int:
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@pytest.mark.parametrize("command, doc", [
    ("perturb", {"adds": [{"edge": ["prod", "tap"], "layer": 3}]}),
    ("eval", {"map": [["x1", "s1"], ["out", "t"]]}),
    ("validate", {"nodes": ["a", "b"], "edges": [["a", "b", 1.0]], "sources": ["a"],
                  "sink": "b", "processing": {"matrix": [1]}}),
    ("treewidth", _with("loop_td.json", bags=5)),
    ("treewidth", _with("loop_td.json", tree_edges=5)),
    ("treewidth", _with("loop_td.json", tree_edges=[[0]])),
    ("validate-network", _with("prodsum_net.json", edges=5)),
    ("validate-network", _with("prodsum_net.json", sources=5)),
    ("validate", _with("prodsum_cg.json", edges=5)),
    ("validate", _with("prodsum_cg.json", processing={"default": 0, "overrides": 5})),
    ("validate", _with("prodsum_cg.json", sources=[["x1"]])),
    ("perturb", {"adds": 5}),
    ("bench", _with("bench_k2_desk.json", n="x")),
    ("bench", _with("bench_k2_desk.json", p_r_grid=0.5)),
    ("bench", _with("bench_k2_desk.json", instances=0)),
    ("bench", _with("bench_k2_desk.json", n=1)),
    ("bench-link-usage", _with("bench_link_usage_desk.json", p=2)),
    ("bench-link-usage", _with("bench_link_usage_desk.json", n=3, p=9)),
    ("bench", _with("bench_k2_desk.json", layers=0)),
    ("bench", _with("bench_k2_desk.json", width=0)),
    ("bench", _with("bench_k2_desk.json", p_r_grid=[])),
    ("bench", _with("bench_k2_desk.json", n=2, width=4)),
    ("validate-network", _first_edge_weight("prodsum_net.json", HUGE)),
    ("layered", _first_edge_weight("prodsum_cg.json", HUGE)),
    ("validate", _chain_cg([[0], [HUGE]])),
    ("validate", _with("prodsum_cg.json", processing={"default": HUGE})),
    ("bench", _with("bench_k2_desk.json", p_r_grid=[0.5, HUGE])),
    # past Python's int-string limit json.load itself fails; a str doc is written as is
    pytest.param("validate-network", json.dumps(_first_edge_weight("prodsum_net.json", "W"))
                 .replace('"W"', "9" * 5000), id="validate-network-5000-digits"),
    ("layered", _first_edge_weight("prodsum_cg.json", NAN)),
    ("layered", _first_edge_weight("prodsum_cg.json", INF)),
    ("validate", _chain_cg([[0], [NAN]])),
    ("validate", _chain_cg([[0, 0], [1, INF]])),
    ("validate", _with("prodsum_cg.json",
                       processing={"default": 1, "overrides": [["prod", "*", NAN]]})),
    ("perturb", {"adds": [{"edge": ["prod", "tap", NAN], "layer": 3}]}),
    ("perturb", {"adds": [{"edge": ["prod", "tap", INF], "layer": 3}]}),
    ("bench", _with("bench_k2_desk.json", n=10_000_000)),
    ("bench", _with("bench_k2_desk.json", n=HUGE)),
    # no draw at all: the parent printed a nan,nan,0 row and exited 0
    ("bench-link-usage", _with("bench_link_usage_desk.json", max_resamples=0)),
    # negative processing: the parent exited 2 only after the study ran
    ("bench", _with("bench_k2_desk.json", xi_lo=-1)),
    # a flag must be a JSON boolean; "false" used to read as true
    ("validate-network", _with("prodsum_net.json", allow_sink_source="false")),
    ("validate", _with("prodsum_cg.json", allow_cycles="false")),
    ("treewidth-cg", _with("loop_cg.json", allow_cycles="false")),
])
def test_malformed_documents_exit_2_with_one_line(command, doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert _one_error_line(_argv(command, str(bad), tmp_path), capsys) == 2


def _first_edge(fixture, edge):
    return _with(fixture, edges=[edge, *load_json(fx(fixture))["edges"][1:]])


def _override(*ov):
    return _with("prodsum_cg.json", processing={"default": 0.0, "overrides": [list(ov)]})


_EMB = load_json(fx("prodsum_emb_delay.json"))["map"]


@pytest.mark.parametrize("command, doc, line", [
    ("validate-network", _first_edge("prodsum_net.json", ["s1", "zz", 10.0]),
     "network: unknown node name 'zz'"),
    ("validate-network", _first_edge("prodsum_net.json", [5, "a", 10.0]),
     "network: unknown node name 5"),
    ("validate-network", _with("prodsum_net.json", sources=["s1", "zz", "s3"]),
     "network: unknown node name 'zz'"),
    ("validate-network", _with("prodsum_net.json", sink="zz"), "network: unknown node name 'zz'"),
    ("validate-network", _first_edge("prodsum_net.json", ["s1", "a"]),
     "network: edge ['s1', 'a'] must be [u, v, weight]"),
    ("validate-network", _first_edge("prodsum_net.json", ["s1", "a", "10"]),
     "network edge weight: expected a number, got '10'"),
    ("validate-network", _with("prodsum_net.json", edges={"s1": "a"}),
     "network: 'edges' must be a list, got {'s1': 'a'}"),
    ("validate-network", _with("prodsum_net.json", sources="s1"),
     "network: 'sources' must be a list, got 's1'"),
    ("validate", _first_edge("prodsum_cg.json", ["x1", "zz", 1.0]),
     "computation: unknown vertex name 'zz'"),
    ("validate", _first_edge("prodsum_cg.json", ["x1", None, 1.0]),
     "computation: unknown vertex name None"),
    ("validate", _with("prodsum_cg.json", sources=["x1", "zz", "x3"]),
     "computation: unknown vertex name 'zz'"),
    ("validate", _with("prodsum_cg.json", sink="zz"), "computation: unknown vertex name 'zz'"),
    ("validate", _first_edge("prodsum_cg.json", ["x1", "sum12", 1.0, 1.0]),
     "computation: edge ['x1', 'sum12', 1.0, 1.0] must be [u, v, weight]"),
    ("validate", _first_edge("prodsum_cg.json", ["x1", "sum12", True]),
     "computation edge weight: expected a number, got True"),
    ("validate", _with("prodsum_cg.json", edges="x1"),
     "computation: 'edges' must be a list, got 'x1'"),
    ("validate", _with("prodsum_cg.json", sources={"x1": 1}),
     "computation: 'sources' must be a list, got {'x1': 1}"),
    ("validate", _override("zz", "*", 1.0), "computation: unknown vertex name 'zz'"),
    ("validate", _override("zz", 0, 1.0), "computation: unknown vertex name 'zz'"),
    ("eval", {"map": dict(_EMB, zz="t")}, "embedding: unknown computation vertex 'zz'"),
    ("eval", {"map": dict(_EMB, x1="zz")}, "embedding: unknown network node 'zz'"),
    ("eval", {"map": dict(_EMB, x1=5)}, "embedding: unknown network node 5"),
])
def test_graph_and_embedding_messages(command, doc, line, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_argv(command, str(bad), tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


WRONG_TYPES = (5, "x", [], {}, None)


def _mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one field or list item dropped or given a wrong
    type, or one list grown or shrunk by an item."""
    doc = copy.deepcopy(doc)
    slots = []  # (container, key) of every value below the root

    def walk(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    lists = [node[key] for node, key in slots if isinstance(node[key], list) and node[key]]
    op = rng.choice(("drop", "retype", "resize"))
    if op == "resize" and lists:
        target = rng.choice(lists)
        if rng.random() < 0.5:
            target.pop()
        else:
            target.append(copy.deepcopy(target[-1]))
    else:
        node, key = rng.choice(slots)
        if op == "drop":
            del node[key]
        else:
            node[key] = rng.choice(WRONG_TYPES)
    return doc


def test_fuzzed_documents_never_raise(tmp_path):
    # bench configs are left to the explicit cases: a valid mutant can run for seconds
    rng = random.Random(20140)
    bad = tmp_path / "bad.json"
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, (fixture, _) in COMMANDS.items():
            if name.startswith("bench"):
                continue
            original = load_json(_state(tmp_path) if fixture == "STATE" else fx(fixture))
            for _ in range(30):
                doc = _mutate(original, rng)
                bad.write_text(json.dumps(doc))
                try:
                    codes.append(main(_argv(name, str(bad), tmp_path)))
                except Exception as exc:
                    pytest.fail(f"{name} raised {exc!r} on {fixture} mutated to {doc}")
    assert set(codes) <= {0, 2, 3, 4}
    assert 2 in codes


def _sink_source_network() -> dict:
    return _with("prodsum_net.json", sink="s1", allow_sink_source=True)


def test_network_round_trip():
    for doc in (load_json(fx("prodsum_net.json")), _sink_source_network()):
        nd = NetworkDoc.from_json(doc)
        assert nd.to_json() == doc


@pytest.mark.parametrize("name, net", [
    ("prodsum_cg", "prodsum_net"), ("prodsum_cg_sinkproc", "prodsum_net"),
    ("fanin_cg", "fanin_net"), ("ladder_cg", "ladder_net"), ("loop_cg", "loop_net"),
])
def test_computation_round_trip(name, net):
    n = NetworkDoc.from_json(load_json(fx(f"{net}.json"))).net.n
    cdoc = ComputationDoc.from_json(load_json(fx(f"{name}.json")), n)
    again = ComputationDoc.from_json(json.loads(json.dumps(cdoc.to_json())), n)
    assert again.names == cdoc.names
    a, b = again.cg, cdoc.cg
    assert (a.edges, a.sources, a.sink, a.is_dag) == (b.edges, b.sources, b.sink, b.is_dag)
    assert np.array_equal(a.processing, b.processing)


def _generated_rows(kind: str, p: int = 511, n: int = 64) -> list[list]:
    rng = random.Random(f"matrix/{kind}")
    odd = [2 ** 53 + 1, 2 ** 64 + 12345, 10 ** 300 + 7, 0.1, 1e-320, 1.7e308, -0.0]

    def cell(j):
        if kind == "int" or (kind == "mixed" and j % 2):
            return rng.choice((rng.randint(0, 9), rng.randint(0, 2 ** 70)))
        return rng.choice((rng.uniform(0, 9), float(rng.randint(0, 9)), rng.choice(odd[3:])))

    rows = [[0] * n] + [[cell(j) for j in range(n)] for _ in range(p - 1)]
    if kind == "mixed":
        rows[1][:len(odd)] = odd
    return rows


def _bundled_rows(name: str, net: str, as_int: bool) -> list[list]:
    n = NetworkDoc.from_json(load_json(fx(f"{net}.json"))).net.n
    rows = ComputationDoc.from_json(load_json(fx(f"{name}.json")), n).to_json()["processing"]
    rows = rows["matrix"]
    return [[int(x) if as_int and x.is_integer() else x for x in row] for row in rows]


@pytest.mark.parametrize("source", [
    *(f"{name}/{net}/{cells}" for name, net in (
        ("prodsum_cg", "prodsum_net"), ("prodsum_cg_sinkproc", "prodsum_net"),
        ("fanin_cg", "fanin_net"), ("ladder_cg", "ladder_net"), ("loop_cg", "loop_net"),
    ) for cells in ("float", "int")),
    "generated/int", "generated/float", "generated/mixed",
])
def test_processing_matrix_is_parsed_bit_identically(source):
    name, *rest = source.split("/")
    if name == "generated":
        rows = _generated_rows(rest[0])
    else:
        rows = _bundled_rows(name, rest[0], as_int=rest[1] == "int")
    doc = _chain_cg(rows)
    reference = np.array([[float(x) for x in row] for row in rows], dtype=float)
    proc = ComputationDoc.from_json(doc, len(rows[0])).cg.processing
    assert proc.shape == reference.shape and proc.dtype == np.float64
    assert proc.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cell", [True, "x", None, []])
def test_matrix_names_its_first_bad_cell(cell):
    rows = _generated_rows("mixed", p=6, n=8)
    rows[3][5] = cell
    rows[4][0] = "later"  # first in column-major order, second in row-major
    with pytest.raises(ValidationError) as exc:
        ComputationDoc.from_json(_chain_cg(rows), 8)
    assert str(exc.value) == f"processing: expected a number, got {cell!r}"


def test_cached_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    prodsum = ["--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json")]
    commands = [
        ["solve", "--objective", "mincost", "--method", "layered", *prodsum, "--out", "-"],
        ["eval", "--metric", "capdelay", *prodsum, "--embedding", fx("prodsum_emb_delay.json")],
        ["solve", "--objective", "fastest", *prodsum, "--out", "-"],  # argparse rejects it
        ["validate", *prodsum],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    capsys.readouterr()
    cached = [run(argv) for argv in commands]
    parser = cli._parser
    assert parser is not None
    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _ in cached] == [0, 0, 2, 0]
    monkeypatch.undo()
    assert cli._parser is parser
    assert cli.build_parser() is not cli.build_parser()


def test_perturb_state_of_a_sink_source_network(tmp_path):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(_sink_source_network()))
    assert main(["perturb", "--state", _state(tmp_path, str(net)),
                 "--edits", fx("prodsum_edits.json"), "--out", str(tmp_path / "out.json")]) == 0


def test_chained_perturb_equals_a_fresh_solve(tmp_path):
    state2 = tmp_path / "state2.json"
    edits2 = {"adds": [{"edge": ["sum23", "tap2", 2.0], "layer": 3},
                       {"edge": ["sum12", "tap", 0.5], "layer": 2}]}
    (tmp_path / "edits2.json").write_text(json.dumps(edits2))
    assert main(["perturb", "--state", _state(tmp_path), "--edits", fx("prodsum_edits.json"),
                 "--out", str(tmp_path / "emb1.json"), "--state-out", str(state2)]) == 0
    assert main(["perturb", "--state", str(state2), "--edits", str(tmp_path / "edits2.json"),
                 "--out", str(tmp_path / "emb2.json")]) == 0
    chained = load_json(str(tmp_path / "emb2.json"))

    ndoc = NetworkDoc.from_json(load_json(fx("prodsum_net.json")))
    cdoc = ComputationDoc.from_json(load_json(fx("prodsum_cg.json")), ndoc.net.n)
    _, cdoc = load_edits(load_json(fx("prodsum_edits.json")), cdoc)
    _, cdoc = load_edits(edits2, cdoc)
    # x1 x2 x3 sum12 sum23 prod out tap tap2
    ls = LayeredStructure(layer=(1, 1, 1, 2, 2, 3, 4, 3, 3))
    emb, cost, _ = min_cost_layered(cdoc.cg, ls, ndoc.net, apsp(ndoc.net))
    assert chained["cost"] == cost
    assert chained["map"] == {cdoc.names[w]: ndoc.names[v] for w, v in enumerate(emb.assignment)}


def test_warning_is_one_stderr_line(tmp_path, capsys):
    argv = ["perturb", "--state", _state(tmp_path), "--edits", fx("prodsum_edits.json"),
            "--out", str(tmp_path / "emb.json")]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # undo the suite's filter for the off-path warning
        assert main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: vertices [7] lie on no source-to-sink path\ncost = 34.0\n"
    )


class _CreatesMarker:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


def test_unpickling_state_file_runs_no_code(tmp_path, capsys):
    marker = tmp_path / "marker"
    state = tmp_path / "state.bin"
    state.write_bytes(pickle.dumps({"format_version": 2, "state": _CreatesMarker(str(marker))}))
    argv = ["perturb", "--state", str(state), "--edits", fx("prodsum_edits.json"),
            "--out", str(tmp_path / "out.json")]
    assert _one_error_line(argv, capsys) == 2
    assert not marker.exists()


def test_broken_state_files_exit_2(tmp_path, capsys):
    good = load_json(_state(tmp_path))
    text = json.dumps(good)
    p = len(good["layer"])
    broken = {
        "empty": b"",
        "truncated": text[: len(text) // 2].encode(),
        "binary": bytes(range(256)),
        "format-2 pickle": pickle.dumps({"format_version": 2, "network": good["network"]}),
        "format 2": json.dumps(dict(good, format_version=2)).encode(),
        "short layer": json.dumps(dict(good, layer=good["layer"][:-1])).encode(),
        "string layer": json.dumps(dict(good, layer=["1"] * p)).encode(),
        "layer past p": json.dumps(dict(good, layer=good["layer"][:-1] + [p + 1])).encode(),
        "sources": json.dumps(dict(good, network=dict(good["network"], sources=["s1"]))).encode(),
    }
    bad = tmp_path / "bad"
    argv = ["perturb", "--state", str(bad), "--edits", fx("prodsum_edits.json"),
            "--out", str(tmp_path / "out.json")]
    for what, data in broken.items():
        bad.write_bytes(data)
        assert _one_error_line(argv, capsys) == 2, what
    # well-typed, but not a layering of the computation
    bad.write_text(json.dumps(dict(good, layer=[1] * p)))
    assert _one_error_line(argv, capsys) == 4


def test_non_finite_link_weights_exit_2(tmp_path, capsys):
    # JSON reads NaN and Infinity; a NaN link weight must not reach apsp
    state = load_json(_state(tmp_path))
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "out.json")
    for w in (float("nan"), float("inf")):
        net = load_json(fx("prodsum_net.json"))
        net["edges"][0][2] = w
        bad.write_text(json.dumps(net))
        for argv in (
            ["validate", "--network", str(bad)],
            ["solve", "--objective", "mincost", "--method", "layered", "--network", str(bad),
             "--computation", fx("prodsum_cg.json"), "--out", out],
            ["eval", "--metric", "capdelay", "--network", str(bad), "--computation",
             fx("prodsum_cg.json"), "--embedding", fx("prodsum_emb_delay.json"), "--out", out],
        ):
            assert _one_error_line(argv, capsys) == 2, (w, argv[0])
        bad.write_text(json.dumps(dict(state, network=net)))
        argv = ["perturb", "--state", str(bad), "--edits", fx("prodsum_edits.json"), "--out", out]
        assert _one_error_line(argv, capsys) == 2, (w, "perturb")


def test_perturb_budget_judges_the_replan(tmp_path, capsys):
    (tmp_path / "none.json").write_text(json.dumps({"adds": []}))
    argv = ["perturb", "--state", _state(tmp_path), "--out", str(tmp_path / "o.json"),
            "--budget", "1", "--edits"]
    assert main(argv + [str(tmp_path / "none.json")]) == 0  # nothing to re-plan
    assert _one_error_line(argv + [fx("prodsum_edits.json")], capsys) == 3


def test_perturb_builds_the_bag_tables_once(tmp_path, monkeypatch):
    state = _state(tmp_path)
    solves = []

    def spy(*args):
        solves.append(args[1])  # the decomposition solved
        return solve_bags(*args)

    solve_bags = dagplace.solver_layered._solve_bags
    monkeypatch.setattr(dagplace.solver_layered, "_solve_bags", spy)
    assert main(["perturb", "--state", state, "--edits", fx("prodsum_edits.json"),
                 "--out", str(tmp_path / "o.json")]) == 0
    # one solve, of the edited graph: tap (7) joins prod (5) on layer 3
    assert [td.bags for td in solves] == [((0, 1, 2, 3, 4), (3, 4, 5, 7), (5, 6, 7))]


def test_solve_state_out_infers_the_layering_once(tmp_path, monkeypatch):
    # the state file stores the layering the solve used, not a second inference
    inferred, solved = [], []

    def spy(cg):
        inferred.append(infer_layering(cg))
        return inferred[-1]

    def solve_spy(cg, ls, *args, **kwargs):
        solved.append(ls)
        return min_cost_layered(cg, ls, *args, **kwargs)

    infer_layering = cli.infer_layering
    monkeypatch.setattr(cli, "infer_layering", spy)
    monkeypatch.setattr(cli, "min_cost_layered", solve_spy)
    state = _state(tmp_path)
    assert len(inferred) == 1 and solved == inferred
    assert json.loads(open(state).read())["layer"] == list(inferred[0].layer)


def test_perturb_checks_the_edits_before_the_budget(tmp_path, capsys):
    # layers 2 and 3 hold two free vertices each, so one bag table has
    # 60**4 > 10**7 cells; no table is built before the budget check
    names = [f"v{i}" for i in range(60)]
    net = {"nodes": names, "edges": [[a, b, 1.0] for a, b in zip(names, names[1:])],
           "sources": ["v0"], "sink": "v59"}
    cg = {"nodes": ["s", "a", "b", "c", "d", "t"],
          "edges": [["s", "a", 1.0], ["s", "b", 1.0], ["a", "c", 1.0], ["b", "d", 1.0],
                    ["c", "t", 1.0], ["d", "t", 1.0]],
          "sources": ["s"], "sink": "t", "processing": {"default": 1.0}}
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"format_version": 3, "network": net, "computation": cg,
                                 "layer": [1, 2, 2, 3, 3, 4]}))
    argv = ["perturb", "--state", str(state), "--out", str(tmp_path / "o.json"), "--edits"]
    for edge, layer, code, message in (
        (["c", "tap", 1.0], 9, 4, "error: edit layer 9 outside 1..4\n"),
        (["a", "d", 1.0], 2, 3,
         f"error: bag table of {60 ** 4} cells exceeds the budget of 10000000\n"),
    ):
        (tmp_path / "edits.json").write_text(
            json.dumps({"adds": [{"edge": edge, "layer": layer}]}))
        assert main(argv + [str(tmp_path / "edits.json")]) == code
        assert capsys.readouterr().err == message


def test_binary_network_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "net.bin"
    bad.write_bytes(bytes(range(256)))
    assert _one_error_line(["validate", "--network", str(bad)], capsys) == 2


def test_validate_computation_alone():
    assert main(["validate", "--computation", fx("prodsum_cg.json")]) == 0
    assert main(["validate", "--computation", fx("prodsum_cg.json"), "--n", "-1"]) == 2
    assert main(["validate"]) == 2


@pytest.mark.parametrize("command", ["validate", "layered"])
def test_matrix_with_a_non_zero_source_row_exits_2(command, tmp_path, capsys):
    # prodsum's sources x1..x3 are its first rows; the network has 8 nodes
    rows = [[0.0] * 8 for _ in range(7)]
    rows[1][5] = 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with("prodsum_cg.json", processing={"matrix": rows})))
    capsys.readouterr()
    assert main(_argv(command, str(bad), tmp_path)) == 2
    assert capsys.readouterr() == ("", "error: processing of a source must be zero\n")


def test_network_and_computation_need_the_same_source_count(tmp_path, capsys):
    # fanin has four sources, the prodsum network three
    mismatched = ["--network", fx("prodsum_net.json"), "--computation", fx("fanin_cg.json")]
    for argv in (
        ["validate"],
        ["solve", "--objective", "mindelay", "--method", "tree", "--out", str(tmp_path / "o.json")],
        ["eval", "--metric", "delay", "--embedding", fx("fanin_emb.json")],
    ):
        assert main([*argv, *mismatched]) == 2
        assert capsys.readouterr().err == "error: network has 3 sources, computation 4\n"


def test_eval_to_stdout(capsys):
    assert main([
        "eval", "--metric", "cost",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--embedding", fx("prodsum_emb_cost.json"),
    ]) == 0
    out = capsys.readouterr().out
    assert '"cost": 34.0' in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_bench_link_usage_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 10, "p_r_grid": [0.5, 1.0], "instances": 1, "placements": 2,
        "p": 5, "master_seed": 3,
    }))
    csv = tmp_path / "out.csv"
    assert main(["bench", "link-usage", "--config", str(cfg), "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "p_r,mean,median,trials"
    assert len(lines) == 3


def test_bench_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 14, "p_r_grid": [0.25], "instances": 2, "placements": 2,
        "p": 7, "master_seed": 3,
    }))
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(["bench", "link-usage", "--config", str(cfg), "--csv", str(a)]) == 0
    assert main(["bench", "link-usage", "--config", str(cfg), "--csv", str(b),
                 "--seed", "3"]) == 0
    assert main(["bench", "link-usage", "--config", str(cfg), "--csv", str(c),
                 "--seed", "4"]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_bench_k2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 4, "p_r_grid": [0.8], "instances": 5, "placements": 1,
        "p": 5, "master_seed": 3, "layers": 3, "width": 2, "xi_lo": 0, "xi_hi": 2,
    }))
    csv = tmp_path / "out.csv"
    assert main(["bench", "k2-gap", "--config", str(cfg), "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("instance,k,ratio,bound")
