import json
import pathlib

import pytest

from dagplace.cli import NetworkDoc, load_json, main
from dagplace.fixtures import fixture_documents

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name) -> str:
    return str(FIXTURES / name)


def test_shipped_fixtures_match_builders():
    for name, doc in fixture_documents().items():
        assert load_json(fx(name)) == doc, name


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
    state = tmp_path / "state.bin"
    emb = tmp_path / "emb.json"
    code = main([
        "solve", "--objective", "mincost", "--method", "layered",
        "--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json"),
        "--out", str(emb), "--state-out", str(state),
    ])
    assert code == 0
    out = tmp_path / "emb2.json"
    state2 = tmp_path / "state2.bin"
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


@pytest.mark.parametrize("command, doc", [
    ("perturb", {"adds": [{"edge": ["prod", "tap"], "layer": 3}]}),
    ("eval", {"map": [["x1", "s1"], ["out", "t"]]}),
    ("validate", {"nodes": ["a", "b"], "edges": [["a", "b", 1.0]], "sources": ["a"],
                  "sink": "b", "processing": {"matrix": [1]}}),
])
def test_malformed_documents_exit_2_with_one_line(command, doc, tmp_path, capsys):
    bad, out, state = tmp_path / "bad.json", str(tmp_path / "o.json"), str(tmp_path / "s.bin")
    bad.write_text(json.dumps(doc))
    prodsum = ["--network", fx("prodsum_net.json"), "--computation", fx("prodsum_cg.json")]
    assert main(["solve", "--objective", "mincost", "--method", "layered", *prodsum,
                 "--out", out, "--state-out", state]) == 0
    argv = {
        "perturb": ["perturb", "--state", state, "--edits", str(bad), "--out", out],
        "eval": ["eval", "--metric", "cost", *prodsum, "--embedding", str(bad), "--out", out],
        "validate": ["validate", "--computation", str(bad)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_network_round_trip():
    doc = load_json(fx("prodsum_net.json"))
    nd = NetworkDoc.from_json(doc)
    assert nd.to_json() == doc


def test_validate_computation_alone():
    assert main(["validate", "--computation", fx("prodsum_cg.json")]) == 0
    assert main(["validate"]) == 2


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
