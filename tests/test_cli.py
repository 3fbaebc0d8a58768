import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import genstruct
from genstruct.cli import BUILD_CLASSES, _to_dot, main
from genstruct.structures import dumps, validate_structure, GRAPH_SIG
from genstruct.classes import chain_structure, chain_of
from genstruct.structures import from_json_dict


def graph_json(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return dumps(validate_structure(GRAPH_SIG, set(universe), {"E": rel}))


def run(*argv):
    return main(list(argv))


def child_env(**extra):
    """Environment for a child interpreter that imports the same genstruct
    as this test run, whether or not PYTHONPATH names `src`."""
    src = str(Path(genstruct.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_build_graph_ok(tmp_path: Path):
    out = tmp_path / "g.json"
    code = run("build", "--class", "Graph", "--n", "5", "--steps", "200",
               "--seed", "7", "--verify", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"class", "final", "log"}
    assert data["log"][0].startswith("step=0 req=")


def test_build_empty_order(tmp_path: Path):
    out = tmp_path / "o.json"
    assert run("build", "--class", "LinearOrder", "--n", "0", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["final"]["universe"] == []


def test_build_unknown_class():
    assert run("build", "--class", "Nonsense") == 2


def test_build_rejects_negative_alpha0(capsys):
    assert run("build", "--class", "AutOrder", "--n", "3", "--alpha0", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "alpha0" in captured.err


def _step_lines(caplog):
    """The step lines logged by the forcing loop itself, as it runs."""
    return [r.getMessage() for r in caplog.records
            if r.name == "genstruct" and r.funcName == "generic_build"]


def test_debug_log_streams_graph_build_steps(tmp_path: Path, caplog):
    caplog.set_level(logging.DEBUG, logger="genstruct")
    out = tmp_path / "g.json"
    assert run("build", "--class", "Graph", "--n", "3", "--seed", "2", "--out", str(out)) == 0
    assert _step_lines(caplog) == json.loads(out.read_text())["log"]


def test_debug_log_streams_autorder_build_steps(tmp_path: Path, caplog):
    caplog.set_level(logging.DEBUG, logger="genstruct")
    out = tmp_path / "a.json"
    assert run("build", "--class", "AutOrder", "--n", "3", "--seed", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    lines = _step_lines(caplog)
    assert [line.split()[0] for line in lines] == [f"step={i}" for i in range(len(lines))]
    added = {int(x) for line in lines for x in line.split("added=")[1].split(",") if x}
    assert added == set(data["universe"])
    last_met = max(int(line.split("met_at=")[1]) for line in data["log"])
    assert 0 <= last_met < len(lines)


def test_build_autorder_verify(tmp_path: Path):
    out = tmp_path / "a.json"
    code = run("build", "--class", "AutOrder", "--n", "4", "--seed", "5",
               "--verify", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert "phi" in data and data["log"]


def test_build_determinism(tmp_path: Path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("build", "--class", "Graph", "--n", "4", "--seed", "21",
                   "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_dot_format(tmp_path: Path):
    out = tmp_path / "o.dot"
    assert run("build", "--class", "AutOrder", "--n", "3", "--seed", "2",
               "--format", "dot", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("digraph") and "style=dashed" in text


def test_dot_keeps_both_arcs_of_a_digraph_two_cycle():
    rel = {(0, 1), (1, 0), (1, 2)}
    body = json.loads(dumps(validate_structure(GRAPH_SIG, {0, 1, 2}, {"E": rel})))
    arcs = [line for line in _to_dot({"final": body}, "Digraph").splitlines() if "->" in line]
    assert arcs == [
        '  "0" -> "1" [label="E"];',
        '  "1" -> "0" [label="E"];',
        '  "1" -> "2" [label="E"];',
    ]


def test_dot_draws_each_graph_edge_once():
    body = json.loads(graph_json({0, 1, 2}, [(0, 1), (1, 2)]))
    arcs = [line for line in _to_dot({"final": body}, "Graph").splitlines() if "->" in line]
    assert arcs == ['  "0" -> "1" [label="E"];', '  "1" -> "2" [label="E"];']


def test_check_extension_pass_and_fail(tmp_path: Path):
    built = tmp_path / "m.json"
    assert run("build", "--class", "Graph", "--n", "5", "--seed", "0",
               "--out", str(built)) == 0
    final = tmp_path / "final.json"
    final.write_text(json.dumps(json.loads(built.read_text())["final"]))
    report = tmp_path / "report.json"
    assert run("check", "--class", "Graph", "--check", "extension",
               "--in", str(final), "--k", "2", "--out", str(report)) == 0

    edgeless = tmp_path / "edgeless.json"
    edgeless.write_text(graph_json({0, 1, 2}, []))
    code = run("check", "--class", "Graph", "--check", "extension",
               "--in", str(edgeless), "--k", "2", "--out", str(report))
    assert code == 1
    rows = json.loads(report.read_text())
    assert any(not row["verdict"] for row in rows)


def test_check_parse_error(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("check", "--class", "Graph", "--check", "extension", "--in", str(bad)) == 2


def test_check_density(tmp_path: Path):
    order = tmp_path / "order.json"
    order.write_text(dumps(chain_structure([0, 5, 1])))
    assert run("check", "--class", "LinearOrder", "--check", "density",
               "--in", str(order), "--ids", "5") == 1  # (0,5) and (5,1) gaps fail


def test_amalgamate_class_documented_chain(tmp_path: Path):
    base = tmp_path / "base.json"
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    base.write_text(dumps(chain_structure([0])))
    left.write_text(dumps(chain_structure([0, 1])))
    right.write_text(dumps(chain_structure([0, 2])))
    out = tmp_path / "am.json"
    code = run("amalgamate", "--op", "class", "--class", "LinearOrder",
               "--left", str(left), "--right", str(right), "--base", str(base),
               "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert chain_of(from_json_dict(data["result"])) == [0, 2, 1]
    assert data["left_map"] == [[0, 0], [1, 1]]


def test_amalgamate_free_join(tmp_path: Path):
    base = tmp_path / "base.json"
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    base.write_text(graph_json(set(), []))
    left.write_text(graph_json({0, 1}, [(0, 1)]))
    right.write_text(graph_json({5}, []))
    out = tmp_path / "am.json"
    assert run("amalgamate", "--op", "class", "--class", "Graph",
               "--left", str(left), "--right", str(right), "--base", str(base),
               "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["result"]["universe"]) == 3


def test_amalgamate_same_orbit_exit_code(tmp_path: Path, capsys):
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    l = json.loads(dumps(chain_structure([0, 1])))
    l["phi"] = [[0, 1]]
    left.write_text(json.dumps(l))
    r = json.loads(dumps(chain_structure([2, 3])))
    r["phi"] = [[2, 3]]
    right.write_text(json.dumps(r))
    code = run("amalgamate", "--op", "auto", "--left", str(left),
               "--right", str(right), "--a", "0", "--b", "1")
    assert code == 4
    assert "SameOrbit" in capsys.readouterr().err


def test_amalgamate_auto_ok(tmp_path: Path):
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(json.dumps(dict(json.loads(dumps(chain_structure([0, 1]))), phi=[])))
    right.write_text(json.dumps(dict(json.loads(dumps(chain_structure([2, 3]))), phi=[])))
    out = tmp_path / "am.json"
    assert run("amalgamate", "--op", "auto", "--left", str(left),
               "--right", str(right), "--a", "0", "--b", "1",
               "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["universe"] == [0, 1, 2, 3]


def test_amalgamate_crossing(tmp_path: Path):
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(graph_json({0, 1}, []))
    right.write_text(graph_json({2, 3}, []))
    out = tmp_path / "am.json"
    assert run("amalgamate", "--op", "crossing", "--class", "Graph",
               "--left", str(left), "--right", str(right),
               "--points", "0,1,2,3", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["result"]["interp"]["E"] == [[0, 2], [2, 0]]


def test_build_metric_and_check_universality(tmp_path: Path):
    out = tmp_path / "m.json"
    assert run("build", "--class", "RationalMetric", "--n", "2", "--seed", "4",
               "--verify", "--out", str(out)) == 0
    final = tmp_path / "final.json"
    final.write_text(json.dumps(json.loads(out.read_text())["final"]))
    assert run("check", "--class", "RationalMetric", "--check", "universality",
               "--in", str(final), "--k", "2") == 0


def test_check_homogeneity(tmp_path: Path):
    m = tmp_path / "m.json"
    m.write_text(graph_json({0, 1, 2}, [(0, 1)]))
    report = tmp_path / "r.json"
    code = run("check", "--class", "Graph", "--check", "homogeneity",
               "--in", str(m), "--k", "1", "--out", str(report))
    assert code in (0, 1)
    rows = json.loads(report.read_text())
    assert rows and set(rows[0]) == {"item", "verdict", "witness"}


def test_module_entry_point_subprocess(tmp_path: Path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "genstruct.cli", "build", "--class", "Graph",
         "--n", "3", "--seed", "1", "--verify", "--out", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["class"] == "Graph"


# sha256 of the stdout of `build --class C --n 3 --seed 3 --ext-size 2
# --verify`, recorded before the classes moved to one ClassSpec each. A
# mismatch means build output bytes changed.
BUILD_DIGESTS = {
    "Graph": "b02913d2f2e92d5899763efbda63d3667fc3e99c5659533aa383b004d9f126ab",
    "Digraph": "13769ca854916d043e2b179c69c54bb82f0fb36e06820eebdeec8825751783d8",
    "Tournament": "887d059e5f333df240b508a0d35cdf8fb9d66320daf927b5ec262c040dd178af",
    "LinearOrder": "b0350b12b444c11b510340f90465393b5679ffa66691ad13a56c1ca1fc50e44f",
    "PartialOrder": "58590735dc7a3afa166a1e26a6068473af05a0a408ad70fffdda0309dc18493a",
    "RationalMetric": "5009b5f702d2208544801078d716d502159a63f4e8b0dfa46157f56acf6214b7",
    "LinearGraph": "274ed299946bb4a0cd87e18d2f487ecc90b6939383712f3d323c6006339422dc",
    "AutOrder": "64f8007a9b19a5ba6278e4fed791634f1f2c16103a4775a5d3b062c2a8eb1da6",
}


def test_build_bytes_independent_of_hash_seed():
    assert set(BUILD_DIGESTS) == set(BUILD_CLASSES)
    for tag in BUILD_CLASSES:
        argv = [sys.executable, "-m", "genstruct.cli", "build", "--class", tag,
                "--n", "3", "--seed", "3", "--ext-size", "2", "--verify"]
        procs = [
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=child_env(PYTHONHASHSEED=seed))
            for seed in ("1", "2")
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, (tag, err.decode())
            outputs.append(out)
        assert outputs[0] == outputs[1], tag
        assert hashlib.sha256(outputs[0]).hexdigest() == BUILD_DIGESTS[tag], tag


# sha256 of the stdout of order builds, recorded before linear orders and
# AutConditions cached their chain, positions and maps.
ORDER_BUILD_DIGESTS = {
    "build --class LinearOrder --n 25 --seed 0 --verify":
        "e6fcc79bd218c0357453e8a08f9f36a660d842e7cfc291343cfe1094b6064372",
    "build --class AutOrder --n 45 --seed 0 --verify":
        "47beb503a432e53780b87af13f7fc10b04618c7164872b1242d4f93983902260",
    "build --class LinearOrder --n 6 --seed 1 --format dot":
        "0985b27b95f12f5e13a52b1729911c6a00296076629896bf7649c6c69c06e964",
}


def test_order_build_bytes_pinned(capsys):
    for command, digest in ORDER_BUILD_DIGESTS.items():
        assert run(*command.split()) == 0, command
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, command
