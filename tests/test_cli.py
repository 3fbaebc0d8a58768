import hashlib
import json
import logging
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import genstruct
from genstruct import classes
from genstruct.cli import (
    BROKEN_PIPE,
    BUILD_CLASSES,
    MAX_SCHEDULE,
    _to_dot,
    default_schedule,
    main,
    schedule_length,
)
from genstruct.autorder import default_aut_schedule
from genstruct.structures import dumps, validate_structure, GRAPH_SIG
from genstruct.classes import TAGS, chain_structure, chain_of
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
            if r.name == "genstruct" and r.funcName == "generic_steps"]


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


def test_one_parser_serves_every_call(capsys):
    from genstruct import cli

    assert cli._parser() is cli._parser()
    for _ in range(2):  # a usage error leaves the shared parser as it was
        assert run("build") == 2
        assert "--class" in capsys.readouterr().err
        assert run("build", "--class", "Graph", "--n", "1", "--steps", "1") == 0
        assert json.loads(capsys.readouterr().out)["class"] == "Graph"


# Structure files that cannot be read as a structure.  Those of the wrong
# JSON shape were each once a traceback with exit 1 (the code for a failed
# check) or, for the bool, accepted and echoed; all once left `amalgamate`
# with exit 4, the code for a precondition violation.  A list or an object
# as a symbol name or universe element was hashed before its type was
# checked, a traceback with exit 1; a number as a name failed later, as a
# SignatureMismatch.
MALFORMED = {
    "string arity": '{"sig":[["E","2"]],"universe":[0,1],"interp":{"E":[]}}',
    "universe not a list": '{"sig":[["E",2]],"universe":5,"interp":{"E":[]}}',
    "interp not an object": '{"sig":[["E",2]],"universe":[0,1],"interp":[]}',
    "tuple not a list": '{"sig":[["E",2]],"universe":[0,1],"interp":{"E":[0]}}',
    "not an object": '[1]',
    "bool element": '{"sig":[["E",2]],"universe":[true,0],"interp":{"E":[]}}',
    "bool in a tuple": '{"sig":[["E",2]],"universe":[0,1],"interp":{"E":[[0,true],[true,0]]}}',
    "tuple outside the universe": '{"sig":[["E",2]],"universe":[0,1],"interp":{"E":[[0,2],[2,0]]}}',
    "list name": '{"sig":[[["E"],2]],"universe":[0,1],"interp":{"E":[]}}',
    "number name": '{"sig":[[5,2]],"universe":[0,1],"interp":{}}',
    "list element": '{"sig":[["E",2]],"universe":[[0]],"interp":{"E":[]}}',
    "object element": '{"sig":[["E",2]],"universe":[{"a":1}],"interp":{"E":[]}}',
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_structure_files_are_rejected(tmp_path: Path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run("check", "--class", "Graph", "--check", "extension", "--k", "1", "--in", str(bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cannot read input: ")
    for op, args in {"class": ["--class", "Graph", "--base", str(bad)], "auto": ["--a", "0", "--b", "1"]}.items():
        assert run("amalgamate", "--op", op, "--left", str(bad), "--right", str(bad), *args) == 2, op
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("cannot read input: "), op


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


def test_amalgamate_metric_sides_over_other_distances(tmp_path: Path, capsys):
    # The base has distance 1 only, the left side distances 1 and 2: the base
    # is still an induced part of it, as the search reads metric signatures.
    def metric(dist):
        return classes.metric_structure({x for p in dist for x in p}, {frozenset(p): Fraction(d) for p, d in dist.items()})

    files = {
        "base": metric({(0, 1): 1}),
        "left": metric({(0, 1): 1, (0, 2): 2, (1, 2): 1}),
        "right": metric({(0, 1): 1, (0, 3): 1, (1, 3): 1}),
        "far": metric({(0, 1): 2}),
    }
    for role, m in files.items():
        (tmp_path / f"{role}.json").write_text(dumps(m))
    argv = ["amalgamate", "--op", "class", "--class", "RationalMetric", "--left", str(tmp_path / "left.json"),
            "--right", str(tmp_path / "right.json"), "--out", str(tmp_path / "am.json")]
    assert run(*argv, "--base", str(tmp_path / "base.json")) == 0
    result = from_json_dict(json.loads((tmp_path / "am.json").read_text())["result"])
    assert classes.membership("RationalMetric", result)
    assert classes.metric_distances(result)[frozenset((2, 3))] == 2
    assert run(*argv, "--base", str(tmp_path / "far.json")) == 4
    assert "source is not an induced substructure of target" in capsys.readouterr().err


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


@pytest.mark.parametrize("phi", ([1, 2], 5, None, [[False, 1]], [[0, 1, 2]], [[0.0, 1]]),
                         ids=("flat", "int", "null", "bool", "triple", "float"))
def test_amalgamate_auto_rejects_a_malformed_phi(tmp_path: Path, capsys, phi):
    # With phi [[0, 1]] on the left this amalgam exists; a bool or float
    # phi used to be read as 0 and written back as given.
    left, right = tmp_path / "l.json", tmp_path / "r.json"
    left.write_text(json.dumps(dict(json.loads(dumps(chain_structure([0, 1, 2, 4]))), phi=phi)))
    right.write_text(json.dumps(dict(json.loads(dumps(chain_structure([0, 1, 3, 5]))), phi=[[0, 1]])))
    argv = ("amalgamate", "--op", "auto", "--left", str(left), "--right", str(right), "--a", "2", "--b", "4")
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cannot read input: phi must be a list of [x, y] pairs of ints\n"
    left.write_text(json.dumps(dict(json.loads(dumps(chain_structure([0, 1, 2, 4]))), phi=[[0, 1]])))
    assert run(*argv) == 0


@pytest.mark.parametrize("pairs", ([[0, 1]], [[0, 1], [1, 0], [0, 2], [1, 2]]), ids=("not total", "2-cycle"))
def test_amalgamate_auto_rejects_an_order_that_is_not_linear(tmp_path: Path, capsys, pairs):
    # The first was once read by in-degree as the chain 0 < 2 < 1, and its
    # amalgam with a three-point chain held the pair (2, 1).
    left, right = tmp_path / "l.json", tmp_path / "r.json"
    left.write_text(json.dumps({"sig": [["<", 2]], "universe": [0, 1, 2], "interp": {"<": pairs}, "phi": []}))
    right.write_text(json.dumps(dict(json.loads(dumps(chain_structure([0, 1, 2]))), phi=[])))
    argv = ("amalgamate", "--op", "auto", "--left", str(left), "--right", str(right), "--a", "1", "--b", "2")
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cannot read input: < must be a linear order\n"


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


def test_amalgamate_rejects_unknown_class(tmp_path: Path, capsys):
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(graph_json({0, 1}, []))
    right.write_text(graph_json({0, 2}, []))
    extra = {"class": ["--base", str(left)], "crossing": ["--points", "0,1,0,2"]}
    for op, args in extra.items():
        assert run("amalgamate", "--op", op, "--class", "Nonsense",
                   "--left", str(left), "--right", str(right), *args) == 2, op
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unknown class 'Nonsense'\n", op


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


# sha256 of the stdout of extension builds, recorded before the forcing step
# glued extensions directly instead of going through `amalgamate`.
EXTENSION_BUILD_DIGESTS = {
    "build --class Graph --n 5 --seed 7 --verify":
        "b40630cc041f7595632571cab00dfa3e30754e65d42e4bb6ca7dc39352fd8d5a",
    "build --class Tournament --n 5 --seed 2 --verify":
        "f1e269a24fce5c973ae82782b3db93581d58125fcc7489685a181dc18dae178f",
    "build --class Digraph --n 2 --seed 1 --verify":
        "0d013fa6a4ddc3a6c01a81ee1ba7220a536288b71dff6fa831e20b4a7e75fc56",
    "build --class PartialOrder --n 3 --seed 1 --verify":
        "fa5db6aeeb41bc7f11162a773f84a09472d5a238f45a709526427f61dcf36afb",
    "build --class RationalMetric --n 1 --seed 1 --verify":
        "5174561e11bfc3d61d397d4ee4ac43e86d187ca0652bc32d1fd5ddde63742bfa",
}


def test_extension_build_bytes_pinned(capsys):
    for command, digest in EXTENSION_BUILD_DIGESTS.items():
        assert run(*command.split()) == 0, command
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, command


# sha256 of the stdout of outputs that hang on a class decision (chain or
# edge drawing, connectivity requirements), recorded before those decisions
# moved into the ClassSpec table.
SPEC_DECISION_DIGESTS = {
    "build --class AutOrder --n 6 --seed 1 --format dot":
        "05bfdbec8869dda9dfa028fee64e01fb7627dea719c839d378c99adbd41c066b",
    "build --class PartialOrder --n 4 --seed 1 --format dot":
        "f42cb2ad586c50d119c517880847185874b3ed7ea9383eaf9eb7453cabab49e9",
    "build --class LinearGraph --n 6 --seed 1 --format dot":
        "73d3a157afc0463b07517124d8ee7a565720badfe264a022de6999510006e2b6",
    "build --class Graph --n 4 --seed 1 --format dot":
        "30d5659cf6b1d2e89beb385461ea3a0581d52396797b34d5bc5a488764831e68",
    "build --class LinearGraph --n 10 --seed 0 --verify":
        "37e1619f9b53c1c4f543aef494cfd22977546a9e8f67aec9621818683921dc1f",
}


def test_spec_decision_bytes_pinned(capsys):
    for command, digest in SPEC_DECISION_DIGESTS.items():
        assert run(*command.split()) == 0, command
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, command


def test_crossing_bytes_pinned(tmp_path: Path, capsys):
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(dumps(chain_structure([1, 0, 2])))
    right.write_text(dumps(chain_structure([3, 0, 4])))
    assert run("amalgamate", "--op", "crossing", "--class", "LinearOrder",
               "--left", str(left), "--right", str(right),
               "--root", "0", "--points", "1,2,3,4") == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "4a28361be67aa32e9b3bb1e8d1186a0168f42c8e4659847854cfe784b03a8796")

    left.write_text(dumps(validate_structure(GRAPH_SIG, {0, 1}, {"E": {(0, 1)}})))
    right.write_text(dumps(validate_structure(GRAPH_SIG, {2, 3}, {"E": {(2, 3)}})))
    assert run("amalgamate", "--op", "crossing", "--class", "Tournament",
               "--left", str(left), "--right", str(right), "--points", "0,1,2,3") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "StructureError: crossing amalgamation supports Graph and LinearOrder\n"


def test_build_rejects_ext_size_outside_enumeration_range(capsys):
    for tag in ("Graph", "LinearOrder", "AutOrder"):
        for size in ("7", "-1"):
            assert run("build", "--class", tag, "--n", "3", "--ext-size", size) == 2, (tag, size)
            captured = capsys.readouterr()
            assert captured.out == "" and "ext-size" in captured.err
    assert run("build", "--class", "Graph", "--n", "2", "--ext-size", "0") == 0


def test_schedule_length_counts_the_default_schedule():
    for tag in TAGS:
        for n in range(5):
            for ext_size in range(4):
                assert schedule_length(tag, n, ext_size) == len(default_schedule(tag, n, ext_size))
    for n in range(5):
        for alpha0 in range(6):
            assert schedule_length("AutOrder", n, 3, alpha0) == len(default_aut_schedule(n, alpha0))
    # 30 points plus 110,138 extension requirements: under the cap.
    assert schedule_length("Graph", 30, 3) == 110_168 <= MAX_SCHEDULE


def test_build_rejects_a_schedule_over_the_cap(capsys):
    # AutOrder --n 2000: 4 * 2000 + C(2000, 2) requirements, counted, not built.
    cases = {("Digraph", "16", "4"): "12,847,167", ("Graph", "30", "4"): "8,475,679",
             ("Digraph", "50", "3"): "2,009,371", ("AutOrder", "2000", "3"): "2,007,000"}
    for (tag, n, ext_size), count in cases.items():
        assert run("build", "--class", tag, "--n", n, "--ext-size", ext_size) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schedule has at least {count} requirements, over the cap of 1,000,000\n"


def _amalgamate_inputs(tmp_path: Path) -> tuple[str, str, str]:
    """Two order-with-map files, [0, 1] and [2, 3] with empty maps, and an
    empty base: every op amalgamates them."""
    paths = [tmp_path / name for name in ("l.json", "r.json", "base.json")]
    for path, seq in zip(paths, ([0, 1], [2, 3], [])):
        path.write_text(json.dumps(dict(json.loads(dumps(chain_structure(seq))), phi=[])))
    return tuple(str(path) for path in paths)


def _rejects_unused(capsys, op: str, needed: list[str], unused: dict[str, str], sides) -> None:
    argv = ["amalgamate", "--op", op, "--left", sides[0], "--right", sides[1], *needed]
    assert run(*argv) == 0
    capsys.readouterr()
    for option, value in unused.items():
        assert run(*argv, option, value) == 2, option
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--op {op} does not take {option}\n"


def test_amalgamate_class_rejects_unused_options(tmp_path: Path, capsys):
    left, right, base = _amalgamate_inputs(tmp_path)
    needed = ["--class", "LinearOrder", "--base", base]
    _rejects_unused(capsys, "class", needed,
                    {"--root": "0", "--points": "0,1,2,3", "--a": "0", "--b": "1"}, (left, right))


def test_amalgamate_crossing_rejects_unused_options(tmp_path: Path, capsys):
    left, right, base = _amalgamate_inputs(tmp_path)
    needed = ["--class", "LinearOrder", "--points", "0,1,2,3"]
    _rejects_unused(capsys, "crossing", needed, {"--base": base, "--a": "0", "--b": "1"},
                    (left, right))


def test_amalgamate_auto_rejects_unused_options(tmp_path: Path, capsys):
    left, right, base = _amalgamate_inputs(tmp_path)
    needed = ["--a", "0", "--b", "1"]
    _rejects_unused(capsys, "auto", needed,
                    {"--class": "LinearOrder", "--base": base, "--root": "", "--points": "0,1,2,3"},
                    (left, right))


def test_check_rejects_negative_k(tmp_path: Path, capsys):
    m = tmp_path / "m.json"
    m.write_text(graph_json({0, 1}, [(0, 1)]))
    for verifier in ("extension", "universality", "homogeneity"):
        assert run("check", "--class", "Graph", "--check", verifier,
                   "--in", str(m), "--k", "-1") == 2, verifier
        captured = capsys.readouterr()
        assert captured.out == "" and "k must be nonnegative" in captured.err


def test_check_rejects_non_integer_density_ids(tmp_path: Path, capsys):
    order = tmp_path / "order.json"
    order.write_text(dumps(chain_structure([0, 5, 1])))
    assert run("check", "--class", "LinearOrder", "--check", "density",
               "--in", str(order), "--ids", "a") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--ids" in captured.err


# sha256 and exit code of the stdout of `check` on the final structure of a
# build, recorded before embedding search moved to per-target bitsets (the
# universality rows: before the verifiers moved to `placements`). The
# metric build pads its distance symbols (many are empty on one side) and
# the poset's `<` is dense; no `check` item of the benchmark covers either class.
CHECK_DIGESTS = {
    ("build --class RationalMetric --n 1 --seed 0", "extension", "2"):
        (1, "52440c1bee0898c64c8311092d6eafb78996cb2550a94708cf944d173bd16c38"),
    ("build --class RationalMetric --n 1 --seed 0", "homogeneity", "1"):
        (1, "8f7e36716e4c3cedcca448da93e89b4071e5ea59f8b82f1a8ee1d824d46ee151"),
    ("build --class PartialOrder --n 3 --ext-size 2 --seed 0", "extension", "2"):
        (1, "edb835c78249d95f55df18ebeeb70a1cfc33dc882a4c541fbf74e34ac9d57e1d"),
    ("build --class PartialOrder --n 3 --ext-size 2 --seed 0", "homogeneity", "1"):
        (1, "e2eee63474e24eadddbf952ed422d018e69bd784aa18465e67c22d46ab2ffc05"),
    # k=2 on a directed relation whose reverse is a second link, and on a dense order.
    ("build --class Tournament --n 4 --seed 1", "homogeneity", "2"):
        (1, "ed92ee2dadcd8224693c0e6231bacaed5903622a9c01d694cea94edcd5f1f36f"),
    ("build --class PartialOrder --n 3 --ext-size 2 --seed 0", "homogeneity", "2"):
        (1, "a7e6949471ad394418206b9d5dc9bd35ef7cbe1281ca2bca881e5d0c8eb4811c"),
    ("build --class RationalMetric --n 1 --seed 0", "universality", "3"):
        (0, "936f39d1c7e44244b788f67fd5c2b220595a50c25de3f6fd0bfd3033e1a464ea"),
    ("build --class PartialOrder --n 3 --ext-size 2 --seed 0", "universality", "3"):
        (1, "2aa9748f090e0300508e858fafb74c9809de530f0a7a0ea69e5d9ded2fed44bd"),
}


# The RationalMetric n=2 seed 4 build of the CI smoke step, and two checks on
# its final structure: sha256 of stdout and exit code, as the CI step pins
# them. Its metric spaces rarely share a signature; the search reads two of
# them over the union of their symbols, so no padded copy is made
# (`classes._align_signature`). Padding search inputs made 305 copies in the
# build and 67 in the checks.
METRIC_BUILD = ("build --class RationalMetric --n 2 --seed 4 --verify",
                "0d93516310a135d56accafb21fcf7c6b1bb619e6f8aeab4b78a9c15ff654d6eb")
METRIC_CHECKS = {
    ("extension", "2"): (1, "eb64efdbf4eabb7b36e97dc3b43598b774e3bbc1f837824f464b7f7dddc59e3d"),
    ("universality", "4"): (1, "19275b153597faa26e9845dcfa9ca202cff77a6ce5cd33eb59fe55ee38736d91"),
}


def test_metric_build_and_checks_pad_no_copy(tmp_path: Path, capsys, monkeypatch):
    copies = []
    pad = classes._align_signature
    monkeypatch.setattr(classes, "_align_signature", lambda a, sig: copies.append(sig) or pad(a, sig))
    command, digest = METRIC_BUILD
    assert run(*command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    final = tmp_path / "final.json"
    final.write_text(json.dumps(json.loads(out)["final"]))
    for (verifier, k), (code, digest) in METRIC_CHECKS.items():
        assert run("check", "--class", "RationalMetric", "--check", verifier, "--k", k, "--in", str(final)) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, verifier
    assert copies == []


def test_check_bytes_pinned(tmp_path: Path, capsys):
    finals: dict[str, Path] = {}
    for (command, verifier, k), (code, digest) in CHECK_DIGESTS.items():
        if command not in finals:
            assert run(*command.split()) == 0, command
            finals[command] = tmp_path / f"final{len(finals)}.json"
            finals[command].write_text(json.dumps(json.loads(capsys.readouterr().out)["final"]))
        tag = command.split()[2]
        assert run("check", "--class", tag, "--check", verifier, "--k", k,
                   "--in", str(finals[command])) == code, (command, verifier)
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, (command, verifier)


def test_check_stops_quietly_when_the_reader_goes_away(tmp_path: Path):
    # Homogeneity k=2 on 12 points writes megabytes, far past a pipe's buffer.
    m = tmp_path / "m.json"
    m.write_text(graph_json(range(12), [(x, (x * 5 + 1) % 12) for x in range(12)]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "genstruct.cli", "check", "--class", "Graph",
         "--check", "homogeneity", "--k", "2", "--in", str(m)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.read(10) == b'[{"item":"'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == BROKEN_PIPE == 141
    assert err == b""
