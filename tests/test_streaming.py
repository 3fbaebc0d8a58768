"""The `check` command streams its report: the bytes must equal the
collected `Report`, bad input must leave no output behind, and memory
must not grow with the report."""

import json
import logging
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from genstruct import analysis
from genstruct.analysis import ReportItem, write_json
from genstruct.classes import (
    SignatureMismatch,
    chain_structure,
    membership,
    metric_structure,
)
from genstruct.cli import main
from genstruct.structures import (
    GRAPH_SIG,
    Signature,
    dumps,
    empty_structure,
    from_json_dict,
    validate_structure,
)


def graph(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return validate_structure(GRAPH_SIG, set(universe), {"E": rel})


def tournament(universe, arcs):
    return validate_structure(GRAPH_SIG, set(universe), {"E": set(arcs)})


def metric(universe, dist):
    return metric_structure(set(universe), {frozenset(p): Fraction(q) for p, q in dist.items()})


def reference_json(items) -> str:
    """The report encoding of one json.dumps over all rows."""
    rows = [{"item": it.item, "verdict": it.verdict, "witness": it.witness} for it in items]
    return json.dumps(rows, separators=(",", ":"))


REPORTS = {
    "extension": analysis.extension_property_report,
    "universality": analysis.universality_check,
    "homogeneity": analysis.one_point_homogeneity,
}

# (class, structure, verifier, k): every verifier over graph, tournament,
# metric and order inputs, passing and failing reports, and empty ones.
CASES = [
    ("Graph", graph({0, 1, 2, 3}, [(0, 1), (1, 2)]), "extension", 2),
    ("Graph", graph({0, 1, 2}, []), "extension", 2),
    ("Graph", graph({0, 1, 2, 3}, [(0, 1), (1, 2)]), "universality", 3),
    ("Graph", graph({0, 1, 2, 3, 4}, [(0, 1), (1, 2), (3, 4)]), "homogeneity", 2),
    ("Graph", empty_structure(GRAPH_SIG), "homogeneity", 0),
    ("Tournament", tournament({0, 1, 2}, [(0, 1), (1, 2), (2, 0)]), "extension", 2),
    ("Tournament", tournament({0, 1, 2, 3}, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)]),
     "homogeneity", 2),
    ("Tournament", tournament({0, 1, 2}, [(0, 1), (1, 2), (0, 2)]), "universality", 3),
    ("RationalMetric", metric({0, 1, 2}, {(0, 1): 1, (1, 2): 2, (0, 2): 2}), "extension", 1),
    ("RationalMetric", metric({0, 1, 2}, {(0, 1): 1, (1, 2): 2, (0, 2): 2}), "universality", 2),
    ("RationalMetric", metric({0, 1, 2}, {(0, 1): 1, (1, 2): 1, (0, 2): 1}), "homogeneity", 2),
    ("LinearOrder", chain_structure([0, 5, 1, 7]), "extension", 2),
    ("LinearOrder", chain_structure([0, 5, 1, 7]), "homogeneity", 2),
    ("LinearOrder", chain_structure([0, 5, 1, 7]), "density", 0),
    ("LinearOrder", chain_structure([0, 5, 1, 7, 2]), "density", 0),
    ("LinearOrder", chain_structure([3]), "density", 0),
]
DENSITY_IDS = {5, 1, 2}


def _report(tag, m, verifier, k):
    if verifier == "density":
        return analysis.interval_density_check(m, DENSITY_IDS)
    return REPORTS[verifier](m, tag, k)


def _argv(tag, path, verifier, k):
    return ["check", "--class", tag, "--check", verifier, "--in", str(path), "--k", str(k),
            "--ids", ",".join(map(str, sorted(DENSITY_IDS)))]


@pytest.mark.parametrize("tag,m,verifier,k", CASES)
def test_streamed_bytes_equal_collected_report(tmp_path: Path, capsys, tag, m, verifier, k):
    report = _report(tag, m, verifier, k)
    expected = report.to_json() + "\n"
    assert report.to_json() == reference_json(report.items)
    src = tmp_path / "m.json"
    src.write_text(dumps(m))
    argv = _argv(tag, src, verifier, k)

    assert main(argv) == (0 if report.passed else 1)
    assert capsys.readouterr().out == expected

    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == (0 if report.passed else 1)
    assert out.read_bytes() == expected.encode()
    assert not (tmp_path / "r.json.tmp").exists()


def test_cases_cover_passing_failing_and_empty_reports():
    reports = [_report(*case) for case in CASES]
    assert any(r.passed and r.items for r in reports)
    assert any(not r.passed for r in reports)
    assert any(not r.items for r in reports)
    assert {case[2] for case in CASES} == {"extension", "universality", "homogeneity", "density"}


@pytest.mark.parametrize("m, passed", [
    (graph({0, 1, 2, 3}, [(0, 1), (2, 3)]), True),
    (graph({0, 1, 2, 3, 4}, [(0, 1), (1, 2), (3, 4)]), False),
])
def test_passed_is_the_same_for_written_reports(m, passed):
    collected = analysis.one_point_homogeneity(m, "Graph", 2)
    written = analysis.one_point_homogeneity(m, "Graph", 2, lambda items: write_json(items, len))
    assert isinstance(written.items, analysis.Written)
    assert collected.passed == written.passed == passed


@pytest.mark.parametrize("count", [0, 1, 249, 250, 251, 1000, 1249, 2000])
def test_batches_join_to_one_array(count):
    items = [ReportItem(f"i{j}", j % 7 != 3, [j, None] if j % 2 else None) for j in range(count)]
    parts: list[str] = []
    calls = []
    assert write_json(iter(items), parts.append, lambda *a: calls.append(a)) == analysis.Written(
        count, sum(not it.verdict for it in items))
    assert "".join(parts) == reference_json(items)
    every = analysis.PROGRESS_EVERY
    assert [c for c, _ in calls] == list(range(every, count + 1, every))


def _no_output(tmp_path: Path, capsys, argv) -> str:
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "r.json.tmp").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("verifier", ["extension", "universality", "homogeneity"])
def test_rejected_input_leaves_no_output(tmp_path: Path, capsys, verifier):
    src = tmp_path / "m.json"
    src.write_text(dumps(graph({0, 1, 2}, [(0, 1)])))
    base = ["check", "--check", verifier, "--in", str(src)]
    err = _no_output(tmp_path, capsys, base + ["--class", "Tournament", "--k", "1"])
    assert "NotInClass" in err
    err = _no_output(tmp_path, capsys, base + ["--class", "Graph", "--k", str(analysis.MAX_REPORT_K + 1)])
    assert "ScaleExceeded" in err
    err = _no_output(tmp_path, capsys, base + ["--class", "Graph", "--k", "-1"])
    assert "k must be nonnegative" in err


def test_failure_while_streaming_removes_the_tmp_file(tmp_path: Path, monkeypatch):
    def failing_items(m, tag, k):
        yield ReportItem("first", True)
        raise RuntimeError("stopped while streaming")

    monkeypatch.setattr(analysis, "homogeneity_items", failing_items)
    src = tmp_path / "m.json"
    src.write_text(dumps(graph({0, 1}, [])))
    out = tmp_path / "r.json"
    with pytest.raises(RuntimeError, match="stopped while streaming"):
        main(["check", "--class", "Graph", "--check", "homogeneity", "--in", str(src),
              "--out", str(out)])
    assert list(tmp_path.iterdir()) == [src]


def test_unordered_density_input_leaves_no_output(tmp_path: Path, capsys):
    src = tmp_path / "m.json"
    src.write_text(dumps(graph({0, 1, 2}, [(0, 1)])))
    argv = ["check", "--check", "density", "--in", str(src), "--ids", "1"]
    _no_output(tmp_path, capsys, argv + ["--class", "LinearOrder"])
    # A V: 1 and 2 both lie above 0 and are incomparable, so no chain
    # orders them and 1 is no witness between 0 and 2.
    src.write_text('{"sig":[["<",2]],"universe":[0,1,2],"interp":{"<":[[0,1],[0,2]]}}')
    argv[-1] = "0,1,2"
    assert "NotInClass" in _no_output(tmp_path, capsys, argv + ["--class", "LinearOrder"])
    assert "not PartialOrder" in _no_output(tmp_path, capsys, argv + ["--class", "PartialOrder"])
    src.write_text(dumps(chain_structure([0, 1, 2])))
    assert "unknown class tag 'Nope'" in _no_output(tmp_path, capsys, argv + ["--class", "Nope"])


def test_over_estimate_exits_2_at_once(tmp_path: Path, capsys):
    src = tmp_path / "e40.json"
    src.write_text(dumps(graph(range(40), [])))
    argv = ["check", "--class", "Graph", "--check", "homogeneity", "--k", "2", "--in", str(src)]
    t0 = time.perf_counter()
    err = _no_output(tmp_path, capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    # 40 + 40^2 * 39 + C(40, 2)^2 * 2 * 38
    assert "46,300,840 items" in err and f"{analysis.MAX_REPORT_ITEMS:,}" in err


def test_estimates_bound_the_item_counts(monkeypatch):
    m = graph({0, 1, 2, 3, 4}, [(0, 1), (1, 2), (3, 4)])
    estimates = {}
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "MAX_REPORT_ITEMS", 0)
        for verifier, report in REPORTS.items():
            with pytest.raises(analysis.ScaleExceeded) as info:
                report(m, "Graph", 2)
            estimates[verifier] = int(info.value.args[0].split()[5].replace(",", ""))
    for verifier, report in REPORTS.items():
        assert len(report(m, "Graph", 2).items) <= estimates[verifier]
    # 1 + 6 + 2 * 36 types over (|M| + 1)^size; 5 + 25 * 4 + 100 * 2 * 3.
    assert estimates == {"extension": 79, "universality": 4, "homogeneity": 705}


def test_density_reports_are_not_capped(tmp_path: Path, capsys, monkeypatch):
    # Neither the item estimate nor the 40-point cap applies to density.
    monkeypatch.setattr(analysis, "MAX_REPORT_ITEMS", 0)
    assert len(analysis.interval_density_check(chain_structure([0, 5, 1, 7, 2]), {5}).items) == 10
    src = tmp_path / "m.json"
    src.write_text(dumps(chain_structure(range(analysis.MAX_REPORT_SIZE + 1))))
    assert main(["check", "--class", "LinearOrder", "--check", "density", "--in", str(src),
                 "--ids", "1"]) == 1
    assert len(json.loads(capsys.readouterr().out)) == 820


@pytest.mark.parametrize("tag,m,verifier,k", [CASES[0], CASES[6], CASES[10], CASES[13]])
def test_check_writes_inside_the_report_function(tmp_path: Path, monkeypatch, tag, m, verifier, k):
    """Instrumentation that rebinds the `Report` functions (as the
    benchmark's tracer does) sees each check's whole run and item count."""
    name = {"density": "interval_density_check", **{v: f.__name__ for v, f in REPORTS.items()}}[verifier]
    original = getattr(analysis, name)
    out = tmp_path / "r.json"
    calls = []

    def wrapped(*args):
        report = original(*args)
        calls.append((len(report.items), out.read_text()))
        return report

    monkeypatch.setattr(analysis, name, wrapped)
    src = tmp_path / "m.json"
    src.write_text(dumps(m))
    code = main(_argv(tag, src, verifier, k) + ["--out", str(out)])
    rows = json.loads(out.read_text())
    assert calls == [(len(rows), out.read_text())]
    assert code == (0 if all(row["verdict"] for row in rows) else 1)


def transitive_tournament(n):
    return tournament(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])


def test_benchmark_and_documented_runs_fit_under_the_cap():
    # Building the generator checks the estimate and computes no item.
    analysis.homogeneity_items(graph(range(20), []), "Graph", 2)
    analysis.homogeneity_items(graph(range(9), []), "Graph", 2)
    for m, tag in ((graph(range(12), []), "Graph"), (transitive_tournament(11), "Tournament")):
        analysis.extension_items(m, tag, 3)
        analysis.universality_items(m, tag, 4)
        analysis.homogeneity_items(m, tag, 1)
    with pytest.raises(analysis.ScaleExceeded):
        analysis.homogeneity_items(graph(range(22), []), "Graph", 2)


def test_streamed_check_memory_stays_below_report_size(tmp_path: Path):
    built = tmp_path / "b.json"
    assert main(["build", "--class", "Graph", "--n", "3", "--seed", "1", "--out", str(built)]) == 0
    body = json.loads(built.read_text())["final"]
    m = from_json_dict(body)
    assert len(m) == 9
    src = tmp_path / "m.json"
    src.write_text(json.dumps(body))
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        code = main(["check", "--class", "Graph", "--check", "homogeneity", "--k", "2",
                     "--in", str(src), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text()
    assert code == (0 if all(row["verdict"] for row in json.loads(text)) else 1)
    assert peak < len(text), (peak, len(text))


def test_progress_lines_under_debug(tmp_path: Path, caplog):
    caplog.set_level(logging.DEBUG, logger="genstruct")
    src = tmp_path / "m.json"
    src.write_text(dumps(graph(range(6), [(0, 1), (2, 3)])))
    out = tmp_path / "r.json"
    code = main(["check", "--class", "Graph", "--check", "homogeneity", "--k", "2",
                 "--in", str(src), "--out", str(out)])
    rows = json.loads(out.read_text())
    failures = sum(not row["verdict"] for row in rows)
    lines = [r.getMessage() for r in caplog.records if r.name == "genstruct"]
    steps = [f"check items={c} failures={sum(not r['verdict'] for r in rows[:c])}"
             for c in range(1000, len(rows) + 1, 1000)]
    assert len(rows) >= 1000 and code == (1 if failures else 0)
    assert lines == steps + [f"check homogeneity done: items={len(rows)} failures={failures}"]


def test_bad_distance_symbols_rejected_every_time(tmp_path: Path, capsys):
    for symbols in ((("d_0", 2),), (("d_-1", 2),), (("d_1", 3),)):
        name = symbols[0][0]
        bad = validate_structure(Signature(symbols), {0}, {name: set()})
        for _ in range(2):  # a failure is not cached
            with pytest.raises(SignatureMismatch, match=f"^bad distance symbol {name}$"):
                membership("RationalMetric", bad)
        src = tmp_path / "bad.json"
        src.write_text(dumps(bad))
        assert main(["check", "--class", "RationalMetric", "--check", "universality",
                     "--in", str(src), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"SignatureMismatch: bad distance symbol {name}\n"
