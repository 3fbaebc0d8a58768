"""genstruct benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; genstruct is imported from its ``src/``.
The run's rounds (see plan.py) each execute in a fresh worker process,
one after another, under a deadline the parent enforces. Every item's
exit code and output sha256 must match ``oracle.json``; an item that
differs, raises, or is killed counts as failed, and then the command
exits 1.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first half of the rounds run
once untraced and once traced, the two run digests must agree, and the
metrics are the per-layer ones (see tracer.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import plan as plans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = BENCH / "oracle.json"

# Times are reported in seconds at a reference machine speed: measured
# seconds x CAL_REF_S / the median time of the worker's calibration loop
# during the run (about 0.004 s on the 2-core x86-64 machine the benchmark
# was tuned on). That machine's speed drifts by up to 2x over seconds to
# minutes, which moved every timing of a run together by as much; the
# loop is benchmark code, so a change to genstruct does not move it.
CAL_REF_S = 0.004

# The whole run, kills included, must end within 180 s.
RUN_BUDGET_S = 170.0
# Fresh interpreters timed for setup_s in one run: the rounds plus probes
# that run no items. A bare start is about 0.1 s and noisy.
SETUP_STARTS = 7
# A round is killed after this many times its nominal length (trace: more).
ROUND_TIMEOUT_FACTOR = {"run": 6.0, "trace": 15.0}
MIN_ROUND_TIMEOUT_S = 30.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span, fields) reported from the traced run; see tracer.SPANS.
SPAN_FIELDS = (
    ("structures.search", ("calls", "self_s")),
    ("structures.canonical_key", ("calls", "self_s")),
    ("structures.partial_embedding", ("calls", "self_s")),
    ("structures.induced_substructure", ("calls", "self_s")),
    ("structures.validate_structure", ("calls", "self_s")),
    ("structures.json", ("calls", "self_s")),
    ("classes.membership", ("calls", "self_s")),
    ("classes.amalgamate", ("calls", "self_s")),
    ("classes.enumerate_members", ("calls", "self_s")),
    ("classes.chain_of", ("calls", "self_s")),
    ("classes.check_property", ("calls", "self_s")),
    ("forcing.satisfied", ("calls", "self_s")),
    ("forcing.extend", ("calls", "self_s")),
    ("forcing.meet", ("calls",)),
    ("forcing.stronger", ("calls", "self_s")),
    ("forcing.generic_build", ("self_s",)),
    ("autorder.satisfied", ("calls", "self_s")),
    ("autorder.extend", ("calls", "self_s")),
    ("autorder.orbit_straddles", ("calls", "self_s")),
    ("autorder.build", ("self_s",)),
    ("analysis.report", ("calls", "self_s")),
    ("cli.schedule", ("self_s",)),
    ("cli.main", ("self_s",)),
)
FIELD_UNITS = {"calls": "count", "self_s": "s"}
TAIL_BEYOND = 10

# Derived per-layer metrics: (name, unit, better).
DERIVED = (
    ("structures.search.hit_ratio", "ratio", "higher"),
    ("structures.search.results", "count", "lower"),
    ("classes.enumerate_members.repeat_ratio", "ratio", "lower"),
    ("forcing.meet.grew_ratio", "ratio", "higher"),
    ("analysis.items", "count", "higher"),
    ("analysis.searches_per_item", "count/item", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.bindings_patched", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("item_tail.percentile", "pct", "higher"),
    ("item_tail.items", "count", "higher"),
)


def per_layer_spec() -> list[dict]:
    """The per-layer metrics in BENCHMARK.json form."""
    out = [
        {"name": f"{span}.{field}", "unit": FIELD_UNITS[field], "better": "lower"}
        for span, fields in SPAN_FIELDS
        for field in fields
    ]
    out += [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]
    return out


def run_worker(round_: dict, mode: str, work: Path, timeout: float) -> dict:
    """Run one round in a fresh interpreter and parse what it printed."""
    env = {k: v for k, v in os.environ.items() if k != "GENERIC_LOG"}
    cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC), str(work), mode]
    spawn = time.monotonic()
    killed = False
    try:
        proc = subprocess.run(cmd, input=json.dumps(round_), capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        out, err, code, killed = exc.stdout or "", exc.stderr or "", None, True
    if isinstance(out, bytes):
        out = out.decode(errors="replace")
    if isinstance(err, bytes):
        err = err.decode(errors="replace")
    result = {"spawn": spawn, "ready": None, "rows": {}, "last": None, "killed": killed}
    for line in out.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if "ready" in row:
            result["ready"] = row["ready"]
        elif "id" in row:
            result["rows"][row["id"]] = row
        else:
            result["last"] = row
    if killed or code != 0:
        why = f"killed after {timeout:.0f} s" if killed else f"exited {code}"
        print(f"worker ({mode}) {why}: {err.strip()[-500:]}", file=sys.stderr)
    return result


def run_rounds(plan: dict, mode: str, work: Path, deadline: float) -> list[dict]:
    nominal = plans.ROUND_SECONDS[plan["workload"]]
    cap = max(MIN_ROUND_TIMEOUT_S, ROUND_TIMEOUT_FACTOR[mode] * nominal)
    results = []
    for round_ in plan["rounds"]:
        remaining = deadline - time.monotonic()
        if remaining < 1.0:
            results.append({"spawn": None, "ready": None, "rows": {}, "last": None, "killed": True})
            continue
        results.append(run_worker(round_, mode, work, min(cap, remaining)))
    return results


def check_items(plan: dict, results: list[dict], oracle: dict) -> tuple[int, int, str, list[str]]:
    """Compare every planned item with the oracle: (attempted, failed,
    run digest, failure notes)."""
    attempted = failed = 0
    digest = hashlib.sha256()
    notes = []
    for round_, result in zip(plan["rounds"], results):
        for item in round_["items"]:
            attempted += 1
            row = result["rows"].get(item["id"])
            ref = oracle.get(item["id"])
            if row is None:
                why, line = "unfinished", "missing"
            elif "error" in row:
                why, line = row["error"], "error"
            else:
                line = f"{row['code']} {row['sha']}"
                if ref is None:
                    why = "no reference"
                elif row["code"] != ref[1]:
                    why = f"exit {row['code']}, expected {ref[1]}"
                elif row["sha"] != ref[0]:
                    why = "output differs from the reference"
                else:
                    why = None
            digest.update(f"{item['id']} {line}\n".encode())
            if why is not None:
                failed += 1
                notes.append(f"{item['id']}: {why}")
    return attempted, failed, digest.hexdigest(), notes


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile that still has at least
    TAIL_BEYOND values beyond it (nearest rank), and that percentile.
    With TAIL_BEYOND values or fewer, the maximum as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, (pct * n + 99) // 100)
    return ordered[rank - 1], pct


def kind_times(plan: dict, results: list[dict]) -> dict[str, list[float]]:
    """Seconds of every finished item, grouped by item kind."""
    kinds: dict[str, list[float]] = {}
    for round_, result in zip(plan["rounds"], results):
        for item in round_["items"]:
            row = result["rows"].get(item["id"])
            if row is not None and "t" in row:
                kinds.setdefault(item["kind"], []).append(row["t"])
    return kinds


def speed_factor(results: list[dict]) -> float:
    """CAL_REF_S over the median calibration-loop time of the workers."""
    samples = [row["cal"] for r in results for row in r["rows"].values() if "cal" in row]
    samples += [c for r in results if r["last"] for c in r["last"].get("cal", [])]
    return CAL_REF_S / statistics.median(samples)


def end_to_end(plan: dict, results: list[dict], probes: list[dict]) -> tuple[dict, str]:
    kinds = kind_times(plan, results)
    times = [t for ts in kinds.values() for t in ts]
    setups = [r["ready"] - r["spawn"] for r in results + probes if r["ready"] is not None]
    if not times or not setups:
        raise RuntimeError("no item finished")
    factor = speed_factor(results + probes)
    tail_value, pct = tail(times)
    rss = [r["last"]["rss_kb"] / 1024 for r in results if r["last"]]
    raw = {
        "setup_s": statistics.median(setups),
        # One round: one item of every kind, each at its median over the
        # run. Medians per kind damp the machine's slow spells, which come
        # and go within a round.
        "wall_s": sum(statistics.median(ts) for ts in kinds.values()),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_value,
    }
    values = {name: value * factor for name, value in raw.items()}
    values["peak_rss_mb"] = statistics.median(rss) if rss else 0.0
    note = (f"setup_s over {len(setups)} starts; wall_s over {len(kinds)} item kinds "
            f"x {len(plan['rounds'])} rounds; item_tail_s = p{pct} of {len(times)} items\n"
            f"  speed factor {factor:.4f}; measured seconds: "
            + ", ".join(f"{name} {value:.6f}" for name, value in raw.items()))
    return values, note


def merge_traces(results: list[dict]) -> tuple[dict, dict, int, int]:
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    bindings = span_count = 0
    for r in results:
        if not r["last"] or "trace" not in r["last"]:
            continue
        summary = r["last"]["trace"]
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
        bindings = max(bindings, r["last"]["bindings"])
        span_count += summary["span_count"]
    return spans, counts, bindings, span_count


def per_layer(plan: dict, untraced: list[dict], traced: list[dict]) -> dict:
    spans, counts, bindings, span_count = merge_traces(traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for span, fields in SPAN_FIELDS:
        for field in fields:
            values[f"{span}.{field}"] = spans.get(span, {}).get(field, 0)

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    times = [t for ts in kind_times(plan, untraced).values() for t in ts]
    _, pct = tail(times) if times else (0.0, 0)
    traced_times = [t for ts in kind_times(plan, traced).values() for t in ts]
    values.update({
        "structures.search.hit_ratio": ratio(counts.get("structures.search.hits", 0), calls("structures.search")),
        "structures.search.results": counts.get("structures.search.results", 0),
        "classes.enumerate_members.repeat_ratio": ratio(
            counts.get("classes.enumerate_members.repeats", 0), calls("classes.enumerate_members")),
        "forcing.meet.grew_ratio": ratio(counts.get("forcing.meet.grew", 0), calls("forcing.meet")),
        "analysis.items": counts.get("analysis.items", 0),
        "analysis.searches_per_item": ratio(counts.get("analysis.searches", 0), counts.get("analysis.items", 0)),
        "trace.overhead": ratio(sum(traced_times) * speed_factor(traced), sum(times) * speed_factor(untraced))
        if traced_times and times else 0.0,
        "trace.bindings_patched": bindings,
        "trace.spans": span_count,
        "item_tail.percentile": pct,
        "item_tail.items": len(times),
    })
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=plans.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    if not (SRC / "genstruct" / "__init__.py").is_file():
        print(f"error: no genstruct sources under {SRC}", file=sys.stderr)
        return 2
    oracle = json.loads(ORACLE.read_text())[args.workload]
    plan = plans.make_plan(args.workload, args.seed, args.seconds)
    if args.trace:
        # A traced run runs its rounds twice, the second time about 1.4x
        # slower, so it takes the first half of them to stay near the
        # length of an untraced run.
        plan["rounds"] = plan["rounds"][: (len(plan["rounds"]) + 1) // 2]
    deadline = time.monotonic() + RUN_BUDGET_S

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        untraced = run_rounds(plan, "run", work, deadline)
        traced, probes = [], []
        if args.trace:
            traced = run_rounds(plan, "trace", work, deadline)
        else:
            rounds = plan["rounds"]
            for i in range(max(0, SETUP_STARTS - len(rounds))):
                if deadline - time.monotonic() < MIN_ROUND_TIMEOUT_S:
                    break
                probes.append(run_worker(rounds[i % len(rounds)], "setup", work, MIN_ROUND_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, digest, notes = check_items(plan, untraced, oracle)
    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"rounds={len(plan['rounds'])} trace={args.trace}")
    print(f"  run_digest {digest}")
    if args.trace:
        t_attempted, t_failed, t_digest, t_notes = check_items(plan, traced, oracle)
        print(f"  traced_run_digest {t_digest}")
        if t_digest != digest:
            print("  traced and untraced outputs differ", file=sys.stderr)
            correct = False
        attempted, failed, notes = attempted + t_attempted, failed + t_failed, notes + t_notes
        metrics = per_layer(plan, untraced, traced)
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        try:
            metrics, note = end_to_end(plan, untraced, probes)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"  {note}")
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6f} {units[name]}")
    print(f"  fail_ratio {failed / attempted if attempted else 1.0} ({failed} of {attempted} items)")
    for line in notes[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    correct = correct and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
