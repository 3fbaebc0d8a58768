"""One round of a workload in a fresh interpreter.

Usage: python3 worker.py SRC_DIR WORK_DIR {run,trace,setup} < round.json

Imports genstruct from SRC_DIR, builds the round's input prefixes in
WORK_DIR, prints ``{"ready": <monotonic time>}`` and then one JSON line
per finished item: its id, exit code, sha256 of its output, seconds, and
the seconds of the calibration loop run just before it. The last line
holds ``ru_maxrss``, more calibration samples and, when traced, the span
summary. Mode ``setup`` runs no items. Lines are flushed at once so that
a parent that kills a stuck worker still sees what finished.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _emit(row: dict) -> None:
    sys.__stdout__.write(json.dumps(row, separators=(",", ":")) + "\n")
    sys.__stdout__.flush()


# Tuple building and frozenset lookups, the operations genstruct spends
# its time on. The loop is the benchmark's own code, so a change to
# genstruct cannot move it; a change in the machine's speed does.
_CAL_SET = frozenset((a, b) for a in range(13) for b in range(13) if (a * b) % 3 == 0)


def _calibrate() -> float:
    """Seconds of a fixed loop: the machine's speed at this moment."""
    t0 = time.perf_counter()
    hits = 0
    for x in range(30000):
        if (x % 13, x % 11) in _CAL_SET:
            hits += 1
    return time.perf_counter() - t0


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _structure_file(output: str, path: str) -> None:
    """Write the structure of a build's output where `check --in` reads it."""
    data = json.loads(output)
    body = data.get("final", data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: body[k] for k in ("sig", "universe", "interp")}, fh, separators=(",", ":"))


def _call_output(structures, name: str, value) -> str:
    """Canonical text of a library call's result, hashed like CLI output."""
    if name == "enumerate_members":
        value = [structures.to_json_dict(m) for m in value]
    else:
        value = {"holds": value.holds, "counterexample": value.counterexample}

    def encode(obj):
        if isinstance(obj, structures.FinStructure):
            return structures.to_json_dict(obj)
        raise TypeError(f"cannot encode {type(obj).__name__}")

    return json.dumps(value, default=encode, sort_keys=True, separators=(",", ":"))


def main(argv: list[str]) -> int:
    src, work, mode = argv
    sys.path.insert(0, src)
    import genstruct.cli as cli
    from genstruct import classes, structures

    if not os.path.abspath(structures.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"genstruct was not imported from {src}", file=sys.stderr)
        return 2
    plan = json.load(sys.stdin)
    for prefix in plan["prefixes"]:
        code, output = _run_cli(cli, prefix["argv"])
        if code != 0:
            print(f"building prefix {prefix['name']} exited {code}", file=sys.stderr)
            return 2
        _structure_file(output, os.path.join(work, prefix["name"] + ".json"))

    tracer = None
    bindings = 0
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        bindings = tracer.install()
    _emit({"ready": time.monotonic()})

    clock = time.perf_counter
    for index, item in enumerate(plan["items"] if mode != "setup" else []):
        row = {"id": item["id"], "cal": _calibrate()}
        try:
            if tracer is not None:
                tracer.current_item = index
                tracer.active = True
            if "call" in item:
                name, *args = item["call"]
                t0 = clock()
                value = getattr(classes, name)(*args)
                elapsed = clock() - t0
            else:
                t0 = clock()
                code, output = _run_cli(cli, [a.replace("{work}", work) for a in item["argv"]])
                elapsed = clock() - t0
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            row["error"] = f"{type(exc).__name__}: {exc}"
            _emit(row)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        if "call" in item:
            code, output = 0, _call_output(structures, name, value)
        elif "save" in item and code == 0:
            _structure_file(output, os.path.join(work, item["save"] + ".json"))
        row.update(code=code, sha=hashlib.sha256(output.encode()).hexdigest(), t=elapsed)
        _emit(row)

    last = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cal": [_calibrate() for _ in range(3)]}
    if tracer is not None:
        last["trace"] = tracer.summary()
        last["bindings"] = bindings
    _emit(last)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
