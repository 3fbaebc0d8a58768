"""Batch front door: build generic prefixes, verify them, amalgamate.

Exit codes: 0 success, 1 check failed, 2 usage or parse error,
3 post-build verification failed, 4 precondition violation, 141 standard
output closed early (as a shell reports SIGPIPE; `check ... | head`).
Set GENERIC_LOG=debug for build steps and check progress on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
from itertools import combinations, permutations
from math import comb, perm

from genstruct import analysis, autorder, classes, forcing, structures

BUILD_CLASSES = classes.TAGS + ("AutOrder",)
BROKEN_PIPE = 141
# Most requirements a build may schedule. Graph --n 30 at the default
# --ext-size 3 (110,168) fits; Digraph --n 50 --ext-size 3 (2,009,371) and
# AutOrder --n 2000 (2,007,000) do not.
MAX_SCHEDULE = 1_000_000
# Options each amalgamate op does not read; giving one exits 2.
UNUSED_OPTIONS = {
    "class": ("root", "points", "a", "b"),
    "crossing": ("base", "a", "b"),
    "auto": ("tag", "base", "root", "points"),
}
logger = logging.getLogger("genstruct")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="genstruct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a generic prefix")
    build.add_argument("--class", dest="tag", required=True)
    build.add_argument("--n", type=int, default=0)
    build.add_argument("--steps", type=int, default=None)
    build.add_argument("--seed", type=lambda s: int(s) & (2**64 - 1), default=0)
    build.add_argument("--verify", action="store_true")
    build.add_argument("--format", choices=("json", "dot"), default="json")
    build.add_argument("--out", default=None)
    build.add_argument("--alpha0", type=int, default=0)
    build.add_argument("--ext-size", type=int, default=3,
                       help="largest extension target scheduled for graph-like classes")

    check = sub.add_parser("check", help="run a verifier over a structure file")
    check.add_argument("--class", dest="tag", required=True)
    check.add_argument("--check", dest="verifier", required=True,
                       choices=("extension", "universality", "homogeneity", "density"))
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--k", type=int, default=2)
    check.add_argument("--ids", default="", help="comma ids for the density check")
    check.add_argument("--out", default=None)

    am = sub.add_parser("amalgamate", help="amalgamate two inputs over a base")
    am.add_argument("--op", choices=("class", "crossing", "auto"), required=True)
    am.add_argument("--class", dest="tag", default=None)
    am.add_argument("--left", required=True)
    am.add_argument("--right", required=True)
    am.add_argument("--base", default=None)
    am.add_argument("--root", default=None, help="comma ids of the crossing root")
    am.add_argument("--points", default=None, help="s,sbar,t,tbar for crossing")
    am.add_argument("--a", type=int, default=None)
    am.add_argument("--b", type=int, default=None)
    am.add_argument("--out", default=None)
    return parser


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or a `.tmp` file next to `path` that replaces `path` once
    everything is written and is removed if writing fails."""
    if path is None:
        yield sys.stdout
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _write_out(path: str | None, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)
        fh.write("\n")


def _emit(path: str | None, payload: dict) -> None:
    _write_out(path, json.dumps(payload, separators=(",", ":")))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _reject(message: str) -> int:
    """Print `message` on stderr; exit code 2."""
    print(message, file=sys.stderr)
    return 2


# --- build -----------------------------------------------------------------


def default_schedule(tag: str, n: int, ext_size: int) -> list[forcing.DenseRequirement]:
    """Every point of 0..n-1, then per pair a point between (linear orders, on
    AutOrder's chain requirements) or a joining path (no SAP), else the extension schedule."""
    spec = classes.class_spec(tag)
    point, pair = forcing.point_requirement, forcing.connectivity_requirement
    if spec.linear:
        point, pair = autorder.aut_point_requirement, autorder.aut_between_requirement
    elif spec.sap:
        return [point(m) for m in range(n)] + extension_schedule(tag, n, ext_size)
    return [point(m) for m in range(n)] + [pair(a, b) for a, b in combinations(range(n), 2)]


def schedule_length(tag: str, n: int, ext_size: int, alpha0: int = 0) -> int:
    """The length of `default_schedule(tag, n, ext_size)`, or for AutOrder
    of `autorder.default_aut_schedule(n, alpha0)`, counted without
    building it: n + C(n, 2), or n + the sum over sizes s of
    types(s) * sum_r C(s, r) * P(n, r), or for AutOrder 4n + C(n, 2)
    plus one when 0 < n <= alpha0.  Sizes are added smallest first, and
    none is added once the count is over MAX_SCHEDULE."""
    if tag == "AutOrder":
        return 4 * n + comb(n, 2) + (0 < n <= alpha0)
    spec = classes.class_spec(tag)
    if spec.linear or not spec.sap:
        return n + comb(n, 2)
    total = n
    for size in range(ext_size + 1):
        if total > MAX_SCHEDULE:
            break
        maps = sum(comb(size, r) * perm(n, r) for r in range(size + 1))
        total += len(classes.enumerate_members(tag, size)) * maps
    return total


def extension_schedule(tag: str, n: int, ext_size: int) -> list[forcing.ExtensionRequirement]:
    """Extension requirements for every target type of at most ext_size
    points, every induced small side of at most n points (one family
    record each), and every injection into 0..n-1 (one requirement each)."""
    out: list[forcing.ExtensionRequirement] = []
    ground = range(n)
    for size in range(ext_size + 1):
        for target in classes.enumerate_members(tag, size):
            universe = target.sorted_universe()
            for r in range(min(len(universe), n) + 1):
                for subset in combinations(universe, r):
                    source = structures.induced_substructure(target, set(subset))
                    family = forcing.ExtensionFamily(structures.inclusion_embedding(source, target), tag, ground)
                    out += (forcing.ExtensionRequirement(family, pins) for pins in permutations(ground, r))
    return out


def _build_generic(args) -> tuple[dict, list[str]]:
    """`default_schedule` run by `forcing.generic_build`; a linear class runs on AutOrder's chains
    (`autorder.aut_stronger`), and its `final` is their `autorder.aut_to_json_dict` minus `phi`."""
    schedule = default_schedule(args.tag, args.n, args.ext_size)
    linear = classes.class_spec(args.tag).linear
    start = autorder.empty_aut_condition() if linear else forcing.empty_condition(args.tag)
    chain = forcing.generic_build(start, schedule, args.steps, args.seed, autorder.aut_stronger if linear else None)
    final = autorder.aut_to_json_dict(chain.final) if linear else structures.to_json_dict(chain.final.structure)
    final.pop("phi", None)
    payload = {"class": args.tag, "final": final, "log": chain.log_lines()}
    problems = []
    if args.verify:
        # `meet` has checked every step against the one before it.
        visited = {name for _, name, _ in chain.log}
        for req in schedule:
            # Only requirements actually scheduled before the step bound
            # are promised; satisfaction is upward closed, so a clean run
            # keeps them met at the end.
            if req.name in visited and not req.satisfied(chain.final):
                problems.append(f"unsatisfied requirement {req.name}")
    return payload, problems


def _build_aut(args) -> tuple[dict, list[str]]:
    cond, report = autorder.build_automorphic_order(args.n, args.steps, args.seed, args.alpha0)
    payload = autorder.aut_to_json_dict(cond)
    payload["log"] = report
    problems = []
    if args.verify:
        verdict = autorder.validate_aut_condition(cond)
        if not verdict.valid:
            problems.append(f"invalid condition: item {verdict.item}")
        for m in range(args.n):
            if not autorder.orbit_straddles(cond, args.alpha0, m):
                problems.append(f"orbit misses {m}")
    return payload, problems


def _to_dot(payload: dict, tag: str) -> str:
    lines = ["digraph g {"]
    aut = tag == "AutOrder"  # its payload is the condition itself
    m = structures.from_json_dict(payload if aut else payload["final"])
    if aut or classes.class_spec(tag).linear:
        seq = classes.chain_of(m)
        lines.extend(f'  "{a}" -> "{b}";' for a, b in zip(seq, seq[1:]))
        for x, y in payload.get("phi", []):
            lines.append(f'  "{x}" -> "{y}" [style=dashed];')
    else:
        for x in m.sorted_universe():
            lines.append(f'  "{x}";')
        # Symmetric classes store both orientations; draw each pair once.
        symmetric = classes.class_spec(tag).symmetric
        seen = set()
        for name, tuples in m.interp:
            for t in sorted(tuples):
                if symmetric and frozenset(t) in seen:
                    continue
                seen.add(frozenset(t))
                lines.append(f'  "{t[0]}" -> "{t[1]}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_build(args) -> int:
    if args.tag not in BUILD_CLASSES:
        return _reject(f"unknown class {args.tag!r}")
    if args.n < 0 or (args.steps is not None and args.steps < 0):
        return _reject("n and steps must be nonnegative")
    if args.alpha0 < 0:
        return _reject("alpha0 must be nonnegative")
    if not 0 <= args.ext_size <= classes.MAX_ENUM:
        return _reject(f"ext-size must be in 0..{classes.MAX_ENUM}")
    total = schedule_length(args.tag, args.n, args.ext_size, args.alpha0)
    if total > MAX_SCHEDULE:
        return _reject(f"schedule has at least {total:,} requirements, "
                       f"over the cap of {MAX_SCHEDULE:,}")
    payload, problems = (_build_aut if args.tag == "AutOrder" else _build_generic)(args)
    if problems:
        payload["verify"] = problems
    if args.format == "dot":
        _write_out(args.out, _to_dot(payload, args.tag))
    else:
        _emit(args.out, payload)
    return 3 if problems else 0


# --- check -----------------------------------------------------------------


def _ids(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def cmd_check(args) -> int:
    try:
        ids = set(_ids(args.ids))
    except ValueError:
        return _reject(f"--ids must be comma-separated integers, got {args.ids!r}")
    try:
        data = _read_json(args.infile)
        m = structures.from_json_dict(data)
    except (OSError, ValueError, KeyError, structures.StructureError) as exc:
        return _reject(f"cannot read input: {exc}")
    progress = _log_progress if logger.isEnabledFor(logging.DEBUG) else None

    def sink(items) -> analysis.Written:
        # Called only once the verifier has admitted the input, so a
        # rejected input opens no output.
        with _output(args.out) as fh:
            written = analysis.write_json(items, fh.write, progress)
            fh.write("\n")
        return written

    try:
        if args.verifier == "extension":
            report = analysis.extension_property_report(m, args.tag, args.k, sink)
        elif args.verifier == "universality":
            report = analysis.universality_check(m, args.tag, args.k, sink)
        elif args.verifier == "homogeneity":
            report = analysis.one_point_homogeneity(m, args.tag, args.k, sink)
        else:  # density checks only a linear class, whose membership it tests itself
            if not classes.class_spec(args.tag).linear:
                raise structures.StructureError(f"density checks linear orders, not {args.tag}")
            report = analysis.interval_density_check(m, ids, sink)
    except structures.StructureError as exc:
        return _reject(f"{type(exc).__name__}: {exc}")
    if progress is not None:
        logger.debug("check %s done: items=%d failures=%d",
                     args.verifier, len(report.items), report.items.failures)
    return 1 if report.items.failures else 0


def _log_progress(count: int, failures: int) -> None:
    logger.debug("check items=%d failures=%d", count, failures)


# --- amalgamate --------------------------------------------------------------


def cmd_amalgamate(args) -> int:
    for dest in UNUSED_OPTIONS[args.op]:
        if getattr(args, dest) is not None:
            option = "--class" if dest == "tag" else f"--{dest}"
            return _reject(f"--op {args.op} does not take {option}")
    try:
        if args.op != "auto" and args.tag is not None and args.tag not in classes.TAGS:
            return _reject(f"unknown class {args.tag!r}")
        if args.op == "class" and (args.tag is None or args.base is None):
            return _reject("--class and --base are required")
        if args.op == "crossing":
            if args.tag is None:
                return _reject("--class is required")
            points = _ids(args.points or "")
            if len(points) != 4:
                return _reject("--points must be s,sbar,t,tbar")
            root = frozenset(_ids(args.root or ""))
        if args.op == "auto" and (args.a is None or args.b is None):
            return _reject("--a and --b are required")
        # auto reads order-with-map conditions and amalgamates them over their shared part.
        load = autorder.aut_from_json_dict if args.op == "auto" else structures.from_json_dict
        paths = (args.base, args.left, args.right) if args.op == "class" else (args.left, args.right)
        try:
            *base, left, right = [load(_read_json(path)) for path in paths]
        except structures.StructureError as exc:
            return _reject(f"cannot read input: {exc}")
        if args.op == "class":
            f = structures.inclusion_embedding(base[0], left)
            g = structures.inclusion_embedding(base[0], right)
            am = classes.amalgamate(args.tag, f, g)
            _emit(args.out, {
                "result": structures.to_json_dict(am.result),
                "left_map": sorted(am.emb_left.as_dict().items()),
                "right_map": sorted(am.emb_right.as_dict().items()),
            })
        elif args.op == "crossing":
            p_s, p_t = forcing.Condition(args.tag, left), forcing.Condition(args.tag, right)
            out = forcing.crossing_amalgamation(p_s, p_t, root, forcing.CrossingSpec(*points))
            _emit(args.out, {"result": structures.to_json_dict(out.structure)})
        else:
            if len(left.chain) != len(right.chain):
                print("NotIsomorphicExtensions: sides differ in size", file=sys.stderr)
                return 4
            # The order isomorphism between equal-length chains is index-wise;
            # the amalgamation op rejects it if it fails to fix the root.
            h = dict(zip(left.chain, right.chain))
            root = left.universe & right.universe
            out = autorder.amalgamate_partial_automorphisms(left, right, root, h, args.a, args.b)
            payload = autorder.aut_to_json_dict(out)
            payload["h"] = sorted(h.items())
            _emit(args.out, payload)
        return 0
    except (OSError, ValueError, KeyError) as exc:
        return _reject(f"cannot read input: {exc}")
    except structures.StructureError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("GENERIC_LOG", "").lower() == "debug":
        logging.basicConfig(level=logging.DEBUG, stream=sys.stderr,
                            format="%(name)s %(levelname)s %(message)s")
    try:
        args = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code = {"build": cmd_build, "check": cmd_check}.get(args.command, cmd_amalgamate)(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: stdout's buffer goes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
