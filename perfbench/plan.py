"""Workload plans: the items one benchmark run executes.

A plan is plain JSON data, drawn from the workload seed alone, so that
the same seed gives the same items in any interpreter (also under another
PYTHONHASHSEED) and a worker process can receive it on stdin.

Every per-item ``--seed`` comes from a fixed pool, and the committed
oracle holds the output digest of every pool item, so the outputs of a
run are checked for any workload seed, not only the default one.

A run is a number of rounds. Each round runs in its own fresh worker
process and holds one item of every kind of its workload, each with
another pool seed. The number of rounds depends only on ``--seconds``,
never on measured speed, so that a faster program runs the same items.
"""

from __future__ import annotations

import random

WORKLOADS = ("build-extension", "build-order", "verify-prefix", "class-sweep")
DEFAULT_SEED = 0

# Per-item --seed values. A kind whose output size depends on the seed
# draws from seeds that all give the same size (listed in SIZED_POOLS),
# so that every round of every run does the same amount of work; the
# other kinds give the same size for every seed and use BUILD_POOL.
BUILD_POOL = tuple(range(1, 17))

# build --verify with the default --ext-size 3: (class, n).
EXTENSION_BUILDS = (
    ("Graph", 4),
    ("Graph", 5),
    ("Tournament", 4),
    ("Tournament", 5),
    ("Digraph", 2),
    ("PartialOrder", 3),
    ("RationalMetric", 1),
)

# build --verify of orders and linear graphs; every LinearOrder build is
# then checked with `check --check density` over its named ground
# elements. (Density checks on the AutOrder builds too would put the run's
# median item between two groups of unlike cost, where it jumps from run
# to run.)
ORDER_BUILDS = (
    ("LinearOrder", 15),
    ("LinearOrder", 20),
    ("AutOrder", 30),
    ("AutOrder", 45),
    ("LinearGraph", 25),
)
DENSITY_CHECKED = ("LinearOrder",)

# Prefixes checked by verify-prefix: (class, n). Verifier cost grows
# steeply with the prefix size (homogeneity k=2 roughly with its fourth
# power), hence the sized pools.
PREFIXES = (("Graph", 3), ("Graph", 4), ("Tournament", 4))

# (class, n) -> (points of the default build, seeds whose build has them).
SIZED_POOLS = {
    ("Graph", 3): (9, (1, 6, 7, 13, 15, 20, 23, 40, 41, 43, 49, 52, 53, 58, 60, 61)),
    ("Graph", 4): (12, (1, 3, 4, 6, 7, 13, 17, 19, 23, 24, 30, 43, 45, 52, 67, 77)),
    ("Tournament", 4): (11, (1, 3, 5, 7, 10, 19, 24, 29, 30, 37, 39, 44, 60, 62, 66, 76)),
    ("Graph", 5): (13, (2, 7, 9, 11, 12, 14, 17, 24, 31, 33, 41, 50, 57, 65, 68, 73)),
    ("Tournament", 5): (11, (2, 4, 5, 7, 8, 12, 14, 15, 19, 23, 24, 26, 28, 29, 33, 37)),
    ("Digraph", 2): (25, (1, 8, 11, 17, 20, 22, 23, 27, 35, 38, 39, 45, 47, 54, 62, 71)),
    ("LinearGraph", 25): (28, (4, 7, 8, 10, 13, 14, 16, 26, 27, 36, 45, 50, 51, 55, 60, 63)),
}
# (verifier, k) per prefix. Homogeneity k=2 runs only on the 9-point
# prefix (about 1.2 s; it grows to minutes on 20 points); universality
# k=4 only on the larger ones.
SMALL_PREFIX_POINTS = 9
SMALL_PREFIX_CHECKS = (("extension", 3), ("homogeneity", 1), ("homogeneity", 2))
PREFIX_CHECKS = (("extension", 3), ("universality", 4), ("homogeneity", 1))

# class-sweep: cold enumeration up to these sizes, then every property at
# bound 4, or at bound 3 where bound 4 takes seconds to minutes (Graph and
# PartialOrder AP/SAP 2.0-4.1 s, RationalMetric JEP 11.7 s, Digraph AP/SAP
# over 3 minutes). Digraph and RationalMetric enumerate only to size 4
# (size 5 takes 74 s and 9.8 s). A round takes 9-13 s, each in a cold
# process.
ENUMERATE_TO = {
    "Graph": 5,
    "Digraph": 4,
    "Tournament": 6,
    "LinearOrder": 5,
    "PartialOrder": 5,
    "RationalMetric": 4,
    "LinearGraph": 5,
}
PROPERTIES = ("HP", "JEP", "AP", "SAP")
PROPERTY_BOUND_3 = {
    ("Graph", "AP"),
    ("Graph", "SAP"),
    ("Digraph", "JEP"),
    ("Digraph", "AP"),
    ("Digraph", "SAP"),
    ("PartialOrder", "AP"),
    ("PartialOrder", "SAP"),
    ("RationalMetric", "JEP"),
    ("RationalMetric", "AP"),
    ("RationalMetric", "SAP"),
}

# A run of --seconds S has round(S / ROUND_SECONDS) rounds. The values
# put about 20 s of items into a 20-s run on a 2-core x86-64 machine, and
# make each run's heavy item kinds large enough groups that item_tail_s
# (the 11th largest item of a run of fewer than 110) falls inside one
# group of like items, not at the edge between two: the three heavy
# builds, LinearOrder n=20 builds, extension checks on 12 points, and the
# Digraph AP/SAP checks.
ROUND_SECONDS = {
    "build-extension": 5.0,
    "build-order": 1.5,
    "verify-prefix": 3.0,
    "class-sweep": 7.0,
}
MAX_ROUNDS = len(BUILD_POOL)


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, min(MAX_ROUNDS, round(seconds / ROUND_SECONDS[workload])))


def _build_item(tag: str, n: int, seed: int) -> dict:
    return {
        "id": f"build/{tag}/n{n}/s{seed}",
        "kind": f"build/{tag}/n{n}",
        "argv": ["build", "--class", tag, "--n", str(n), "--seed", str(seed), "--verify"],
    }


def _extension_units(seed_of) -> list[list[dict]]:
    return [[_build_item(tag, n, seed_of(tag, n))] for tag, n in EXTENSION_BUILDS]


def _order_units(seed_of) -> list[list[dict]]:
    units = []
    for tag, n in ORDER_BUILDS:
        seed = seed_of(tag, n)
        build = _build_item(tag, n, seed)
        unit = [build]
        if tag in DENSITY_CHECKED:
            build["save"] = f"{tag}-n{n}-s{seed}"
            unit.append({
                "id": f"density/{tag}/n{n}/s{seed}",
                "kind": f"density/{tag}/n{n}",
                "argv": ["check", "--class", tag, "--check", "density",
                         "--in", "{work}/" + build["save"] + ".json",
                         "--ids", ",".join(str(m) for m in range(n))],
            })
        units.append(unit)
    return units


def _prefix_round(seed_of) -> tuple[list[dict], list[list[dict]]]:
    prefixes, units = [], []
    for tag, n in PREFIXES:
        seed = seed_of(tag, n)
        points = SIZED_POOLS[(tag, n)][0]
        name = f"{tag}-n{n}-s{seed}"
        prefixes.append({"name": name, "argv": ["build", "--class", tag, "--n", str(n), "--seed", str(seed)]})
        checks = SMALL_PREFIX_CHECKS if points <= SMALL_PREFIX_POINTS else PREFIX_CHECKS
        for verifier, k in checks:
            units.append([{
                "id": f"{verifier}-k{k}/{tag}/n{n}/s{seed}",
                "kind": f"{verifier}-k{k}/{tag}/n{n}",
                "argv": ["check", "--class", tag, "--check", verifier, "--k", str(k),
                         "--in", "{work}/" + name + ".json"],
            }])
    return prefixes, units


def _sweep_units() -> tuple[list[list[dict]], list[list[dict]]]:
    enums = [[_call_item(f"enumerate/{tag}/{size}", "enumerate_members", tag, size)]
             for tag, size in ENUMERATE_TO.items()]
    props = []
    for tag in ENUMERATE_TO:
        for prop in PROPERTIES:
            bound = 3 if (tag, prop) in PROPERTY_BOUND_3 else 4
            props.append([_call_item(f"property/{tag}/{prop}/{bound}", "check_property", tag, prop, bound)])
    return enums, props


def _call_item(item_id: str, *call) -> dict:
    return {"id": item_id, "kind": item_id, "call": list(call)}


def _pool(tag: str, n: int) -> tuple[int, ...]:
    return SIZED_POOLS[(tag, n)][1] if (tag, n) in SIZED_POOLS else BUILD_POOL


def _round(workload: str, seed_of, rng: random.Random | None) -> dict:
    def ordered(units):
        if rng is not None:
            rng.shuffle(units)
        return [item for unit in units for item in unit]

    prefixes: list[dict] = []
    if workload == "build-extension":
        items = ordered(_extension_units(seed_of))
    elif workload == "build-order":
        items = ordered(_order_units(seed_of))
    elif workload == "verify-prefix":
        prefixes, units = _prefix_round(seed_of)
        items = ordered(units)
    else:
        # Enumerations run first so that they are cold, as the workload intends.
        enums, props = _sweep_units()
        items = ordered(enums) + ordered(props)
    return {"prefixes": prefixes, "items": items}


def make_plan(workload: str, seed: int, seconds: int) -> dict:
    """The rounds of one run: per-item seeds and item order from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    count = rounds_for(workload, seconds)
    picks: dict[tuple[str, int], list[int]] = {}

    def seed_of_round(r):
        def seed_of(tag, n):
            if (tag, n) not in picks:
                picks[(tag, n)] = rng.sample(_pool(tag, n), count)
            return picks[(tag, n)][r]
        return seed_of

    rounds = [_round(workload, seed_of_round(r), rng) for r in range(count)]
    return {"workload": workload, "seed": seed, "rounds": rounds}


def pool_plan(workload: str) -> dict:
    """Every item the pool allows, one round per pool index, in fixed order;
    the oracle is made from this plan."""
    if workload == "class-sweep":
        return {"workload": workload, "seed": None, "rounds": [_round(workload, None, None)]}
    rounds = [
        _round(workload, lambda tag, n, r=r: _pool(tag, n)[r], None)
        for r in range(len(BUILD_POOL))
    ]
    return {"workload": workload, "seed": None, "rounds": rounds}
