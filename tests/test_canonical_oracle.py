"""Differential tests: the branch-and-bound `canonical_key` and the
deduplicating `enumerate_members` against the code they replaced.

The oracles below are the earlier implementations: a key that tries all
n! relabelings onto 0..n-1, the branch-and-bound bound as a list of bits,
and an enumeration that keys every candidate with the first.  The fast
code must return equal keys, equal bounds read as bits, and equal member
tuples in the same order.
"""

import hashlib
import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from genstruct import classes
from genstruct.classes import (
    TAGS,
    _is_connected_graph,
    class_spec,
    enumerate_members,
    membership,
)
from genstruct.structures import (
    GRAPH_SIG,
    FinStructure,
    Signature,
    _bound,
    _label_rows,
    canonical_key,
    dumps,
    empty_structure,
    relabel,
    validate_structure,
)

# --- oracles -----------------------------------------------------------------


def oracle_canonical_key(a: FinStructure) -> tuple:
    src = a.sorted_universe()
    n = len(src)
    best = None
    for perm in permutations(range(n)):
        renaming = {src[i]: perm[i] for i in range(n)}
        key = tuple(
            tuple(sorted(tuple(renaming[x] for x in t) for t in tuples))
            for _, tuples in a.interp
        )
        if best is None or key < best:
            best = key
    return (n, a.sig.names(), best)


def oracle_bound(n: int, rels: list, order: list[int]) -> list[int]:
    """`_least_order`'s bound of a label prefix as a list of bits, as it was
    built before it became one int."""
    k = len(order)
    bits: list[int] = []
    for count, succ, prefixes in rels:
        rows: list[list[int] | None] = []
        spare = count
        for _, q in prefixes:
            if all(i < k for i in q):
                s = succ.get(tuple(order[i] for i in q), ())
                row = [0 if order[j] in s else 1 for j in range(k)]
                rest = len(s) - row.count(0)
                rows.append(row + [0] * rest + [1] * (n - k - rest))
                spare -= len(s)
            else:
                rows.append(None)
        for row in rows:
            if row is None:
                zeros = min(spare, n)
                spare -= zeros
                row = [0] * zeros + [1] * (n - zeros)
            bits += row
    return bits


_ORACLE_MEMBERS: dict[tuple[str, int, bool], tuple[FinStructure, ...]] = {}


def oracle_enumerate_members(tag: str, size: int, connected: bool = False) -> tuple:
    key = (tag, size, connected)
    if key in _ORACLE_MEMBERS:
        return _ORACLE_MEMBERS[key]
    if size == 0:
        out = (empty_structure(class_spec(tag).sig or Signature(())),)
    else:
        seen = {}
        for smaller in oracle_enumerate_members(tag, size - 1):
            for candidate in class_spec(tag).extensions(smaller, size - 1):
                if not membership(tag, candidate):
                    continue
                if connected and not _is_connected_graph(candidate):
                    continue
                ck = oracle_canonical_key(candidate)
                if ck not in seen:
                    seen[ck] = candidate
        out = tuple(seen[k] for k in sorted(seen))
    _ORACLE_MEMBERS[key] = out
    return out


# --- strategies --------------------------------------------------------------


def random_member(tag: str, size: int, rng: Random) -> FinStructure:
    """A class member on 0..size-1, grown one random one-point extension
    at a time."""
    a = empty_structure(class_spec(tag).sig or Signature(()))
    for m in range(size):
        candidates = list(class_spec(tag).extensions(a, m))
        rng.shuffle(candidates)
        a = next(c for c in candidates if membership(tag, c))
    return a


def shuffled(a: FinStructure, rng: Random) -> FinStructure:
    """A copy of `a` on random distinct ids below 20."""
    ids = rng.sample(range(20), len(a))
    return relabel(a, dict(zip(a.sorted_universe(), ids)))


SYMBOLS = (("P", 1), ("Q", 1), ("R", 2), ("S", 2), ("T", 3))


@st.composite
def random_structures(draw) -> FinStructure:
    """A structure over a random signature of unary, binary and ternary
    symbols; binary and ternary tuples may repeat a point."""
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True))
    size = draw(st.integers(0, 6 if all(arity < 3 for _, arity in symbols) else 5))
    elems = draw(st.permutations(range(12)))[:size]
    interp = {}
    for name, arity in symbols:
        tuples = sorted(product(elems, repeat=arity))
        density = draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)))
        rng = Random(draw(st.integers(0, 2**16)))
        interp[name] = {t for t in tuples if rng.random() < density}
    return validate_structure(Signature(tuple(symbols)), set(elems), interp)


def circulant(n: int, steps: set[int], flips=(), directed: bool = False) -> FinStructure:
    """The graph on Z_n joining x to x + d for each step d, with the pairs
    in `flips` toggled."""
    arcs = {(x, (x + d) % n) for x in range(n) for d in steps}
    for x, y in flips:
        arcs ^= {(x, y)} if directed else {(x, y), (y, x)}
    return validate_structure(GRAPH_SIG, set(range(n)), {"E": arcs})


@st.composite
def near_circulants(draw) -> FinStructure:
    """Circulant graphs and digraphs with up to two pairs toggled: many
    automorphisms, few of them fixing a given point."""
    n = draw(st.integers(4, 7))
    directed = draw(st.booleans())
    steps = draw(st.sets(st.integers(1, n - 1)))
    if not directed:
        steps |= {n - d for d in steps}
    flips = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=2))
    return circulant(n, steps, flips, directed)


# --- keys --------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(TAGS), st.integers(0, 7), st.integers(0, 2**32))
def test_canonical_key_matches_oracle_on_class_members(tag, size, seed):
    rng = Random(seed)
    a = random_member(tag, size, rng)
    b = shuffled(a, rng)
    expected = oracle_canonical_key(a)
    assert canonical_key(a) == expected
    assert canonical_key(b) == expected


@settings(max_examples=300, deadline=None)
@given(random_structures(), st.integers(0, 2**32))
def test_canonical_key_matches_oracle_on_random_signatures(a, seed):
    expected = oracle_canonical_key(a)
    assert canonical_key(a) == expected
    assert canonical_key(shuffled(a, Random(seed))) == expected


@settings(max_examples=80, deadline=None)
@given(near_circulants())
def test_canonical_key_matches_oracle_on_near_circulants(a):
    assert canonical_key(a) == oracle_canonical_key(a)


@settings(max_examples=200, deadline=None)
@given(random_structures(), st.integers(0, 2**32))
def test_int_bound_reads_as_the_list_bound_on_every_prefix(a, seed):
    src = a.sorted_universe()
    index = {x: i for i, x in enumerate(src)}
    n = len(src)
    rels = _label_rows(n, [(a.sig.arity(name), [tuple(index[x] for x in t) for t in tuples])
                           for name, tuples in a.interp])
    order = Random(seed).sample(range(n), n)
    for k in range(n + 1):
        bits = oracle_bound(n, rels, order[:k])
        assert len(bits) == sum(n ** a.sig.arity(name) for name in a.sig.names())
        value = _bound(n, rels, order[:k])
        assert value.bit_length() <= len(bits) and value == int("".join(map(str, bits)) or "0", 2)


def test_canonical_key_on_highly_symmetric_structures():
    # Large automorphism groups: the search must stay small and exact.
    ternary = Signature((("T", 3),))
    cases = [
        validate_structure(GRAPH_SIG, set(range(7)),
                           {"E": {(x, y) for x in range(7) for y in range(7) if x != y}}),
        validate_structure(GRAPH_SIG, set(range(7)), {}),
        validate_structure(GRAPH_SIG, set(range(6)),
                           {"E": {(x, y) for x in range(6) for y in range(6) if x // 2 == y // 2 and x != y}}),
        validate_structure(ternary, set(range(6)),
                           {"T": {t for t in product(range(6), repeat=3) if len(set(t)) == 3}}),
        validate_structure(ternary, set(range(6)),
                           {"T": {(x, (x + 1) % 6, (x + 2) % 6) for x in range(6)}}),
        # Z_7 with the steps +-1 and +-2, minus the edge {1, 3}: pruning by
        # an automorphism that moves the label prefix misses its least key.
        circulant(7, {1, 2, 5, 6}, flips=((1, 3),)),
    ]
    for a in cases:
        assert canonical_key(a) == oracle_canonical_key(a)


# --- enumeration -------------------------------------------------------------

# The class sweep's enumeration sizes (perfbench/plan.py), plus Graph at 6.
ENUMERATE_TO = {
    "Graph": 6,
    "Digraph": 4,
    "Tournament": 6,
    "LinearOrder": 5,
    "PartialOrder": 5,
    "RationalMetric": 4,
    "LinearGraph": 5,
}


def dumped(members):
    return [dumps(m) for m in members]


@pytest.mark.parametrize("tag", sorted(ENUMERATE_TO))
def test_enumerate_members_matches_keying_oracle(tag):
    for size in range(ENUMERATE_TO[tag] + 1):
        expected = oracle_enumerate_members(tag, size)
        got = enumerate_members(tag, size)
        assert got == expected
        assert dumped(got) == dumped(expected)


def test_connected_linear_graphs_match_keying_oracle():
    for size in range(6):
        expected = oracle_enumerate_members("LinearGraph", size, connected=True)
        assert enumerate_members("LinearGraph", size, connected=True) == expected


# The oracle above reads `class_spec(tag).extensions` itself, so it moves
# with the generators.  These digests pin the bytes of every member up to
# `ENUMERATE_TO`: the yield order of the extensions decides which
# candidate represents each isomorphism type.
ENUMERATION_SHA256 = {
    ("Digraph", False): "42234c9b8ac0d801a9adcbd0430d050b0747502b40297c40f4d845e39ebdf08d",
    ("Graph", False): "c041936fdd3ad763970038b2561fdcb9831ced1c6c56e28f5352178357b040c6",
    ("LinearGraph", False): "c4ec8a5f98ac01fabbd0c69fa8b2a459d39102fce1eff5c5cbd0c3d9ec50f674",
    ("LinearGraph", True): "98522a82b4e83dc8e1a2a13bccc47f4ca33df4c064d188b24b181cfb4d823e64",
    ("LinearOrder", False): "22f9c0094b417500a445160bd7eacaff85b35c522ff3084035174a9cf014ac3c",
    ("PartialOrder", False): "32eb3300fe47cfb858e3bd2710fcfdfa6f895eddd7fa38ed98e9b684fa204006",
    ("RationalMetric", False): "63fa746777b2964c21dce80b5f21e95c5a605f2137e068b474af5717a5a9f224",
    ("Tournament", False): "ace023f6af872281a53367eca562f7b8e8d1906099bf2d8df82701edc378edc1",
}


@pytest.mark.parametrize("tag, connected", sorted(ENUMERATION_SHA256))
def test_enumerated_members_keep_their_bytes(tag, connected):
    lines = "".join(dumps(m) + "\n" for size in range(ENUMERATE_TO[tag] + 1)
                    for m in enumerate_members(tag, size, connected=connected))
    assert hashlib.sha256(lines.encode()).hexdigest() == ENUMERATION_SHA256[tag, connected]


# --- guards ------------------------------------------------------------------


@pytest.mark.parametrize("tag, size", [("Tournament", 6), ("Graph", 5), ("RationalMetric", 4)])
def test_enumeration_keys_each_isomorphism_type_once(tag, size, monkeypatch):
    monkeypatch.setattr(classes, "_MEMBER_CACHE", {})
    for smaller in range(size):
        enumerate_members(tag, smaller)
    calls = []

    def counting_key(a):
        calls.append(a)
        return canonical_key(a)

    monkeypatch.setattr(classes, "canonical_key", counting_key)
    members = enumerate_members(tag, size)
    assert len(calls) == len(members)
    if (tag, size) == ("Tournament", 6):
        assert len(calls) == 56


def test_enumeration_bytes_do_not_depend_on_hash_seed():
    script = (
        "from genstruct.classes import enumerate_members\n"
        "from genstruct.structures import dumps\n"
        "for tag, size in (('Graph', 5), ('Tournament', 6)):\n"
        "    for m in enumerate_members(tag, size):\n"
        "        print(tag, dumps(m))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        outputs.append(done.stdout)
    expected = "".join(f"{tag} {dumps(m)}\n" for tag, size in (("Graph", 5), ("Tournament", 6))
                       for m in enumerate_members(tag, size))
    assert outputs == [expected, expected]
    assert expected.count("Tournament ") == 56
