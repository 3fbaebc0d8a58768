"""Differential tests: metric membership and the partial-embedding check
against the code they replaced.

The oracles are the earlier implementations: a `Fraction` triangle scan
over every ordered triple of points, a partial-embedding check that
rebuilds every tuple over the domain and its image per symbol,
`membership` deciding the class axioms (`ClassSpec.member`) on every
call, and the Digraph loop test as a generator over every tuple.  The
fast code must give the same verdict on every input, with one
deliberate difference: the old metric test let a pair carry two
distances (the last symbol won), and the new one rejects such a
structure.
"""

import pickle
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from genstruct import classes, forcing
from genstruct.classes import (
    SPECS,
    TAGS,
    _is_digraph,
    _is_linear_order,
    _is_metric,
    chain_structure,
    check_property,
    class_spec,
    enumerate_members,
    membership,
    metric_distances,
    metric_symbol,
)
from genstruct.structures import (
    GRAPH_SIG,
    ORDER_SIG,
    FinStructure,
    Signature,
    SignatureMismatch,
    StructureError,
    dumps,
    is_partial_embedding,
    validate_structure,
)

# --- oracles -----------------------------------------------------------------


def oracle_is_metric(a) -> bool:
    for _, tuples in a.interp:
        if any(t[0] == t[1] or (t[1], t[0]) not in tuples for t in tuples):
            return False
    dist = metric_distances(a)
    points = sorted(a.universe)
    if any(frozenset(pair) not in dist for pair in combinations(points, 2)):
        return False
    for x, y, z in permutations(points, 3):
        if dist[frozenset((x, z))] > dist[frozenset((x, y))] + dist[frozenset((y, z))]:
            return False
    return True


def oracle_tuples_over(dom, arity):
    if arity == 1:
        return [(x,) for x in dom]
    if arity == 2:
        return [(x, y) for x in dom for y in dom]
    out = [()]
    for _ in range(arity):
        out = [t + (x,) for t in out for x in dom]
    return out


def oracle_is_partial_embedding(a, b, partial) -> bool:
    dom = set(partial)
    for name, tuples in a.interp:
        target_tuples = b.rel(name)
        arity = a.sig.arity(name)
        for t in oracle_tuples_over(dom, arity):
            mapped = tuple(partial[x] for x in t)
            if (t in tuples) != (mapped in target_tuples):
                return False
    return True


# --- rational metric spaces ------------------------------------------------

# 1/2 + 3/4 < 3/2 < 2 < 1 + 3: sums of small distances fall under the
# large ones, so triangle violations are common.
PALETTE = tuple(Fraction(q) for q in ("1/2", "3/4", "1", "3/2", "2", "3", "7/2"))


def metric(universe, interp):
    """A structure over the distance symbols that `interp` names."""
    names = sorted(interp, key=lambda name: Fraction(name[2:]))
    return validate_structure(Signature(tuple((n, 2) for n in names)), universe, interp)


def two_distances(a) -> bool:
    """Does some ordered pair lie in more than one distance symbol?"""
    seen = set()
    for _, tuples in a.interp:
        if seen & tuples:
            return True
        seen |= tuples
    return False


@st.composite
def distance_structures(draw):
    """Mostly well-formed distance tables with seeded defects: pairs left
    out, one direction only, a second distance, loops, stray symbols."""
    universe = draw(st.sets(st.integers(0, 12), max_size=7))
    points = sorted(universe)
    interp: dict[str, set] = {}

    def put(q, t):
        interp.setdefault(metric_symbol(q), set()).add(t)

    # Distances within [1/2, 1] or [1, 2] always satisfy the triangle
    # inequality; half the tables have no defects.
    palette = st.sampled_from(draw(st.sampled_from((PALETTE, PALETTE[:3], PALETTE[2:5]))))
    defect = st.sampled_from(draw(st.sampled_from(
        (("ok",), ("ok",) * 12 + ("missing", "one-way", "second", "split")))))
    for x, y in combinations(points, 2):
        q = draw(palette)
        kind = draw(defect)
        if kind == "missing":
            continue
        if kind == "one-way":
            put(q, draw(st.sampled_from(((x, y), (y, x)))))
            continue
        if kind == "split":  # the two directions under different distances
            put(q, (x, y))
            put(draw(palette), (y, x))
            continue
        put(q, (x, y))
        put(q, (y, x))
        if kind == "second":
            r = draw(palette)
            put(r, (x, y))
            put(r, (y, x))
    if points and draw(st.integers(0, 5)) == 0:
        put(draw(palette), (draw(st.sampled_from(points)),) * 2)
    for q in draw(st.lists(st.sampled_from(PALETTE), max_size=2)):
        interp.setdefault(metric_symbol(q), set())  # symbols nothing uses
    return metric(universe, interp)


@settings(max_examples=400, deadline=None)
@given(distance_structures())
def test_is_metric_matches_the_fraction_scan(a):
    if two_distances(a):
        assert not _is_metric(a)
    else:
        assert _is_metric(a) == oracle_is_metric(a)


def test_is_metric_cases():
    both = {(0, 1), (1, 0)}
    cases = [
        (metric(set(), {}), True),
        (metric({3}, {}), True),
        (metric({0, 1}, {}), False),  # a pair without a distance
        (metric({0, 1}, {"d_1/2": both}), True),
        (metric({0, 1}, {"d_1": {(0, 1)}}), False),  # no reverse tuple
        (metric({0, 1}, {"d_1": {(0, 1)}, "d_2": {(1, 0)}}), False),
        (metric({0, 1}, {"d_1": both | {(0, 0)}}), False),  # a loop
        (metric({0, 1}, {"d_1": both, "d_2": both}), False),  # two distances
        # 1/2 + 3/4 < 3/2: the long side breaks the triangle inequality.
        (metric({0, 1, 2}, {"d_1/2": both, "d_3/4": {(1, 2), (2, 1)},
                            "d_3/2": {(0, 2), (2, 0)}}), False),
        (metric({0, 1, 2}, {"d_1/2": both, "d_3/4": {(1, 2), (2, 1)},
                            "d_5/4": {(0, 2), (2, 0)}}), True),
    ]
    for a, expected in cases:
        assert _is_metric(a) == expected, a
        assert membership("RationalMetric", a) == expected, a


def test_metric_pair_with_two_distances_is_rejected():
    both = {(0, 1), (1, 0)}
    a = metric({0, 1}, {"d_1": both, "d_2": both})
    assert oracle_is_metric(a)  # the last distance won, so the clash went unseen
    assert not membership("RationalMetric", a)


# --- partial embeddings ------------------------------------------------------

SIGNATURES = (
    Signature((("E", 2),)),
    Signature((("E", 2), ("F", 2))),
    Signature((("P", 1), ("E", 2), ("T", 3))),
    Signature((("T", 3),)),
)


@st.composite
def relations(draw, sig, universe):
    """Random tuples over `universe` for every symbol, loops included."""
    points = sorted(universe)
    interp = {}
    for name, arity in sig.symbols:
        if not points:
            interp[name] = set()
            continue
        tup = st.tuples(*[st.sampled_from(points)] * arity)
        interp[name] = draw(st.sets(tup, max_size=3 * len(points) ** min(arity, 2)))
    return interp


@st.composite
def embedding_cases(draw):
    """(a, b, partial). Half the time b contains an image of a, so that
    many maps are embeddings; partial maps may be non-injective, and
    their keys and images may leave a's and b's universes."""
    sig = draw(st.sampled_from(SIGNATURES))
    universe_a = draw(st.sets(st.integers(0, 4), max_size=4))
    interp_a = draw(relations(sig, universe_a))
    a = validate_structure(sig, universe_a, interp_a)
    if draw(st.booleans()):
        image = draw(st.permutations(range(10, 10 + len(universe_a))))
        f = dict(zip(sorted(universe_a), image))
        extra = draw(st.sets(st.integers(15, 17), max_size=2))
        noise = draw(relations(sig, extra | set(image[:1])))
        interp_b = {
            name: {tuple(f[x] for x in t) for t in interp_a[name]} | noise[name]
            for name, _ in sig.symbols
        }
        b = validate_structure(sig, set(image) | extra, interp_b)
        keys = draw(st.sets(st.sampled_from(sorted(universe_a)), max_size=4)) if f else set()
        partial = {x: f[x] for x in keys}
    else:
        universe_b = draw(st.sets(st.integers(0, 5), max_size=5))
        b = validate_structure(sig, universe_b, draw(relations(sig, universe_b)))
        partial = {}
    for x, y in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 20)), max_size=3)):
        partial[x] = y  # may repeat an image or leave either universe
    return a, b, partial


@settings(max_examples=400, deadline=None)
@given(embedding_cases())
def test_is_partial_embedding_matches_the_tuple_scan(case):
    a, b, partial = case
    assert is_partial_embedding(a, b, partial) == oracle_is_partial_embedding(a, b, partial)


def test_is_partial_embedding_cases():
    sig = Signature((("P", 1), ("E", 2), ("T", 3)))
    a = validate_structure(sig, {0, 1}, {"P": {(0,)}, "E": {(0, 0), (0, 1)}, "T": {(0, 1, 1)}})
    b = validate_structure(sig, {5, 6}, {"P": {(5,)}, "E": {(5, 5), (5, 6)}, "T": {(5, 6, 6)}})
    assert is_partial_embedding(a, b, {0: 5, 1: 6})
    assert is_partial_embedding(a, b, {})
    for name in ("P", "E", "T"):  # drop one tuple from each symbol in turn
        interp = {s: set(b.rel(s)) for s in ("P", "E", "T")}
        interp[name].pop()
        assert not is_partial_embedding(a, validate_structure(sig, {5, 6}, interp), {0: 5, 1: 6})
    loopless = validate_structure(sig, {5, 6}, {"P": {(5,)}, "E": {(5, 6)}, "T": {(5, 6, 6)}})
    assert not is_partial_embedding(a, loopless, {0: 5})  # the loop at 0 is not preserved
    assert not is_partial_embedding(a, b, {0: 5, 1: 5})  # not injective: E(0, 1) becomes a loop
    assert not is_partial_embedding(a, b, {0: 5, 7: 5})  # 7 is outside a, but E(5, 5) holds
    assert is_partial_embedding(a, b, {1: 9})  # images outside b carry no tuples either


# --- membership verdicts kept on the structure ---------------------------------


def fresh_copy(a):
    """An equal structure with no cached views."""
    return pickle.loads(pickle.dumps(a))


def test_membership_matches_the_class_axioms():
    """On every member of up to 3 points, every one-point extension of the
    smaller members (members or not), every other class's members and a
    loop, each tag gets the verdict of its axioms, first from them and then
    from the cache, or SignatureMismatch both times."""
    pool = [validate_structure(GRAPH_SIG, {0}, {"E": {(0, 0)}})]
    for tag in TAGS:
        for size in range(4):
            for m in enumerate_members(tag, size):
                pool.append(m)
                if size < 3:
                    pool.extend(class_spec(tag).extensions(m, size))
    seen = {tag: set() for tag in TAGS}
    for a in pool:
        for tag in TAGS:
            b = fresh_copy(a)
            try:
                first = membership(tag, b)
            except SignatureMismatch:
                with pytest.raises(SignatureMismatch):
                    membership(tag, b)
                assert tag not in b.verdicts
                continue
            assert first == class_spec(tag).member(fresh_copy(a))
            assert membership(tag, b) == first and b.verdicts[tag] == first
            seen[tag].add(first)
    assert all(verdicts == {True, False} for verdicts in seen.values())


def test_membership_decides_each_tag_once(monkeypatch):
    spec = class_spec("PartialOrder")
    calls = []

    def member(a):
        calls.append(a)
        return spec.member(a)

    monkeypatch.setitem(SPECS, "PartialOrder", replace(spec, member=member))
    a = validate_structure(ORDER_SIG, {0, 1, 2}, {"<": {(0, 1), (1, 2)}})  # not transitive
    assert [membership("PartialOrder", a) for _ in range(3)] == [False] * 3
    assert len(calls) == 1
    assert not membership("LinearOrder", a)
    assert a.verdicts == {"PartialOrder": False, "LinearOrder": False}
    # The signature is still checked on every call.
    with pytest.raises(SignatureMismatch):
        membership("Graph", a)


def test_verdicts_stay_out_of_equality_hash_json_and_pickle():
    a = chain_structure([2, 0, 1])
    fresh = fresh_copy(a)
    assert membership("LinearOrder", a) and membership("PartialOrder", a)
    assert a.verdicts == {"LinearOrder": True, "PartialOrder": True}
    assert "verdicts" not in fresh.__dict__
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert dumps(a) == dumps(fresh) and pickle.dumps(a) == pickle.dumps(fresh)
    assert set(fresh_copy(a).__dict__) == {"sig", "universe", "interp"}


def test_seeded_linear_order_verdicts_match_the_pair_check(monkeypatch):
    """`chain_structure` seeds LinearOrder's verdict for a repeat-free seq.
    On every structure it makes in LinearOrder builds at seeds 0-3, in the
    members of up to 5 points and in the AP and SAP sweeps at bound 5, the
    pair check on a copy without cached views agrees and finds the same
    chain."""
    from genstruct.cli import default_schedule

    made = []

    def recording(seq):
        made.append(chain_structure(seq))
        return made[-1]

    for module in (classes, forcing):
        monkeypatch.setattr(module, "chain_structure", recording)
    monkeypatch.setattr(classes, "_MEMBER_CACHE", {})
    for seed in range(4):
        forcing.generic_build(forcing.empty_condition("LinearOrder"), default_schedule("LinearOrder", 12, 3), seed=seed)
    built = len(made)
    for size in range(6):
        enumerate_members("LinearOrder", size)
    enumerated = len(made)
    assert all(check_property("LinearOrder", prop, 5).holds for prop in ("AP", "SAP"))
    assert 0 < built < enumerated < len(made)
    for a in made:
        plain = fresh_copy(a)
        assert a.verdicts == {"LinearOrder": True} and _is_linear_order(plain), a
        assert plain.chain == a.chain


def test_a_repeated_seq_is_not_seeded_and_not_a_linear_order():
    a = chain_structure([0, 1, 0])
    assert "verdicts" not in a.__dict__ and "chain" not in a.__dict__
    assert not membership("LinearOrder", a) and not _is_linear_order(fresh_copy(a))
    with pytest.raises(StructureError):
        forcing.Condition("LinearOrder", chain_structure([2, 1, 2]))


# --- raw structures ------------------------------------------------------------


def oracle_is_digraph(a) -> bool:
    """The loop test as a generator over every tuple."""
    return all(t[0] != t[1] for t in a.rel("E"))


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 5), max_size=4), st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8))
def test_is_digraph_matches_the_generator_on_raw_structures(universe, arcs):
    """Raw structures, built without `validate_structure`: arcs and loops may
    leave the universe."""
    a = FinStructure(GRAPH_SIG, frozenset(universe), (("E", frozenset(arcs)),))
    assert _is_digraph(a) == oracle_is_digraph(a)


def test_is_digraph_sees_a_loop_outside_the_universe():
    a = FinStructure(GRAPH_SIG, frozenset({0, 1}), (("E", frozenset({(0, 1), (7, 7)})),))
    assert not _is_digraph(a) and not oracle_is_digraph(a)


def test_linear_graph_membership_rejects_an_edge_outside_the_universe():
    a = FinStructure(GRAPH_SIG, frozenset({0, 1}), (("E", frozenset({(0, 1), (1, 0), (1, 7), (7, 1)})),))
    assert membership("LinearGraph", a) is False


# Rows that each class takes on the points {0, 1, 7}.
ROWS_THROUGH_7 = {
    "Graph": {"E": {(1, 7), (7, 1)}},
    "Digraph": {"E": {(1, 7), (7, 1)}},
    "Tournament": {"E": {(0, 1), (0, 7), (1, 7)}},
    "LinearOrder": {"<": {(0, 1), (0, 7), (1, 7)}},
    "PartialOrder": {"<": {(1, 7)}},
    "RationalMetric": {"d_1": {(0, 1), (1, 0), (0, 7), (7, 0)}, "d_2": {(1, 7), (7, 1)}},
    "LinearGraph": {"E": {(1, 7), (7, 1)}},
}


@pytest.mark.parametrize("tag", TAGS)
def test_membership_rejects_a_tuple_outside_the_universe(tag):
    """The rows of a member on {0, 1, 7}, kept raw on {0, 1}: no member, and
    no KeyError from an axiom that looks the stray point up."""
    sig = class_spec(tag).sig or Signature((("d_1", 2), ("d_2", 2)))
    rows = ROWS_THROUGH_7[tag]
    assert membership(tag, validate_structure(sig, {0, 1, 7}, rows))
    raw = FinStructure(sig, frozenset({0, 1}), tuple((name, frozenset(rows.get(name, ()))) for name in sig.names()))
    assert membership(tag, raw) is False
