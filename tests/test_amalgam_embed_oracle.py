"""The amalgam's embedding checks and the metric signature alignment,
compared with the validating constructors they stand in for.

`structures._check_rows`, the one side check of every amalgam, checks
both sides' embeddings against rows the caller already holds: the
result's rows on the image of each side, compared by set operations with
that side's rows as the glue received them.  Metric sides are not padded
for it; `oracle_check_rows` pads them with `align` first.
`structures._glued`, the constructor of every glue result, checks only
the tuples a glue adds to its two validated sides.  `make_embedding` and
`validate_structure` are the oracles.  The CLI pins are the sha256 of
`genstruct amalgamate --op class` output on three fixed triples; the
metric one glues a distance, 3, that neither side uses, so the result's
signature grows and both sides are padded.
"""

import hashlib
import json
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from genstruct import classes
from genstruct.classes import SPECS, _align_signature, align, check_property, membership
from genstruct.cli import main
from genstruct.forcing import Condition, common_extension
from genstruct.structures import (
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatch,
    StructureError,
    TupleOutOfUniverse,
    _check_rows,
    _glued,
    empty_structure,
    inclusion_embedding,
    induced_substructure,
    make_embedding,
    relabel,
    validate_structure,
)
from test_amalgam_oracle import (
    VERDICT_DIGESTS,
    always,
    oracle_amalgamation_verdict,
    tied_to_largest_shared_only,
    verdict_json,
)


def symmetric(pairs):
    return sorted([list(p) for x, y in pairs for p in ((x, y), (y, x))])


def metric_json(universe, dist):
    interp = {name: symmetric([p for p, d in dist.items() if d == name]) for name in ("d_1", "d_2")}
    return {"sig": [["d_1", 2], ["d_2", 2]], "universe": universe, "interp": interp}


def graph_json(universe, edges, arcs=False):
    return {"sig": [["E", 2]], "universe": universe,
            "interp": {"E": sorted(map(list, edges)) if arcs else symmetric(edges)}}


CLI_TRIPLES = {
    "RationalMetric": (
        metric_json([0, 1], {(0, 1): "d_1"}),
        metric_json([0, 1, 2], {(0, 1): "d_1", (0, 2): "d_2", (1, 2): "d_1"}),
        metric_json([0, 1, 3], {(0, 1): "d_1", (0, 3): "d_2", (1, 3): "d_2"}),
        "d1313f2254afb7dd2f3a273ed6463eca7e3fd10eb5c10f2cb1feedbfc0a85c90",
    ),
    "Tournament": (
        graph_json([0, 1], [(0, 1)], arcs=True),
        graph_json([0, 1, 2], [(0, 1), (2, 0), (1, 2)], arcs=True),
        graph_json([0, 1, 5], [(0, 1), (0, 5), (5, 1)], arcs=True),
        "4efbfac65cc1dcd859ba901402b8e4d9880fbb804b7fc10eca81d6be1806236b",
    ),
    "Graph": (
        graph_json([0, 1], [(0, 1)]),
        graph_json([0, 1, 2], [(0, 1), (1, 2)]),
        graph_json([0, 1, 4], [(0, 1), (0, 4)]),
        "34f9f61e62ec57e6db76cd0a497e3879cd6772d62a21020f0574a34183d3cfea",
    ),
}


@pytest.mark.parametrize("tag", sorted(CLI_TRIPLES))
def test_cli_class_amalgam_bytes_pinned(tmp_path, tag):
    *triple, digest = CLI_TRIPLES[tag]
    paths = []
    for role, data in zip(("base", "left", "right"), triple):
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(data))
        paths += [f"--{role}", str(path)]
    out = tmp_path / "amalgam.json"
    assert main(["amalgamate", "--op", "class", "--class", tag, *paths, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# --- the row check against make_embedding ---------------------------------------

SIGS = (
    Signature((("E", 2),)),
    Signature((("U", 1), ("E", 2))),
    Signature((("R", 3),)),
    Signature((("d_1", 2), ("d_2", 2), ("d_3", 2))),
)


def one_side(source, target, mapping, image):
    """The side check of `source` alone: the left side is empty."""
    _check_rows(target, empty_structure(source.sig), source, mapping, image)


def outcome(check, *args):
    """None if `check` accepts its arguments, else the type and message it
    raises: `make_embedding` and the side check raise alike."""
    try:
        check(*args)
    except StructureError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def structures_on(draw, sig, universe):
    interp = {}
    for name, arity in sig.symbols:
        tuples = list(product(sorted(universe), repeat=arity))
        interp[name] = set(draw(st.lists(st.sampled_from(tuples), max_size=6))) if tuples else set()
    return validate_structure(sig, universe, interp)


def without_empty_symbols(a):
    """`a` over only the symbols it uses, as a metric space's own signature is."""
    rows = {name: tuples for name, tuples in a.interp if tuples}
    return validate_structure(Signature(tuple((n, a.sig.arity(n)) for n in rows)), a.universe, rows)


@st.composite
def embedding_cases(draw):
    """(source, target, mapping, image): mostly a total injective map whose
    image rows the target repeats, or repeats but for one tuple; sometimes
    a map with a wrong domain, a collision, a point outside the target, or
    a target over another signature.  `image` is relabel(source, mapping)
    when that exists, at times without its empty symbols."""
    sig = draw(st.sampled_from(SIGS))
    source = draw(structures_on(sig, set(draw(st.sets(st.integers(0, 5), max_size=3)))))
    target_sig = sig if draw(st.integers(0, 9)) else draw(st.sampled_from(SIGS))
    if draw(st.booleans()):
        mapping = draw(st.one_of(
            st.dictionaries(st.integers(0, 6), st.integers(0, 8), max_size=4),
            st.fixed_dictionaries({x: st.integers(0, 4) for x in source.universe}),
        ))
        target = draw(structures_on(target_sig, set(draw(st.sets(st.integers(0, 8), max_size=5)))))
    else:
        images = draw(st.permutations(range(8)))[:len(source)]
        mapping = dict(zip(source.sorted_universe(), images))
        copy = relabel(source, mapping)
        points = set(images) | draw(st.sets(st.integers(0, 9), max_size=2))
        if points and draw(st.integers(0, 5)) == 0:
            points.discard(draw(st.sampled_from(sorted(points))))
        noise = draw(structures_on(target_sig, points))
        interp = {name: {t for t in tuples if not copy.universe.issuperset(t)} for name, tuples in noise.interp}
        if target_sig == sig:
            for name, tuples in copy.interp:
                interp[name] |= {t for t in tuples if points.issuperset(t)}
        name, arity = draw(st.sampled_from(target_sig.symbols))
        flips = list(product(sorted(points), repeat=arity))
        if flips and draw(st.booleans()):
            interp[name] ^= {draw(st.sampled_from(flips))}
        target = validate_structure(target_sig, points, interp)
    bijective = set(mapping) == set(source.universe) and len(set(mapping.values())) == len(mapping)
    image = relabel(source, mapping) if bijective else source
    if bijective and draw(st.booleans()):
        image = without_empty_symbols(image)
    return source, target, mapping, image


@settings(max_examples=600, deadline=None)
@given(embedding_cases())
def test_row_check_accepts_exactly_what_make_embedding_accepts(case):
    source, target, mapping, image = case
    assert outcome(one_side, source, target, mapping, image) == outcome(
        make_embedding, source, target, mapping)


@st.composite
def two_side_cases(draw):
    """(left, source, target, mapping, image): an `embedding_cases` case and
    a left side on some of the target's points, mostly induced by it; at
    times any structure there, with a point that may lie outside the
    target, or over another signature."""
    source, target, mapping, image = draw(embedding_cases())
    points = draw(st.sets(st.sampled_from(sorted(target.universe)), max_size=4)) if target.universe else set()
    left = induced_substructure(target, points)
    if draw(st.integers(0, 2)) == 0:
        sig = target.sig if draw(st.integers(0, 5)) else draw(st.sampled_from(SIGS))
        left = draw(structures_on(sig, points | draw(st.sets(st.integers(0, 9), max_size=1))))
    return left, source, target, mapping, image


@settings(max_examples=600, deadline=None)
@given(two_side_cases())
def test_two_side_check_raises_the_first_make_embedding_error(case):
    left, source, target, mapping, image = case
    assert outcome(_check_rows, target, left, source, mapping, image) == (
        outcome(make_embedding, left, target, {x: x for x in left.universe})
        or outcome(make_embedding, source, target, mapping))


def test_row_check_failure_messages():
    e = Signature((("E", 2),))
    a = validate_structure(e, {0, 1}, {"E": {(0, 1)}})
    b = validate_structure(e, {0, 1, 2}, {"E": {(0, 1), (1, 2)}})
    cases = [
        (a, validate_structure(Signature((("F", 2),)), {0, 1}, {}), {0: 0, 1: 1}),
        (a, b, {0: 0}),
        (a, b, {0: 1, 1: 1}),
        (a, b, {0: 1, 1: 7}),
        (a, b, {0: 1, 1: 0}),
        (a, b, {0: 7, 1: 7}),  # not injective, and outside the target: injectivity is checked first
        (a, b, {0: 0, 1: 1}),
    ]
    for source, target, mapping in cases:
        image = relabel(source, mapping) if len(set(mapping.values())) == len(mapping) == 2 else source
        assert outcome(one_side, source, target, mapping, image) == outcome(
            make_embedding, source, target, mapping)
    assert outcome(make_embedding, *cases[-1]) is None
    assert [outcome(make_embedding, *case)[1] for case in cases[:-1]] == [
        "source and target signatures differ", "mapping domain must be the source universe",
        "mapping is not injective", "image point 7 not in target universe",
        "map does not preserve and reflect relations", "mapping is not injective",
    ]


# --- metric alignment against validate_structure ---------------------------------

DISTANCE_NAMES = ("d_1/2", "d_1", "d_3/2", "d_2", "d_3", "d_4")


@st.composite
def alignment_cases(draw):
    """A metric space over some distance symbols, and a signature over those
    symbols and others, in increasing order."""
    names = draw(st.lists(st.sampled_from(DISTANCE_NAMES), min_size=1, unique=True))
    sig = Signature(tuple((n, 2) for n in sorted(names, key=DISTANCE_NAMES.index)))
    points = sorted(draw(st.sets(st.integers(0, 6), max_size=4)))
    interp = {}
    for x, y in combinations(points, 2):
        interp.setdefault(draw(st.sampled_from(sig.names())), set()).update({(x, y), (y, x)})
    a = validate_structure(sig, set(points), interp)
    if draw(st.booleans()):
        a = without_empty_symbols(a)
    extra = draw(st.sets(st.sampled_from(DISTANCE_NAMES)))
    wider = sorted(set(a.sig.names()) | extra, key=DISTANCE_NAMES.index)
    return a, Signature(tuple((n, 2) for n in wider))


@settings(max_examples=300, deadline=None)
@given(alignment_cases())
def test_align_signature_matches_validating_oracle(case):
    a, sig = case
    out = _align_signature(a, sig)
    expected = validate_structure(sig, set(a.universe), {n: set(ts) for n, ts in a.interp})
    assert out == expected
    assert out.sig == expected.sig
    assert out.interp == expected.interp


def test_align_signature_rejects_a_signature_that_does_not_contain_the_input():
    a = validate_structure(Signature((("d_1", 2), ("d_2", 2))), {0, 1}, {"d_1": {(0, 1), (1, 0)}})
    for sig in (Signature((("d_1", 2),)), Signature((("d_1", 2), ("d_2", 3))), Signature(())):
        with pytest.raises(SignatureMismatch, match="does not contain"):
            _align_signature(a, sig)


# --- broken glues against the make_embedding amalgam ------------------------------


def oracle_check_rows(tag):
    """The side check by `make_embedding`, which ignores `image`, on copies
    of the tagged class's structures over one signature (`align`)."""

    def check(target, left, source, mapping, image):
        target, left, source = align(tag, target, left, source)
        make_embedding(left, target, {x: x for x in left.universe})
        make_embedding(source, target, mapping)

    return check


def one_more_tuple(tag, glue, region):
    """`glue`, but on the first pair of `region` that can take it, the pair
    gets one more tuple: (x, y) joins a symbol that lacks it, with (y, x)
    too in a symmetric class, and the pair's other tuples go.  Only changes
    that keep the result in the class count.  The region is a pair inside
    the left side, a pair inside the right side's image with a right-only
    point, or a left-only and a right-only point."""
    symmetric = SPECS[tag].symmetric

    def broken(a, b):
        out = glue(a, b)
        if region == "left":
            pairs = permutations(a.sorted_universe(), 2)
        elif region == "right":
            pairs = [p for p in permutations(b.sorted_universe(), 2) if not a.universe.issuperset(p)]
        else:
            pairs = product(sorted(a.universe - b.universe), sorted(b.universe - a.universe))
        for x, y in pairs:
            gone = {(x, y), (y, x)}
            for name, tuples in out.interp:
                if (x, y) in tuples:
                    continue
                interp = {n: set(ts) - gone for n, ts in out.interp}
                interp[name] |= gone if symmetric else {(x, y)}
                variant = validate_structure(out.sig, out.universe, interp)
                if membership(tag, variant):
                    return variant
        return out

    return broken


@pytest.mark.parametrize("tag", ("Graph", "Tournament", "RationalMetric"))
@pytest.mark.parametrize("region", ("left", "right", "across"))
@pytest.mark.parametrize("prop", ("AP", "SAP"))
def test_one_more_tuple_counterexamples_match_make_embedding(monkeypatch, tag, region, prop):
    monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], glue=one_more_tuple(tag, SPECS[tag].glue, region)))
    verdict = check_property(tag, prop, 3)
    monkeypatch.setattr(classes, "_check_rows", oracle_check_rows(tag))
    assert verdict_json(verdict) == verdict_json(oracle_amalgamation_verdict(tag, prop, 3))
    if region == "across":
        assert verdict.holds
    else:
        assert verdict.counterexample["detail"] == "map does not preserve and reflect relations"


def drop_new_point(glue, side, when):
    """`glue`, but the result loses the last point of one side outside the
    other, with its tuples: of a outside b for side "left", of b outside a
    for "right".  Only when the two sides share points and `when(other,
    own, x)` holds, `own` being the side of the dropped point x."""

    def broken(a, b):
        out = glue(a, b)
        own, other = (a, b) if side == "left" else (b, a)
        new = sorted(own.universe - other.universe)
        if not (a.universe & b.universe) or not new or not when(other, own, new[-1]):
            return out
        x = new[-1]
        return validate_structure(out.sig, out.universe - {x}, {
            name: {t for t in tuples if x not in t} for name, tuples in out.interp
        })

    return broken


# sha256 of the AP and SAP verdicts at bounds 2 and 3, in that order, one
# JSON text a line: every one reports "image point ... not in target
# universe" or, for the left RationalMetric point tied to the largest
# shared point only, holds.
DROPPED_POINT_DIGESTS = {
    ("Graph", "left", "always"): "c582aec16003c63803f04857d2edef990a195d4885d1bed5833a3da330f71a26",
    ("Graph", "right", "always"): "8a23cca92c27c6cccdc98a1d50f04bb996a630f317ed8127198a2613f4bcad60",
    ("Digraph", "left", "always"): "c582aec16003c63803f04857d2edef990a195d4885d1bed5833a3da330f71a26",
    ("Digraph", "right", "always"): "8a23cca92c27c6cccdc98a1d50f04bb996a630f317ed8127198a2613f4bcad60",
    ("RationalMetric", "left", "always"): "47c40b0671b236e37cf0ec3112e660bf222d2f2fbcac0979641d8c5e1fab306f",
    ("RationalMetric", "right", "always"): "2947ddc1b7b28883deeb9b88a0063db5575ffd97071e8ca172a547dbb7903e36",
    ("Graph", "left", "tied"): "f2bb2cc7c4ed0c8dded7e223644d9e00454f09b5ce4b0a73e4939acbf22ecebc",
    ("Graph", "right", "tied"): "d25dded52e82816f9a16695e78a4fcc7c43eed57dcfd4da369068145347fe278",
    ("Digraph", "left", "tied"): "3ed41146380a985026f127c858ef48dadb87d05a887afdcf0f890c452adbaaca",
    ("Digraph", "right", "tied"): "9e4842cc6a589e190fd01e44763261863c7e57a9ddd593b410fd46e3c95a7f24",
    ("RationalMetric", "left", "tied"): "09a850b39669c8de4409fcb580cf2c30246f210db9a7bb5560212bb7d9ef60fa",
    ("RationalMetric", "right", "tied"): "f1c4c8d26511d235b12ba8b2b1b0d866833049c03e84a0e0d72cd8042a63a974",
}


@pytest.mark.parametrize("tag, side, when", sorted(DROPPED_POINT_DIGESTS))
def test_dropped_point_counterexamples_match_make_embedding(monkeypatch, tag, side, when):
    glue = drop_new_point(SPECS[tag].glue, side, {"always": always, "tied": tied_to_largest_shared_only}[when])
    monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], glue=glue))
    cases = [(prop, bound) for prop in ("AP", "SAP") for bound in (2, 3)]
    texts = [verdict_json(check_property(tag, prop, bound)) for prop, bound in cases]
    monkeypatch.setattr(classes, "_check_rows", oracle_check_rows(tag))
    assert texts == [verdict_json(oracle_amalgamation_verdict(tag, prop, bound)) for prop, bound in cases]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == DROPPED_POINT_DIGESTS[(tag, side, when)]
    if when == "always":
        assert "image point" in json.loads(texts[-1])["counterexample"]["detail"]


# --- the row check on metric sides that are not padded ----------------------------


def over_names(names):
    return Signature(tuple((n, 2) for n in sorted(set(names), key=DISTANCE_NAMES.index)))


@st.composite
def unpadded_metric_cases(draw):
    """(target, left, source, mapping, image) cut from one space over
    distance symbols, each over the symbols it uses and some others, as a
    metric space lists its own: left and image are induced by the target.
    At times the target then loses a point, of either side or neither, or
    one pair, mostly of a side, moves to another symbol, maybe one neither
    side has, or leaves every symbol."""

    def own_signature(a):
        rows = {name: tuples for name, tuples in a.interp if tuples}
        return validate_structure(over_names([*rows, *draw(st.sets(st.sampled_from(DISTANCE_NAMES)))]),
                                  a.universe, rows)

    points = sorted(draw(st.sets(st.integers(0, 9), max_size=5)))
    names = draw(st.lists(st.sampled_from(DISTANCE_NAMES), min_size=1, unique=True))
    interp = {}
    for x, y in combinations(points, 2):
        interp.setdefault(draw(st.sampled_from(names)), set()).update({(x, y), (y, x)})
    world = validate_structure(over_names(names), set(points), interp)
    left = own_signature(induced_substructure(world, draw(st.sets(st.sampled_from(points), max_size=4)) if points else set()))
    inside = sorted(draw(st.sets(st.sampled_from(points), max_size=4))) if points else []
    back = dict(zip(inside, draw(st.permutations(range(6)))))
    source = own_signature(relabel(induced_substructure(world, inside), back))
    mapping = {y: x for x, y in back.items()}
    image = relabel(source, mapping)
    fault = draw(st.sampled_from((None, "drop", "move", "erase")))
    if fault == "drop" and points:
        world = induced_substructure(world, set(points) - {draw(st.sampled_from(points))})
    elif fault in ("move", "erase") and len(points) >= 2:
        sides = sorted(left.universe | set(inside))
        x, y = draw(st.sampled_from(list(combinations(sides if len(sides) >= 2 else points, 2))))
        rows = {name: set(tuples) - {(x, y), (y, x)} for name, tuples in world.interp}
        if fault == "move":
            rows.setdefault(draw(st.sampled_from(DISTANCE_NAMES)), set()).update({(x, y), (y, x)})
        world = validate_structure(over_names(rows), world.universe, rows)
    return own_signature(world), left, source, mapping, image


@settings(max_examples=500, deadline=None)
@given(unpadded_metric_cases())
def test_row_check_on_unpadded_metric_sides_matches_the_aligned_oracle(case):
    assert outcome(_check_rows, *case) == outcome(oracle_check_rows("RationalMetric"), *case)


def test_row_check_examples_on_unpadded_metric_sides():
    # The sides' signatures differ from the target's, which lacks point 1:
    # the padded check names the point, not the signatures.
    left = validate_structure(over_names(["d_1"]), {0, 1}, {"d_1": {(0, 1), (1, 0)}})
    target = validate_structure(over_names(["d_2", "d_4"]), {0, 2}, {"d_4": {(0, 2), (2, 0)}})
    image = validate_structure(over_names(["d_4"]), {0, 2}, {"d_4": {(0, 2), (2, 0)}})
    oracle = oracle_check_rows("RationalMetric")
    dropped = (StructureError, "image point 1 not in target universe")
    for case in ((target, left, image, {0: 0, 2: 2}, image), (target, image, left, {0: 0, 1: 1}, left)):
        assert outcome(_check_rows, *case) == outcome(oracle, *case) == dropped
    # The pair {0, 1} of either side is in no symbol of a target that has
    # both points and lacks the side's symbol d_1.
    target = validate_structure(over_names(["d_2"]), {0, 1, 2}, {"d_2": {(0, 2), (2, 0)}})
    broken = (StructureError, "map does not preserve and reflect relations")
    for case in ((target, left, image, {0: 0, 2: 2}, image), (target, image, left, {0: 0, 1: 1}, left)):
        assert outcome(_check_rows, *case) == outcome(oracle, *case) == broken


def test_metric_sweep_makes_no_padded_copy_per_glue(monkeypatch):
    # Padding the sides and the result of each glue made 1,817 copies for
    # 1,157 glues; aligning the members themselves needs one per member.
    copies = []

    def counted(a, sig):
        copies.append(a)
        return _align_signature(a, sig)

    monkeypatch.setattr(classes, "_align_signature", counted)
    assert check_property("RationalMetric", "AP", 3).holds
    assert len(copies) <= 20


def test_linear_graph_search_skips_an_identification_that_adds_an_edge_inside_a_side():
    # The strong union gives 0 degree 3.  Identifying right's 2 with left's 2
    # gives a path, but adds the edge 1-2 inside the left side, so the row
    # check must reject it and the search take right's 3 -> 2 instead.
    def graph(universe, edges):
        return validate_structure(Signature((("E", 2),)), set(universe),
                                  {"E": {t for x, y in edges for t in ((x, y), (y, x))}})

    base, left = graph({0, 1}, []), graph({0, 1, 2}, [(0, 2)])
    right = graph({0, 1, 2, 3}, [(1, 2), (2, 0), (0, 3)])
    am = classes.amalgamate("LinearGraph", inclusion_embedding(base, left), inclusion_embedding(base, right))
    assert am.result == graph({0, 1, 2, 3}, [(0, 2), (0, 3), (1, 3)])
    assert am.emb_right.as_dict() == {0: 0, 1: 1, 2: 3, 3: 2}


# --- glue results built from checked sides ----------------------------------------


def raw_left_with_a_stray_arc():
    """A left side built without `validate_structure`: the arc (1, 7) leaves
    its universe {0, 1}, and the right side has no 7."""
    e = Signature((("E", 2),))
    base = validate_structure(e, {0}, {})
    left = FinStructure(e, frozenset({0, 1}), (("E", frozenset({(0, 1), (1, 7)})),))
    right = validate_structure(e, {0, 2}, {"E": {(0, 2)}})
    return base, left, right


@pytest.mark.parametrize("tag", ("Digraph", "Tournament"))
def test_amalgamate_rejects_a_raw_side_with_a_tuple_outside_its_universe(tag):
    base, left, right = raw_left_with_a_stray_arc()
    f, g = Embedding(base, left, ((0, 0),)), Embedding(base, right, ((0, 0),))
    with pytest.raises(TupleOutOfUniverse) as info:
        classes.amalgamate(tag, f, g)
    assert str(info.value) == "E(1, 7): 7 not in universe"


def test_a_raw_condition_with_a_stray_arc_is_rejected():
    """Membership tests that every tuple lies in the universe, so the raw
    left side is no condition."""
    _, left, right = raw_left_with_a_stray_arc()
    assert Condition("Digraph", right)
    with pytest.raises(StructureError, match="^condition body is not a Digraph member$"):
        Condition("Digraph", left)


@pytest.mark.parametrize("swap", (False, True))
def test_common_extension_of_a_raw_side_with_a_negative_point_is_none(swap):
    """A raw side on {-1, 0} is a Digraph, so it makes a condition, but no
    structure: its free union with the right side would be a Digraph that
    carries both sides' rows, so only validating the sides rejects it."""
    _, _, right = raw_left_with_a_stray_arc()
    left = FinStructure(right.sig, frozenset({-1, 0}), (("E", frozenset({(0, -1)})),))
    sides = (Condition("Digraph", left), Condition("Digraph", right))
    assert common_extension(*sides[::-1] if swap else sides) is None


def validating_glued(sig, a, b, new, rows=None):
    """`_glued` by `validate_structure` over every tuple of the result."""
    rows = {name: a.rel(name) | b.rel(name) for name in sig.names()} if rows is None else rows
    return validate_structure(sig, a.universe | b.universe,
                              {name: set(rows.get(name, ())) | set(new.get(name, ())) for name in [*rows, *new]})


def test_sweep_with_fully_validated_glues_gives_the_pinned_verdicts(monkeypatch):
    monkeypatch.setattr(classes, "_glued", validating_glued)
    for (tag, prop, bound), digest in VERDICT_DIGESTS.items():
        text = verdict_json(check_property(tag, prop, bound))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (tag, prop, bound)


@st.composite
def glue_cases(draw):
    """(sig, a, b, new): two structures on overlapping universes and the
    tuples a glue adds, at times one of them over an unknown symbol, of
    the wrong arity or with a point outside both universes."""
    sig = draw(st.sampled_from(SIGS))
    a = draw(structures_on(sig, draw(st.sets(st.integers(0, 4), max_size=3))))
    b = draw(structures_on(sig, draw(st.sets(st.integers(2, 6), max_size=3))))
    points = sorted(a.universe | b.universe)
    new = {}
    for name, arity in sig.symbols:
        tuples = list(product(points, repeat=arity))
        new[name] = set(draw(st.lists(st.sampled_from(tuples), max_size=4))) if tuples else set()
    fault = draw(st.sampled_from((None, None, "symbol", "arity", "point")))
    name, arity = sig.symbols[0]
    if fault == "symbol":
        new["X"] = {(0,) * arity}
    elif fault == "arity":
        new[name].add(tuple(points[:1] or [0]) * (arity + 1))
    elif fault == "point":
        new[name].add((9,) * arity)
    return sig, a, b, new


@settings(max_examples=400, deadline=None)
@given(glue_cases())
def test_glued_matches_validate_structure_over_the_whole(case):
    sig, a, b, new = case
    assert outcome(_glued, sig, a, b, new) == outcome(validating_glued, sig, a, b, new)
    if outcome(_glued, sig, a, b, new) is None:
        out, expected = _glued(sig, a, b, new), validating_glued(sig, a, b, new)
        assert (out, out.sig, out.interp) == (expected, expected.sig, expected.interp)


def test_glued_new_tuple_faults_raise_validate_structure_errors():
    e = Signature((("E", 2),))
    a = validate_structure(e, {0, 1}, {"E": {(0, 1)}})
    b = validate_structure(e, {1, 2}, {"E": {(1, 2)}})
    whole = {"E": {(0, 1), (1, 2)}}
    with pytest.raises(TupleOutOfUniverse) as info:
        _glued(e, a, b, {"E": {(0, 5)}})
    assert str(info.value) == "E(0, 5): 5 not in universe"
    assert outcome(_glued, e, a, b, {"E": {(0, 5)}}) == outcome(
        validate_structure, e, {0, 1, 2}, {"E": whole["E"] | {(0, 5)}})
    assert outcome(_glued, e, a, b, {"E": {(0, 1, 2)}}) == outcome(
        validate_structure, e, {0, 1, 2}, {"E": whole["E"] | {(0, 1, 2)}}) == (
        StructureError, "tuple (0, 1, 2) has wrong arity for E")
    assert _glued(e, a, b, {}) == validate_structure(e, {0, 1, 2}, whole)
