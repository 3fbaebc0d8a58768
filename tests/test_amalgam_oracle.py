"""Property verdicts of the amalgamation checks, pinned and compared with
reference implementations.

`oracle_amalgam_instances` is the full instance loop: every pair (f, g)
of embeddings of every base into every left and right member, with the
embeddings listed again for each left.  `oracle_amalgam_failure` checks
one instance: with SAP by the public `amalgamate`, checked by
`validate_amalgam` (the result's membership, and connectedness when
asked, then the square and image checks), for LinearGraph by the
linear-graph amalgams as they were built before they went through
`glue_and_check`
(`oracle_linear_graph_failure`): the union over the base with its own
obstruction checks, or the identification search, bridged into one path
over the connected members, each result checked by `validate_amalgam`.
Both read the class glue, so a broken glue reaches them.
`square_verdict` is the square and image test on plain maps.  The sweep
does not run it, as `_right_map` makes it hold; a test runs it on every
pair that the sweep's `_solve` amalgamates.
`oracle_jep_verdict` is JEP's own loop over (left, right) member pairs,
each amalgamated over an empty base by `make_embedding`.
`oracle_glue_metrics` is the metric glue in exact `Fraction` arithmetic
over a pair-distance map.  `oracle_identify_and_glue` is LinearGraph's
identification search as it was before it skipped the identifications
that give a point more than two neighbours.

The pins are the sha256 digests of the canonical JSON of every
`check_property` verdict in the benchmark's class sweep: each class, each
property, at bound 4, or at bound 3 where bound 4 takes seconds; of
LinearGraph's and LinearOrder's four verdicts at bounds 5 and 6; of
Graph's and Tournament's four verdicts at bound 5; and of PartialOrder's
HP and JEP at bound 5.  The
JSON is encoded as the benchmark worker encodes a verdict: `holds` and
`counterexample`, structures through `to_json_dict`, sorted keys and
compact separators.
"""

import hashlib
import json
import pickle
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from genstruct import classes
from genstruct.classes import (
    AmalgamationImpossible,
    PropertyVerdict,
    SPECS,
    TAGS,
    _amalgam,
    _amalgam_instances,
    _degrees,
    _glue_metrics,
    _identify_and_glue,
    _is_connected_graph,
    _is_forest,
    _partial_injections,
    _property_members,
    _setup_amalgam,
    _solve,
    align,
    amalgamate,
    check_property,
    class_spec,
    enumerate_members,
    membership,
    metric_distances,
    metric_structure,
    metric_symbol,
)
from genstruct.structures import (
    FinStructure,
    GRAPH_SIG,
    Signature,
    StructureError,
    _check_rows,
    empty_structure,
    enumerate_embeddings,
    fresh_ids,
    make_embedding,
    relabel,
    to_json_dict,
    validate_structure,
)

# --- oracles -----------------------------------------------------------------


def square_verdict(fm, gm, lm, rm, strong, left_image):
    """The square and image checks of an amalgam on plain maps: f and g as
    fm and gm, the left and right embeddings as lm and rm, and lm's image
    set."""
    for a in fm:
        if lm[fm[a]] != rm[gm[a]]:
            return "square does not commute"
    if strong:
        base_image = {lm[fm[a]] for a in fm}
        if left_image & set(rm.values()) != base_image:
            return "images overlap beyond the base"
    return None


def validate_amalgam(tag, f, g, amalgam, strong, connected=False):
    """The checker of a built amalgam: its result in the class (and one
    path when `connected`), then the square and image checks on its
    embeddings' maps."""
    if not membership(tag, amalgam.result):
        return "result not in class"
    if connected and not _is_connected_graph(amalgam.result):
        return "result not connected"
    return square_verdict(f.as_dict(), g.as_dict(), amalgam.emb_left.as_dict(), amalgam.emb_right.as_dict(),
                          strong, {y for _, y in amalgam.emb_left.mapping})


def oracle_amalgam_instances(tag, size_bound, connected):
    members = _property_members(tag, size_bound, connected)
    for base in members:
        for left in members:
            if len(left) < len(base):
                continue
            fs = enumerate_embeddings(base, left)
            if not fs:
                continue
            for right in members:
                if len(right) < len(base):
                    continue
                gs = enumerate_embeddings(base, right)
                for f in fs:
                    for g in gs:
                        yield base, left, right, f, g


def oracle_identify_and_glue(tag, b, c, map_c):
    """`_identify_and_glue` as it was before it skipped identifications
    that overload a point: every identification is relabelled and glued."""
    images = set(map_c.values())
    fresh = sorted(images - b.universe)
    for ident in _partial_injections(fresh, sorted(b.universe - images)):
        ident.update(zip([y for y in fresh if y not in ident], fresh))
        map_i = {x: ident.get(y, y) for x, y in map_c.items()}
        try:
            return classes.glue_and_check(tag, b, c, map_i, relabel(c, map_i)), map_i
        except StructureError:
            continue
    raise AmalgamationImpossible("no linear graph amalgam exists")


def oracle_strong_linear_graph_amalgam(tag, f, g, connected):
    """The union over the base, bridged into one path when `connected`.

    Bridging through fresh points can always connect a valid union, so
    the only obstructions are an overloaded vertex or a forced cycle in
    the union; AmalgamationImpossible names the one found.  They are
    checked on the union of the two sides' arcs, before the class glue
    builds the result.
    """
    b, c, map_c, image_c = _setup_amalgam(f, g)
    union = validate_structure(GRAPH_SIG, b.universe | image_c.universe, {"E": b.rel("E") | image_c.rel("E")})
    deg = Counter(x for x, _ in union.rel("E"))
    overloaded = sorted(x for x, d in deg.items() if d > 2)
    if overloaded:
        raise AmalgamationImpossible(
            f"vertex {overloaded[0]} gets degree {deg[overloaded[0]]} in any strong amalgam"
        )
    if not _is_forest(union):
        raise AmalgamationImpossible("the union over the base contains a cycle")
    result = class_spec(tag).glue(b, image_c)
    result = oracle_bridge_components(result, b.universe | image_c.universe) if connected else result
    _check_rows(result, b, c, map_c, image_c)
    return _amalgam(b, c, result, map_c)


def oracle_bridge_components(structure, sides):
    """Chain the path components into one path with bridge points fresh
    for the structure and for the `sides` points, so that a glue that
    drops a side's point is not mended by a bridge of the same id."""
    comps = structure.components
    if len(comps) <= 1:
        return structure
    rel, universe, deg = set(structure.rel("E")), set(structure.universe), _degrees(structure)
    bridges = fresh_ids(universe | sides, len(comps) - 1)
    ends = [sorted(x for x in comp if deg.get(x, 0) <= 1) for comp in comps]
    for i, z in enumerate(bridges):
        left_end = [x for x in ends[i] if deg[x] <= 1][-1]
        right_end = [x for x in ends[i + 1] if deg[x] <= 1][0]
        rel.update({(left_end, z), (z, left_end), (z, right_end), (right_end, z)})
        deg[left_end] += 1
        deg[right_end] += 1
        deg[z] = 2
        universe.add(z)
    return validate_structure(GRAPH_SIG, universe, {"E": rel})


def oracle_amalgamate_linear_graph(tag, f, g, connected):
    """Search amalgams of linear graphs, identifications allowed.

    Tries the strong union first, then partial identifications of the two
    new sides, smallest first, each glued by the class glue.  With
    `connected` the result is bridged into a single path (inputs must
    then be connected themselves).
    """
    b, c = f.target, g.target
    fm, gm = f.as_dict(), g.as_dict()
    base_map = {gm[a]: fm[a] for a in fm}
    left_new = [x for x in b.sorted_universe() if x not in set(fm.values())]
    right_new = [x for x in c.sorted_universe() if x not in base_map]

    for ident in _partial_injections(right_new, left_new):
        unmatched = [x for x in right_new if x not in ident]
        map_c = {**base_map, **ident, **dict(zip(unmatched, fresh_ids(b.universe, len(unmatched))))}
        image_c = relabel(c, map_c)
        try:
            candidate = class_spec(tag).glue(b, image_c)
        except StructureError:
            continue
        if not membership(tag, candidate):
            continue
        try:  # identification must not create adjacencies inside either image
            result = oracle_bridge_components(candidate, b.universe | image_c.universe) if connected else candidate
            _check_rows(result, b, c, map_c, image_c)
        except StructureError:
            continue
        return _amalgam(b, c, result, map_c)
    raise AmalgamationImpossible("no linear graph amalgam exists")


def oracle_linear_graph_failure(tag, f, g, strong, connected):
    """Build a LinearGraph amalgam and validate it; returns a failure
    reason or None.  A strong amalgam is the plain union over the base,
    when no obstruction rules it out; otherwise the search may identify
    points."""
    try:
        build = oracle_strong_linear_graph_amalgam if strong else oracle_amalgamate_linear_graph
        amalgam = build(tag, f, g, connected)
    except StructureError as exc:
        return str(exc)
    return validate_amalgam(tag, f, g, amalgam, strong=strong, connected=connected)


def oracle_amalgam_failure(tag, f, g, strong, connected):
    """One instance's failure reason, or None: with SAP the strong glue
    through `amalgamate`, checked by `validate_amalgam`; LinearGraph's
    union or identification search without."""
    if not class_spec(tag).sap:
        return oracle_linear_graph_failure(tag, f, g, strong, connected)
    try:
        amalgam = amalgamate(tag, f, g)
    except StructureError as exc:
        return str(exc)
    return validate_amalgam(tag, f, g, amalgam, strong=strong, connected=connected)


def oracle_jep_verdict(tag, size_bound):
    """JEP by its own loop: every (left, right) pair of members, in order,
    amalgamated over an empty base."""
    connected = not class_spec(tag).sap
    members = _property_members(tag, size_bound, connected)
    for left in members:
        for right in members:
            base = empty_structure(left.sig)
            f = make_embedding(base, left, {})
            g = make_embedding(base, right, {})
            reason = oracle_amalgam_failure(tag, f, g, strong=False, connected=connected)
            if reason is not None:
                return PropertyVerdict(False, {"left": left, "right": right, "detail": reason})
    return PropertyVerdict(True)


def oracle_amalgamation_verdict(tag, prop, size_bound):
    """The JEP / AP / SAP branch of `check_property` over every instance."""
    if prop == "JEP":
        return oracle_jep_verdict(tag, size_bound)
    connected = not class_spec(tag).sap
    for base, left, right, f, g in oracle_amalgam_instances(tag, size_bound, connected):
        reason = oracle_amalgam_failure(tag, f, g, strong=prop == "SAP", connected=connected)
        if reason is not None:
            return PropertyVerdict(False, {
                "base": base, "left": left, "right": right,
                "f": f.as_dict(), "g": g.as_dict(), "detail": reason,
            })
    return PropertyVerdict(True)


def oracle_glue_metrics(a, b):
    dist_a, dist_b = metric_distances(a), metric_distances(b)
    dist = {**dist_a, **dist_b}
    base = sorted(a.universe & b.universe)
    cross = list(product(sorted(a.universe - b.universe), sorted(b.universe - a.universe)))
    if base:
        for x, y in cross:
            dist[frozenset((x, y))] = min(
                dist_a[frozenset((x, r))] + dist_b[frozenset((r, y))] for r in base
            )
    else:
        diam = max([*dist_a.values(), *dist_b.values(), Fraction(1)])
        for x, y in cross:
            dist[frozenset((x, y))] = diam
    return metric_structure(a.universe | b.universe, dist)


def partial_map(f, g):
    """The map g(a) -> f(a) through which every glue reads f and g."""
    fm = f.as_dict()
    return frozenset((y, fm[a]) for a, y in g.as_dict().items())


def right_image(f, g):
    """The right side renamed by the partial map g(a) -> f(a), its other
    points on the smallest naturals outside the left side, in order: the
    one input through which a strong glue reads f and g."""
    renaming = dict(partial_map(f, g))
    rest = [x for x in g.target.sorted_universe() if x not in renaming]
    renaming.update(zip(rest, fresh_ids(f.target.universe, len(rest))))
    return relabel(g.target, renaming)


HOLDS_DIGEST = "0dff80888d8f7ca55fe3a4327979d9d36adeffda1412e021d712a6ec4e647e86"

VERDICT_DIGESTS = {
    ("Graph", "HP", 4): HOLDS_DIGEST,
    ("Graph", "JEP", 4): HOLDS_DIGEST,
    ("Graph", "AP", 3): HOLDS_DIGEST,
    ("Graph", "SAP", 3): HOLDS_DIGEST,
    ("Digraph", "HP", 4): HOLDS_DIGEST,
    ("Digraph", "JEP", 3): HOLDS_DIGEST,
    ("Digraph", "AP", 3): HOLDS_DIGEST,
    ("Digraph", "SAP", 3): HOLDS_DIGEST,
    ("Tournament", "HP", 4): HOLDS_DIGEST,
    ("Tournament", "JEP", 4): HOLDS_DIGEST,
    ("Tournament", "AP", 4): HOLDS_DIGEST,
    ("Tournament", "SAP", 4): HOLDS_DIGEST,
    ("LinearOrder", "HP", 4): HOLDS_DIGEST,
    ("LinearOrder", "JEP", 4): HOLDS_DIGEST,
    ("LinearOrder", "AP", 4): HOLDS_DIGEST,
    ("LinearOrder", "SAP", 4): HOLDS_DIGEST,
    ("PartialOrder", "HP", 4): HOLDS_DIGEST,
    ("PartialOrder", "JEP", 4): HOLDS_DIGEST,
    ("PartialOrder", "AP", 3): HOLDS_DIGEST,
    ("PartialOrder", "SAP", 3): HOLDS_DIGEST,
    ("RationalMetric", "HP", 4): HOLDS_DIGEST,
    ("RationalMetric", "JEP", 3): HOLDS_DIGEST,
    ("RationalMetric", "AP", 3): HOLDS_DIGEST,
    ("RationalMetric", "SAP", 3): HOLDS_DIGEST,
    ("LinearGraph", "HP", 4): HOLDS_DIGEST,
    ("LinearGraph", "JEP", 4): HOLDS_DIGEST,
    ("LinearGraph", "AP", 4): HOLDS_DIGEST,
    ("LinearGraph", "SAP", 4): "5f3ca41a6f787c7602e5632a6a9b0ea9db867d18e09ddca91ff02d931a9f3c4d",
}


# Past the sweep's bound 4: LinearGraph, 0.2 s and 1 s for the four verdicts;
# LinearOrder at 5 and 6 and PartialOrder HP and JEP at 5, under 1 s together;
# Graph and Tournament at 5, the largest sweeps here (Graph AP and SAP 7-10 s each).
LARGER_BOUND_DIGESTS = {
    ("Graph", "HP", 5): HOLDS_DIGEST,
    ("Graph", "JEP", 5): HOLDS_DIGEST,
    ("Graph", "AP", 5): HOLDS_DIGEST,
    ("Graph", "SAP", 5): HOLDS_DIGEST,
    ("Tournament", "HP", 5): HOLDS_DIGEST,
    ("Tournament", "JEP", 5): HOLDS_DIGEST,
    ("Tournament", "AP", 5): HOLDS_DIGEST,
    ("Tournament", "SAP", 5): HOLDS_DIGEST,
    ("LinearGraph", "HP", 5): HOLDS_DIGEST,
    ("LinearGraph", "JEP", 5): HOLDS_DIGEST,
    ("LinearGraph", "AP", 5): HOLDS_DIGEST,
    ("LinearGraph", "SAP", 5): "5f3ca41a6f787c7602e5632a6a9b0ea9db867d18e09ddca91ff02d931a9f3c4d",
    ("LinearGraph", "HP", 6): HOLDS_DIGEST,
    ("LinearGraph", "JEP", 6): HOLDS_DIGEST,
    ("LinearGraph", "AP", 6): HOLDS_DIGEST,
    ("LinearGraph", "SAP", 6): "5f3ca41a6f787c7602e5632a6a9b0ea9db867d18e09ddca91ff02d931a9f3c4d",
    ("LinearOrder", "HP", 5): HOLDS_DIGEST,
    ("LinearOrder", "JEP", 5): HOLDS_DIGEST,
    ("LinearOrder", "AP", 5): HOLDS_DIGEST,
    ("LinearOrder", "SAP", 5): HOLDS_DIGEST,
    ("LinearOrder", "HP", 6): HOLDS_DIGEST,
    ("LinearOrder", "JEP", 6): HOLDS_DIGEST,
    ("LinearOrder", "AP", 6): HOLDS_DIGEST,
    ("LinearOrder", "SAP", 6): HOLDS_DIGEST,
    ("PartialOrder", "HP", 5): HOLDS_DIGEST,
    ("PartialOrder", "JEP", 5): HOLDS_DIGEST,
}


def verdict_json(verdict) -> str:
    def encode(obj):
        if isinstance(obj, FinStructure):
            return to_json_dict(obj)
        raise TypeError(f"cannot encode {type(obj).__name__}")

    value = {"holds": verdict.holds, "counterexample": verdict.counterexample}
    return json.dumps(value, default=encode, sort_keys=True, separators=(",", ":"))


PINNED_DIGESTS = {**VERDICT_DIGESTS, **LARGER_BOUND_DIGESTS}


@cache
def pinned_sweep_digests(tag, bound):
    """The digest of every pinned property of one class and bound, from
    one memo: the first test of a (tag, bound) pair runs them all, so AP
    and SAP share one sweep, and its other tests read the kept digests.
    Only these pin tests call it, and none of them patches the package."""
    return {prop: hashlib.sha256(verdict_json(check_property(tag, prop, bound)).encode()).hexdigest()
            for t, prop, b in sorted(PINNED_DIGESTS) if (t, b) == (tag, bound)}


@pytest.mark.parametrize("tag, prop, bound", sorted(PINNED_DIGESTS))
def test_class_sweep_verdict_bytes_pinned(tag, prop, bound):
    assert pinned_sweep_digests(tag, bound)[prop] == PINNED_DIGESTS[(tag, prop, bound)]


# --- one instance per image --------------------------------------------------


def instance_keys(tag, instances):
    """Each instance's group and what its glue or search reads: the
    relabelled right side."""
    return [(base, left, right, right_image(f, g)) for base, left, right, f, g in instances]


def instance_setup(f, g):
    """What `_amalgam_instances` yields for a pair: f's and g's maps, then map_c and image_c."""
    return (f.as_dict(), g.as_dict(), *_setup_amalgam(f, g)[2:])


def flat_instances(tag, size_bound, connected):
    """The kept pairs as embeddings, each checked against `instance_setup`;
    f's and g's maps must come with sorted keys, as `as_dict` gives them."""
    for base, left, right, pairs in _amalgam_instances(tag, size_bound, connected):
        for setup in pairs:
            f, g = make_embedding(base, left, setup[0]), make_embedding(base, right, setup[1])
            assert setup == instance_setup(f, g)
            assert [list(m) for m in setup[:2]] == [sorted(base.universe)] * 2
            yield base, left, right, f, g


def solve_failure(tag, left, right, setup, strong):
    """One pair as the sweep solves it (`_solve`), its failure or None,
    then the square and image checks on the map `_solve` returns, left
    mapping by the identity."""
    fm, gm, map_c, image_c = setup
    try:
        map_c = _solve(tag, left, right, map_c, image_c, strong)[1]
    except StructureError as exc:
        return str(exc)
    return square_verdict(fm, gm, {y: y for y in fm.values()}, map_c, strong, left.universe)


@pytest.mark.parametrize("tag", TAGS)
def test_instances_are_the_first_pair_of_each_image(tag):
    connected = not class_spec(tag).sap
    firsts = {}
    for key in instance_keys(tag, oracle_amalgam_instances(tag, 3, connected)):
        firsts.setdefault(key, len(firsts))
    assert instance_keys(tag, flat_instances(tag, 3, connected)) == list(firsts)
    groups = [(base, left, right) for base, left, right, _ in _amalgam_instances(tag, 3, connected)]
    assert groups == list(dict.fromkeys(key[:3] for key in firsts))


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("prop", ("AP", "SAP"))
@pytest.mark.parametrize("bound", (0, 1, 2, 3))
def test_amalgamation_verdicts_match_full_loop(tag, prop, bound):
    assert verdict_json(check_property(tag, prop, bound)) == verdict_json(
        oracle_amalgamation_verdict(tag, prop, bound)
    )


@pytest.mark.parametrize("tag", ("Graph", "PartialOrder"))
def test_a_member_outside_the_class_fails_its_first_instance(monkeypatch, tag):
    # The group check reports the member where `amalgamate` would.
    monkeypatch.setitem(enumerate_members(tag, 2)[-1].verdicts, tag, False)
    for prop in ("JEP", "AP", "SAP"):
        verdict = check_property(tag, prop, 3)
        assert verdict.counterexample["detail"] == f"input not in class {tag}"
        assert verdict_json(verdict) == verdict_json(oracle_amalgamation_verdict(tag, prop, 3))


def test_linear_graph_sap_fails_at_bound_3():
    # So the comparison above covers a failing verdict of the unbroken glues.
    assert not check_property("LinearGraph", "SAP", 3).holds


SWEEP_CASES = [*((tag, not class_spec(tag).sap) for tag in TAGS), ("LinearGraph", False)]


@pytest.mark.parametrize("tag, connected", SWEEP_CASES)
def test_solved_pairs_pass_the_square_and_image_checks(tag, connected):
    # The sweep does not run these checks: `_right_map` makes them hold.
    # Every kept pair at bound 3 that `_solve` amalgamates must pass them.
    reasons = Counter(
        solve_failure(tag, left, right, setup, strong)
        for strong in (False, True)
        for _, left, right, pairs in _amalgam_instances(tag, 3, connected)
        for setup in pairs
    )
    assert reasons[None] > 0
    assert not {"square does not commute", "images overlap beyond the base"} & set(reasons)


@pytest.mark.parametrize("connected, bound", [(True, 5), (False, 4)])
def test_linear_graph_instances_match_the_old_amalgams(connected, bound):
    # Every pair, strong or not, over the paths or over every member.
    reasons = set()
    for base, left, right, f, g in oracle_amalgam_instances("LinearGraph", bound, connected):
        for strong in (True, False):
            reason = solve_failure("LinearGraph", left, right, instance_setup(f, g), strong)
            assert reason == oracle_linear_graph_failure("LinearGraph", f, g, strong, connected)
            reasons.add(reason if reason is None or not reason.startswith("vertex ") else "vertex")
    expected = {None, "vertex"}
    if not connected:
        expected |= {"the union over the base contains a cycle", "no linear graph amalgam exists"}
    assert reasons == expected


def test_linear_graph_amalgamate_matches_the_old_search():
    for base, left, right, f, g in oracle_amalgam_instances("LinearGraph", 4, False):
        try:
            expected = oracle_amalgamate_linear_graph("LinearGraph", f, g, connected=False)
        except AmalgamationImpossible as exc:
            expected = str(exc)
        try:
            assert amalgamate("LinearGraph", f, g) == expected
        except AmalgamationImpossible as exc:
            assert str(exc) == expected


def drop_last_new_point(glue, when):
    """`glue`, but the tuples of the last point of b outside a are dropped
    when the two sides share points and `when(a, b, x)` holds."""

    def broken(a, b):
        out = glue(a, b)
        new = sorted(b.universe - a.universe)
        if not (a.universe & b.universe) or not new or not when(a, b, new[-1]):
            return out
        return validate_structure(out.sig, out.universe, {
            name: {t for t in tuples if new[-1] not in t} for name, tuples in out.interp
        })

    return broken


def drop_last_right_point(glue, when):
    """`glue`, but the last point of b outside a leaves the result, with
    its tuples, when `when(a, b)` holds; it fires with nothing shared."""

    def broken(a, b):
        out = glue(a, b)
        new = sorted(b.universe - a.universe)
        if not new or not when(a, b):
            return out
        return validate_structure(out.sig, out.universe - {new[-1]}, {
            name: {t for t in tuples if new[-1] not in t} for name, tuples in out.interp
        })

    return broken


def always(a, b, x):
    return True


def tied_to_largest_shared_only(a, b, x):
    """x relates to the largest shared point, and not to the least, by a
    tuple of b's first non-empty symbol.  This depends on where g sends
    each base point, so the first failure need not come with the first g."""
    shared = a.universe & b.universe
    tuples = next((ts for _, ts in b.interp if ts), frozenset())

    def tied(r):
        return (x, r) in tuples or (r, x) in tuples

    return len(shared) >= 2 and tied(max(shared)) and not tied(min(shared))


def points_to_largest_shared_only(a, b, x):
    """`tied_to_largest_shared_only` with the tuples read one way, (x, r)
    only: in a tournament x is tied to every shared point, so the two-way
    reading never holds there."""
    shared = a.universe & b.universe
    tuples = next((ts for _, ts in b.interp if ts), frozenset())
    return len(shared) >= 2 and (x, max(shared)) in tuples and (x, min(shared)) not in tuples


# The position-dependent breakage per class, read one way for the two
# order-like classes.
TIED_ONLY = {
    "Graph": tied_to_largest_shared_only,
    "Digraph": tied_to_largest_shared_only,
    "RationalMetric": tied_to_largest_shared_only,
    "Tournament": points_to_largest_shared_only,
    "PartialOrder": points_to_largest_shared_only,
}


BROKEN_GLUES = [
    *(pytest.param(tag, partial(drop_last_new_point, when=when), id=f"{tag}-{when.__name__}")
      for tag, tied in TIED_ONLY.items() for when in (always, tied)),
    # Its AP counterexample comes from the identification search, at the
    # first pair that adds a point: "no linear graph amalgam exists".
    pytest.param("LinearGraph", partial(drop_last_right_point, when=lambda a, b: True),
                 id="LinearGraph-drop_last_right_point"),
]


@pytest.mark.parametrize("tag, breakage", BROKEN_GLUES)
@pytest.mark.parametrize("prop", ("AP", "SAP"))
def test_broken_glue_counterexamples_match_full_loop(monkeypatch, tag, breakage, prop):
    monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], glue=breakage(SPECS[tag].glue)))
    for bound in (2, 3):
        verdict = check_property(tag, prop, bound)
        assert verdict_json(verdict) == verdict_json(oracle_amalgamation_verdict(tag, prop, bound))
    assert not verdict.holds


@pytest.mark.parametrize("tag", ("Graph", "Digraph", "RationalMetric"))
def test_pairs_with_one_partial_map_share_a_verdict(monkeypatch, tag):
    monkeypatch.setitem(SPECS, tag, replace(
        SPECS[tag], glue=drop_last_new_point(SPECS[tag].glue, tied_to_largest_shared_only)
    ))
    reasons = {}
    for base, left, right, f, g in oracle_amalgam_instances(tag, 3, False):
        reason = oracle_amalgam_failure(tag, f, g, strong=True, connected=False)
        key = (base, left, right, partial_map(f, g))
        assert reasons.setdefault(key, reason) == reason
    assert any(reason is not None for reason in reasons.values())


@pytest.mark.parametrize("tag", TIED_ONLY)
def test_pairs_with_one_image_share_a_verdict(monkeypatch, tag):
    monkeypatch.setitem(SPECS, tag, replace(
        SPECS[tag], glue=drop_last_new_point(SPECS[tag].glue, TIED_ONLY[tag])
    ))
    reasons, maps = {}, {}
    for prop in ("AP", "SAP"):
        for base, left, right, f, g in oracle_amalgam_instances(tag, 3, False):
            reason = oracle_amalgam_failure(tag, f, g, strong=prop == "SAP", connected=False)
            key = (prop, base, left, right, right_image(f, g))
            assert reasons.setdefault(key, reason) == reason
            maps.setdefault(key, set()).add(partial_map(f, g))
    assert any(reason is not None for reason in reasons.values())
    # Some images come from more than one partial map, so this is coarser.
    assert any(len(ms) > 1 for ms in maps.values())


# Glues that JEP's empty-base pairs reach, by how they break.
JEP_GLUES = {
    # Fires only over a shared point, so JEP still holds, and a loop that
    # went on past the empty base would fail at bound 2.
    "shared_only": lambda glue: drop_last_new_point(glue, always),
    "first_pair": lambda glue: drop_last_right_point(glue, lambda a, b: True),
    "two_points_each": lambda glue: drop_last_right_point(glue, lambda a, b: len(a) >= 2 and len(b) >= 2),
}


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("broken", JEP_GLUES)
def test_jep_verdicts_match_own_loop(monkeypatch, tag, broken):
    monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], glue=JEP_GLUES[broken](SPECS[tag].glue)))
    for bound in (1, 2, 3):
        verdict = check_property(tag, "JEP", bound)
        assert verdict_json(verdict) == verdict_json(oracle_jep_verdict(tag, bound))
    assert verdict.holds == (broken == "shared_only")


# --- one sweep per class, bound and spec ------------------------------------


def counted_sweeps(monkeypatch):
    """The sweeps `check_property` runs from here on, as (tag, prop, bound)."""
    sweeps, sweep = [], classes._amalgamation_verdict

    def counted(tag, prop, size_bound, connected):
        sweeps.append((tag, prop, size_bound))
        return sweep(tag, prop, size_bound, connected)

    monkeypatch.setattr(classes, "_amalgamation_verdict", counted)
    return sweeps


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("bound", (0, 1, 2, 3))
def test_memo_verdicts_match_sweeps_with_the_memo_emptied(monkeypatch, tag, bound):
    fresh = {}
    for prop in ("AP", "SAP"):
        classes._VERDICT_CACHE.clear()
        fresh[prop] = verdict_json(check_property(tag, prop, bound))
    sweeps = counted_sweeps(monkeypatch)
    for first, second in (("AP", "SAP"), ("SAP", "AP")):
        classes._VERDICT_CACHE.clear()
        del sweeps[:]
        texts = [verdict_json(check_property(tag, prop, bound)) for prop in (first, second, first)]
        assert texts == [fresh[first], fresh[second], fresh[first]]
        # A SAP class sweeps once for both; LinearGraph keeps one entry each.
        assert sweeps == [(tag, first, bound)] + [(tag, second, bound)] * (not class_spec(tag).sap)
        assert len(classes._VERDICT_CACHE) == 2 - class_spec(tag).sap
    if class_spec(tag).sap:
        assert fresh["AP"] == fresh["SAP"]
    elif bound == 3:
        assert fresh["AP"] != fresh["SAP"]


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("prop", ("AP", "SAP"))
def test_a_swapped_spec_after_a_cached_verdict_sweeps_anew(monkeypatch, tag, prop):
    kept = verdict_json(check_property(tag, prop, 3))
    monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], glue=JEP_GLUES["first_pair"](SPECS[tag].glue)))
    broken = verdict_json(check_property(tag, prop, 3))
    classes._VERDICT_CACHE.clear()
    assert broken == verdict_json(check_property(tag, prop, 3)) != kept
    assert not json.loads(broken)["holds"]
    monkeypatch.undo()
    assert verdict_json(check_property(tag, prop, 3)) == kept


@pytest.mark.parametrize("tag", TAGS)
def test_mutating_a_returned_counterexample_leaves_the_memo_unchanged(monkeypatch, tag):
    if class_spec(tag).sap:
        monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], glue=JEP_GLUES["first_pair"](SPECS[tag].glue)))
    for prop in ("AP", "SAP"):
        verdict = check_property(tag, prop, 3)
        if verdict.holds:  # LinearGraph's AP
            continue
        text = verdict_json(verdict)
        verdict.counterexample["f"].clear()
        verdict.counterexample["g"][0] = 99
        verdict.counterexample.clear()
        assert verdict_json(check_property(tag, prop, 3)) == text


# --- the identification search ---------------------------------------------

# The LinearGraph glues the search runs: the class glue, and the broken
# glue of `BROKEN_GLUES`.
LINEAR_GRAPH_GLUES = {"class": lambda glue: glue, "broken": JEP_GLUES["first_pair"]}


def identify_outcome(search, left, right, map_c):
    try:
        return search("LinearGraph", left, right, map_c)
    except StructureError as exc:
        return str(exc)


@pytest.mark.parametrize("glue", LINEAR_GRAPH_GLUES)
@pytest.mark.parametrize("connected, bound", [(True, 5), (False, 4)])
def test_identification_search_matches_the_unskipped_loop(monkeypatch, glue, connected, bound):
    monkeypatch.setitem(SPECS, "LinearGraph", replace(
        SPECS["LinearGraph"], glue=LINEAR_GRAPH_GLUES[glue](SPECS["LinearGraph"].glue)))
    outcomes = Counter()
    for _, left, right, pairs in _amalgam_instances("LinearGraph", bound, connected):
        for _, _, map_c, _ in pairs:
            found = identify_outcome(_identify_and_glue, left, right, map_c)
            assert found == identify_outcome(oracle_identify_and_glue, left, right, map_c)
            outcomes[isinstance(found, str)] += 1
    # Every path amalgam exists (AP holds); the others can fail.
    assert outcomes[False] and bool(outcomes[True]) == (glue == "broken" or not connected)


@pytest.mark.parametrize("glue", LINEAR_GRAPH_GLUES)
def test_linear_graph_verdicts_match_the_unskipped_loop(monkeypatch, glue):
    monkeypatch.setitem(SPECS, "LinearGraph", replace(
        SPECS["LinearGraph"], glue=LINEAR_GRAPH_GLUES[glue](SPECS["LinearGraph"].glue)))
    cases = [(prop, bound) for prop in ("AP", "JEP") for bound in range(6)]
    texts = [verdict_json(check_property("LinearGraph", prop, bound)) for prop, bound in cases]
    classes._VERDICT_CACHE.clear()
    monkeypatch.setattr(classes, "_identify_and_glue", oracle_identify_and_glue)
    assert texts == [verdict_json(check_property("LinearGraph", prop, bound)) for prop, bound in cases]
    assert all(json.loads(text)["holds"] for text in texts) == (glue == "class")


@pytest.mark.parametrize("search, counts", [
    pytest.param(_identify_and_glue, {4: (169, 0), 5: (433, 0)}, id="skipping"),
    pytest.param(oracle_identify_and_glue, {4: (459, 290), 5: (3354, 2921)}, id="unskipped"),
])
def test_identification_search_glue_calls_pinned(monkeypatch, search, counts):
    # (glue_and_check calls, failed calls) of LinearGraph's AP sweep.
    calls, glue_and_check = Counter(), classes.glue_and_check

    def counted(*args):
        calls["all"] += 1
        try:
            return glue_and_check(*args)
        except StructureError:
            calls["failed"] += 1
            raise

    monkeypatch.setattr(classes, "glue_and_check", counted)
    monkeypatch.setattr(classes, "_identify_and_glue", search)
    for bound, expected in counts.items():
        calls.clear()
        classes._VERDICT_CACHE.clear()
        assert check_property("LinearGraph", "AP", bound).holds
        assert (calls["all"], calls["failed"]) == expected


# --- integer metric glue -----------------------------------------------------

DISTANCES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def symbol_names(q):
    """The canonical name of q and two that are not canonical."""
    return (metric_symbol(q), f"d_{2 * q.numerator}/{2 * q.denominator}",
            f"d_{3 * q.numerator}/{3 * q.denominator}")


def named_metric(draw, points, dist):
    """A metric space on `points` whose symbols may be non-canonical, may
    name one distance twice, may be unused and come in any order."""
    interp = {}
    for pair, q in dist.items():
        name = draw(st.sampled_from(symbol_names(q)))
        x, y = sorted(pair)
        interp.setdefault(name, set()).update({(x, y), (y, x)})
    unused = draw(st.sets(st.sampled_from([n for q in DISTANCES for n in symbol_names(q)])))
    names = draw(st.permutations(sorted(set(interp) | unused)))
    return validate_structure(Signature(tuple((n, 2) for n in names)), set(points), interp)


@st.composite
def glue_inputs(draw):
    """Two metric spaces that agree on their shared points, which may be none."""
    ids = draw(st.permutations(range(12)))
    n_shared, n_a, n_b = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shared = ids[:n_shared]
    a_points = shared + ids[n_shared:n_shared + n_a]
    b_points = shared + ids[n_shared + n_a:n_shared + n_a + n_b]
    common = {frozenset(p): draw(st.sampled_from(DISTANCES)) for p in combinations(shared, 2)}

    def side(points):
        dist = dict(common)
        for p in combinations(points, 2):
            dist.setdefault(frozenset(p), draw(st.sampled_from(DISTANCES)))
        return named_metric(draw, points, dist)

    return side(a_points), side(b_points)


@settings(max_examples=300, deadline=None)
@given(glue_inputs())
def test_integer_glue_matches_fraction_oracle(inputs):
    a, b = inputs
    out = _glue_metrics(a, b)
    expected = padded_oracle_glue(a, b)
    assert out == expected
    assert out.sig == expected.sig
    # The glue seeds the result's distances with its own scale.
    assert scaled_back(out.distances) == scaled_back(fresh_copy(out).distances)


def padded_oracle_glue(a, b):
    """The oracle glue over the sides' symbols too, as `align` pads it."""
    return align("RationalMetric", a, b, oracle_glue_metrics(a, b))[-1]


def scaled_back(view):
    scale, dist = view
    return {t: Fraction(d, scale) for t, d in dist.items()}


def fresh_copy(a):
    """An equal structure with no cached views."""
    return pickle.loads(pickle.dumps(a))


def test_distances_view_stays_out_of_equality_hash_repr_and_pickle():
    half = Signature((("d_1/2", 2), ("d_1", 2)))
    a = validate_structure(half, {0, 1}, {"d_1/2": {(0, 1), (1, 0)}})
    b = validate_structure(half, {0, 2}, {"d_1": {(0, 2), (2, 0)}})
    glued = _glue_metrics(a, b)
    fresh = fresh_copy(glued)
    assert "distances" in glued.__dict__ and set(fresh.__dict__) == {"sig", "universe", "interp"}
    assert glued == fresh and hash(glued) == hash(fresh) and repr(glued) == repr(fresh)
    assert pickle.dumps(glued) == pickle.dumps(fresh)
    assert fresh.distances == (2, {(0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2, (1, 2): 3, (2, 1): 3})


def test_integer_glue_examples():
    half = Signature((("d_3/6", 2), ("d_6/4", 2), ("d_2", 2)))
    a = validate_structure(half, {0, 1}, {"d_3/6": {(0, 1), (1, 0)}})
    b = validate_structure(half, {0, 2}, {"d_6/4": {(0, 2), (2, 0)}})
    glued = _glue_metrics(a, b)
    assert glued == padded_oracle_glue(a, b)
    # The distances present take their canonical names; the sides' own symbols stay, empty.
    assert [name for name, tuples in glued.interp if tuples] == ["d_1/2", "d_3/2", "d_2"]
    assert glued.sig.names() == ("d_1/2", "d_3/6", "d_3/2", "d_6/4", "d_2")
    assert glued.rel("d_2") == {(1, 2), (2, 1)}
    # Nothing shared: the cross distance is the larger diameter, at least 1.
    c = validate_structure(half, {3, 4}, {"d_3/6": {(3, 4), (4, 3)}})
    apart = _glue_metrics(a, c)
    assert apart == padded_oracle_glue(a, c)
    assert [name for name, tuples in apart.interp if tuples] == ["d_1/2", "d_1"]
