"""Differential tests: the embedding search, `placements` and the
extension, universality and homogeneity verifiers against the brute-force
code they replaced.

The oracles below are the earlier implementations: profiles (and colours
from them) recomputed per element by rescanning every tuple, a
consistency check that enumerates all |dom|^arity tuples, reports that
run one search per item between induced substructures, and a homogeneity
check that builds an induced substructure per candidate and runs a full
partial-embedding check on it.  The fast code must return the same lists
in the same order.
"""

import pickle
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from genstruct import analysis
from genstruct.analysis import (
    Report,
    ReportItem,
    _guard,
    extension_property_report,
    one_point_homogeneity,
    universality_check,
)
from genstruct.classes import TAGS, NotInClass, align, enumerate_members, membership
from genstruct.cli import default_schedule
from genstruct.forcing import empty_condition, generic_build
from genstruct.structures import (
    GRAPH_SIG,
    Embedding,
    FinStructure,
    Signature,
    SignatureMismatch,
    enumerate_embeddings,
    enumerate_embeddings_extending,
    extension_by_rows,
    extension_witnesses,
    find_isomorphism,
    induced_substructure,
    placements,
    relabel,
    to_json_dict,
    validate_structure,
)
from test_canonical_oracle import ENUMERATE_TO

# --- oracles -----------------------------------------------------------------


def oracle_element_profile(a: FinStructure, x: int) -> tuple:
    prof = []
    for name, tuples in a.interp:
        arity = a.sig.arity(name)
        counts = [0] * arity
        for t in tuples:
            for i, y in enumerate(t):
                if y == x:
                    counts[i] += 1
        prof.append(tuple(counts))
    return tuple(prof)


def oracle_colour(a: FinStructure, x: int) -> tuple:
    """`Bitsets.colours` of x from its profile: its mark or loop bit per unary
    or binary symbol, then its out- and in-count per binary symbol."""
    arities = [a.sig.arity(name) for name, _ in a.interp]
    marks = tuple(int((x,) * arity in tuples) for (_, tuples), arity in zip(a.interp, arities) if arity <= 2)
    return marks + tuple(c for p, arity in zip(oracle_element_profile(a, x), arities) if arity == 2 for c in p)


def oracle_consistent_with(a, b, assignment, x) -> bool:
    for name, tuples in a.interp:
        target_tuples = b.rel(name)
        arity = a.sig.arity(name)
        for t in product(set(assignment), repeat=arity):
            if x not in t:
                continue
            mapped = tuple(assignment[z] for z in t)
            if (t in tuples) != (mapped in target_tuples):
                return False
    return True


def oracle_is_partial_embedding(a, b, partial) -> bool:
    for name, tuples in a.interp:
        target_tuples = b.rel(name)
        for t in product(set(partial), repeat=a.sig.arity(name)):
            if (t in tuples) != (tuple(partial[x] for x in t) in target_tuples):
                return False
    return True


def oracle_search_maps(a, b, bijective, partial, limit):
    if a.sig != b.sig:
        raise SignatureMismatch("signatures differ")
    src = a.sorted_universe()
    tgt = b.sorted_universe()
    if bijective and len(src) != len(tgt):
        return []
    prof_a = {x: oracle_element_profile(a, x) for x in src}
    prof_b = {y: oracle_element_profile(b, y) for y in tgt}
    results = []
    assignment = dict(partial)

    def candidates(x, used):
        for y in tgt:
            if y in used:
                continue
            pa, pb = prof_a[x], prof_b[y]
            if bijective and pa != pb:
                continue
            if not bijective and any(
                ca > cb for ta, tb in zip(pa, pb) for ca, cb in zip(ta, tb)
            ):
                continue
            yield y

    order = [x for x in src if x not in assignment]

    def extend(i):
        if limit is not None and len(results) >= limit:
            return True
        if i == len(order):
            results.append(Embedding(a, b, tuple(sorted(assignment.items()))))
            return limit is not None and len(results) >= limit
        x = order[i]
        used = set(assignment.values())
        for y in candidates(x, used):
            assignment[x] = y
            if oracle_consistent_with(a, b, assignment, x):
                if extend(i + 1):
                    return True
            del assignment[x]
        return False

    for x in partial:
        if not oracle_consistent_with(a, b, assignment, x):
            return []
    extend(0)
    return results


def oracle_extends_iso(m, phi, x, y) -> bool:
    mapping = dict(phi)
    mapping[x] = y
    if len(set(mapping.values())) != len(mapping):
        return False
    source = induced_substructure(m, set(mapping))
    return oracle_is_partial_embedding(source, m, mapping)


def oracle_admit(m, tag, k) -> None:
    if not membership(tag, m):
        raise NotInClass("input must belong to the class")
    _guard(m, k)


def oracle_one_point_homogeneity(m, tag, k) -> Report:
    oracle_admit(m, tag, k)
    items = []
    elems = m.sorted_universe()
    for size in range(k + 1):
        for xs in combinations(elems, size):
            sub_x = induced_substructure(m, set(xs))
            for ys in combinations(elems, size):
                sub_y = induced_substructure(m, set(ys))
                for iso in oracle_search_maps(sub_x, sub_y, False, {}, None):
                    phi = iso.as_dict()
                    for extra in elems:
                        if extra in xs:
                            continue
                        witness = next(
                            (c for c in elems
                             if c not in ys and oracle_extends_iso(m, phi, extra, c)),
                            None,
                        )
                        items.append(ReportItem(
                            f"iso={sorted(phi.items())};add={extra}", witness is not None, witness
                        ))
    return Report("one-point-homogeneity", tuple(items))


def oracle_extension_items(m, tag, k) -> Report:
    oracle_admit(m, tag, k)
    items = []
    for size in range(k + 1):
        for idx, member in enumerate(enumerate_members(tag, size)):
            member, target = align(tag, member, m)
            universe = member.sorted_universe()
            for r in range(len(universe) + 1):
                for subset in combinations(universe, r):
                    part = induced_substructure(member, set(subset))
                    for emb in oracle_search_maps(part, target, False, {}, None):
                        pins = emb.as_dict()
                        found = oracle_search_maps(member, target, False, pins, 1)
                        items.append(ReportItem(
                            f"type:{size}.{idx};dom={list(subset)};emb={sorted(pins.items())}",
                            bool(found),
                            sorted(found[0].as_dict().items()) if found else None,
                        ))
    return Report("extension-property", tuple(items))


def oracle_universality_items(m, tag, k) -> Report:
    oracle_admit(m, tag, k)
    items = []
    for size in range(k + 1):
        for idx, member in enumerate(enumerate_members(tag, size)):
            found = oracle_search_maps(*align(tag, member, m), False, {}, 1)
            witness = sorted(found[0].as_dict().items()) if found else None
            items.append(ReportItem(f"type:{size}.{idx}", bool(found), witness))
    return Report("universality", tuple(items))


# --- strategies --------------------------------------------------------------

SIGNATURES = {
    "symmetric": GRAPH_SIG,
    "loops": Signature((("R", 2),)),
    "two-binary": Signature((("D1", 2), ("D2", 2))),
    "unary": Signature((("P", 1),)),
    "ternary": Signature((("T", 3),)),
}


def draw_subset(draw, items, max_size=None) -> set:
    """A random subset of `items`; `sampled_from` rejects an empty list."""
    items = sorted(items)
    if not items:
        return set()
    return draw(st.sets(st.sampled_from(items), max_size=max_size or len(items)))


@st.composite
def structures(draw, sig: Signature, max_size: int = 6, universe=None) -> FinStructure:
    if universe is None:
        universe = draw(st.sets(st.integers(0, 9), max_size=max_size))
    elems = sorted(universe)
    interp = {}
    for name, arity in sig.symbols:
        if name in ("E", "D1", "D2"):
            # Symmetric and irreflexive, as in graphs and metric distances.
            chosen = draw_subset(draw, combinations(elems, 2))
            interp[name] = {t for x, y in chosen for t in ((x, y), (y, x))}
        else:
            interp[name] = draw_subset(draw, product(elems, repeat=arity), max_size=24)
    if set(sig.names()) == {"D1", "D2"}:
        interp["D2"] -= interp["D1"]  # at most one distance per pair
    return validate_structure(sig, set(universe), interp)


@st.composite
def structure_pairs(draw):
    """(a, b) over one signature; a is often a relabelled induced
    substructure of b, so that embeddings exist."""
    sig = SIGNATURES[draw(st.sampled_from(sorted(SIGNATURES)))]
    b = draw(structures(sig))
    if draw(st.booleans()):
        subset = draw_subset(draw, b.universe)
        part = induced_substructure(b, subset)
        ids = draw(st.permutations(range(10)))
        a = relabel(part, {x: ids[i] for i, x in enumerate(sorted(subset))})
    else:
        a = draw(structures(sig))
    return a, b


def assert_colours_match(s: FinStructure) -> None:
    assert dict(zip(s.bitsets.order, s.bitsets.colours)) == {x: oracle_colour(s, x) for x in s.universe}


# --- tests -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(structure_pairs())
def test_enumerate_embeddings_matches_oracle(pair):
    a, b = pair
    assert_colours_match(a)
    assert_colours_match(b)
    assert enumerate_embeddings(a, b) == oracle_search_maps(a, b, False, {}, None)


@settings(max_examples=150, deadline=None)
@given(structure_pairs(), st.data())
def test_enumerate_embeddings_extending_matches_oracle(pair, data):
    a, b = pair
    limit = data.draw(st.sampled_from([None, 1]))
    found = oracle_search_maps(a, b, False, {}, None)
    if found and data.draw(st.booleans()):
        # Consistent pins: the restriction of a real embedding.
        whole = found[data.draw(st.integers(0, len(found) - 1))].as_dict()
        pins = {x: whole[x] for x in draw_subset(data.draw, a.universe)}
    elif a.universe and b.universe:
        # Injective pins from a's universe into b's, possibly inconsistent.
        dom = sorted(draw_subset(data.draw, a.universe, max_size=len(b)))
        images = data.draw(st.permutations(sorted(b.universe)))
        pins = dict(zip(dom, images))
    else:
        pins = {}
    got = enumerate_embeddings_extending(a, b, pins, limit=limit)
    assert got == oracle_search_maps(a, b, False, pins, limit)


def test_non_injective_pins_give_no_embedding():
    a = validate_structure(GRAPH_SIG, {0, 1}, {})
    b = validate_structure(GRAPH_SIG, {5, 6, 7}, {})
    assert enumerate_embeddings_extending(a, b, {0: 5, 1: 5}) == []
    # A pin from outside a's universe, and a pin onto a point outside b's.
    assert enumerate_embeddings_extending(a, b, {2: 5}) == []
    assert enumerate_embeddings_extending(a, b, {0: 9}) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_find_isomorphism_matches_oracle(data):
    sig = SIGNATURES[data.draw(st.sampled_from(sorted(SIGNATURES)))]
    a = data.draw(structures(sig))
    relabelled = data.draw(st.booleans())
    if relabelled:
        ids = data.draw(st.permutations(range(10)))
        b = relabel(a, {x: ids[i] for i, x in enumerate(sorted(a.universe))})
    else:
        universe = data.draw(st.sets(st.integers(0, 9), min_size=len(a), max_size=len(a)))
        b = data.draw(structures(sig, universe=universe))
    found = oracle_search_maps(a, b, True, {}, 1)
    assert found or not relabelled  # a relabelled copy has an isomorphism
    assert find_isomorphism(a, b) == (found[0] if found else None)


@pytest.mark.parametrize("tag, size", [("Tournament", 5), ("Tournament", 6), ("Graph", 5)])
def test_find_isomorphism_between_members_with_one_profile_multiset(tag, size):
    # Distinct members whose sorted profiles, and so colours, agree (for
    # tournaments, one score sequence) pass the per-point colour masks; only
    # the walk parts them.  Each member against its own reversed copy has an
    # isomorphism.
    buckets: dict[tuple, list] = {}
    for m in enumerate_members(tag, size):
        buckets.setdefault(tuple(sorted(m.bitsets.colours)), []).append(m)
    assert any(len(bucket) > 1 for bucket in buckets.values())
    for bucket in buckets.values():
        for a, m in product(bucket, repeat=2):
            b = relabel(m, {x: size - 1 - x for x in m.universe})
            found = oracle_search_maps(a, b, True, {}, 1)
            assert bool(found) == (a is m)
            assert find_isomorphism(a, b) == (found[0] if found else None)


def partition(points, key) -> set:
    """The blocks of `points` on which `key` is constant."""
    blocks: dict = {}
    for x in points:
        blocks.setdefault(key(x), set()).add(x)
    return set(map(frozenset, blocks.values()))


# SIGNATURES plus every arity at once, with loops and marks; colours do not read the ternary T.
COLOUR_SIGNATURES = {**SIGNATURES, "mixed": Signature((("P", 1), ("R", 2), ("E", 2))),
                     "mixed-ternary": Signature((("T", 3), ("R", 2), ("P", 1)))}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_colours_are_kept_by_isomorphisms_and_part_points_as_profiles_and_loops(data):
    sig = COLOUR_SIGNATURES[data.draw(st.sampled_from(sorted(COLOUR_SIGNATURES)))]
    a = data.draw(structures(sig))
    ids = data.draw(st.permutations(range(10)))
    renaming = {x: ids[i] for i, x in enumerate(sorted(a.universe))}
    b = relabel(a, renaming)
    colour_a, colour_b = (dict(zip(s.bitsets.order, s.bitsets.colours)) for s in (a, b))
    assert all(colour_b[renaming[x]] == colour_a[x] for x in a.universe)
    assert_colours_match(a)
    if any(arity > 2 for _, arity in sig.symbols):
        return

    def profile_and_loops(x):
        loops = tuple((x, x) in tuples for name, tuples in a.interp if sig.arity(name) == 2)
        return oracle_element_profile(a, x), loops

    assert partition(a.universe, colour_a.__getitem__) == partition(a.universe, profile_and_loops)


@pytest.mark.parametrize("tag", sorted(ENUMERATE_TO))
def test_colours_part_class_members_as_profiles_do(tag):
    # No class has loops or a symbol of arity other than 2, so the enumeration's
    # buckets, and its isomorphism tests, are those that profiles gave.
    for size in range(ENUMERATE_TO[tag] + 1):
        for m in enumerate_members(tag, size):
            colour = dict(zip(m.bitsets.order, m.bitsets.colours))
            assert partition(m.universe, colour.__getitem__) == partition(
                m.universe, lambda x: oracle_element_profile(m, x))


@st.composite
def members(draw, tag: str) -> FinStructure:
    """A random Graph, Tournament or Digraph on at most 6 points."""
    elems = sorted(draw(st.sets(st.integers(0, 9), max_size=6)))
    if tag == "Graph":
        return draw(structures(GRAPH_SIG, universe=elems))
    if tag == "Tournament":
        arcs = {(x, y) if draw(st.booleans()) else (y, x) for x, y in combinations(elems, 2)}
    else:
        arcs = draw_subset(draw, [(x, y) for x in elems for y in elems if x != y])
    return validate_structure(GRAPH_SIG, set(elems), {"E": arcs})


# Enumerating the 9,608 five-point digraphs takes seconds; random digraphs reach 6 points.
ENUMERATED_SIZES = {tag: 4 if tag == "Digraph" else 5 for tag in TAGS}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_point_homogeneity_matches_oracle(data):
    # A random Graph, Tournament or Digraph, or an enumerated member of any
    # class: RationalMetric brings several binary symbols, LinearGraph its paths.
    tag = data.draw(st.sampled_from(TAGS))
    if tag in ("Graph", "Tournament", "Digraph") and data.draw(st.booleans()):
        m = data.draw(members(tag))
    else:
        m = data.draw(st.sampled_from(enumerate_members(tag, data.draw(st.integers(0, ENUMERATED_SIZES[tag])))))
    k = data.draw(st.integers(0, 3))
    assert membership(tag, m)
    expected = oracle_one_point_homogeneity(m, tag, k).to_json()
    assert one_point_homogeneity(m, tag, k).to_json() == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_point_homogeneity_matches_oracle_on_unary_and_loop_types(data):
    # No class member has a unary symbol or a loop, so membership is waived
    # to reach the `fixed` types that the homogeneity check also compares.
    m = data.draw(structures(Signature((("P", 1), ("R", 2)))))
    k = data.draw(st.integers(0, 3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "membership", lambda tag, m: True)
        patch.setitem(globals(), "membership", lambda tag, m: True)
        assert one_point_homogeneity(m, "Digraph", k).to_json() == oracle_one_point_homogeneity(m, "Digraph", k).to_json()


def test_every_class_signature_is_binary():
    # homogeneity_items reads binary rows only; a symbol of arity 3 or more
    # would need a tuple-by-tuple check there.
    for tag in TAGS:
        for n in range(4):
            assert all(not m.bitsets.high for m in enumerate_members(tag, n)), (tag, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extension_and_universality_reports_match_oracle(data):
    tag = data.draw(st.sampled_from(["Graph", "Tournament", "Digraph"]))
    m = data.draw(members(tag))
    k = data.draw(st.integers(0, 2))
    assert extension_property_report(m, tag, k).to_json() == oracle_extension_items(m, tag, k).to_json()
    assert universality_check(m, tag, k).to_json() == oracle_universality_items(m, tag, k).to_json()


@cache
def build_final(tag: str, n: int, ext_size: int):
    """The final structure of `build --class tag --n n --ext-size ext_size --seed 0`."""
    schedule = default_schedule(tag, n, ext_size)
    return generic_build(empty_condition(tag), schedule, None, 0).final.structure


@pytest.mark.parametrize("tag, n, ext_size", [("RationalMetric", 1, 3), ("PartialOrder", 3, 2)])
@pytest.mark.parametrize("verifier, oracle", [
    (extension_property_report, oracle_extension_items),
    (universality_check, oracle_universality_items),
])
def test_reports_on_built_prefixes_match_oracle(tag, n, ext_size, verifier, oracle):
    # A metric prefix pads its distance symbols through `align`; `<` is not symmetric.
    m = build_final(tag, n, ext_size)
    assert verifier(m, tag, 2).to_json() == oracle(m, tag, 2).to_json()


@st.composite
def padded_pairs(draw):
    """(a, b) over 3 or 4 symmetric irreflexive binary symbols with at most
    one per pair, as `classes.align` pads metric spaces: each structure
    uses only some symbols, so a symbol is often empty in one of them and
    not in the other.  a is often a relabelled induced substructure of b."""
    names = [f"D{r}" for r in range(draw(st.integers(3, 4)))]
    sig = Signature(tuple((name, 2) for name in names))

    def padded(universe):
        used = draw(st.lists(st.sampled_from(names), unique=True))
        interp = {name: set() for name in names}
        for x, y in combinations(sorted(universe), 2):
            name = draw(st.sampled_from([None, *used]))
            if name is not None:
                interp[name] |= {(x, y), (y, x)}
        return validate_structure(sig, set(universe), interp)

    b = padded(draw(st.sets(st.integers(0, 9), max_size=6)))
    if draw(st.booleans()):
        subset = draw_subset(draw, b.universe)
        ids = draw(st.permutations(range(10)))
        a = relabel(induced_substructure(b, subset), {x: ids[i] for i, x in enumerate(sorted(subset))})
    else:
        a = padded(draw(st.sets(st.integers(0, 9), max_size=5)))
    return a, b


@settings(max_examples=150, deadline=None)
@given(padded_pairs(), st.data())
def test_padded_symbols_match_oracle(pair, data):
    a, b = pair
    assert enumerate_embeddings(a, b) == oracle_search_maps(a, b, False, {}, None)
    if a.universe and b.universe:
        dom = sorted(draw_subset(data.draw, a.universe, max_size=len(b)))
        pins = dict(zip(dom, data.draw(st.permutations(sorted(b.universe)))))
        assert enumerate_embeddings_extending(a, b, pins, limit=1) == oracle_search_maps(a, b, False, pins, 1)
    found = oracle_search_maps(a, b, True, {}, 1)
    assert find_isomorphism(a, b) == (found[0] if found else None)


@st.composite
def distance_symbol_pairs(draw):
    """(a, b, pins): each side over its own subset of d_1, d_2 and d_3, with
    any tuples of those symbols, loops and one-way pairs included, as raw
    structures may hold them; a is often a relabelled induced part of b
    over its nonempty symbols and some others.  `pins` map part of a into b."""
    names = ("d_1", "d_2", "d_3")

    def signature(used=()):
        return Signature(tuple((n, 2) for n in names if n in used or draw(st.booleans())))

    b = draw(structures(signature(), max_size=5))
    if draw(st.booleans()):
        subset = draw_subset(draw, b.universe)
        ids = draw(st.permutations(range(10)))
        part = relabel(induced_substructure(b, subset), {x: ids[i] for i, x in enumerate(sorted(subset))})
        rows = {n: ts for n, ts in part.interp if ts}
        a = validate_structure(signature(rows), part.universe, rows)
    else:
        a = draw(structures(signature(), max_size=4))
    dom = sorted(draw_subset(draw, a.universe, max_size=len(b)))
    return a, b, dict(zip(dom, draw(st.permutations(sorted(b.universe)))))


@settings(max_examples=300, deadline=None)
@given(distance_symbol_pairs())
def test_distance_symbols_read_by_name_match_padded_copies(case):
    """Two metric signatures pair their rows by symbol name, a symbol one
    side lacks being empty there: the search gives what it gives on copies
    that `align` pads to one signature."""
    a, b, pins = case
    padded_a, padded_b = align("RationalMetric", a, b)
    for search in (enumerate_embeddings, lambda a, b: enumerate_embeddings_extending(a, b, pins)):
        assert [e.mapping for e in search(a, b)] == [e.mapping for e in search(padded_a, padded_b)]
    assert extension_by_rows(a, b, pins) == extension_by_rows(padded_a, padded_b, pins)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extension_witnesses_match_oracle(data):
    sig = SIGNATURES[data.draw(st.sampled_from(["loops", "two-binary", "unary", "ternary"]))]
    m = data.draw(structures(sig))
    # A partial isomorphism of m: an embedding of an induced substructure.
    part = induced_substructure(m, draw_subset(data.draw, m.universe))
    isos = oracle_search_maps(part, m, False, {}, None)
    phi = isos[data.draw(st.integers(0, len(isos) - 1))].as_dict()
    order = m.sorted_universe()
    for x in m.universe - phi.keys():
        mask = extension_witnesses(m, m, phi, x)
        assert mask >> len(order) == 0
        assert {y for j, y in enumerate(order) if mask >> j & 1} == {
            y for y in order if oracle_extends_iso(m, phi, x, y)
        }


def test_pins_that_contradict_a_profile_loop_or_mark_give_no_embedding():
    # Profile: 1 has two neighbours in the path, 6 has one in b.
    path = validate_structure(GRAPH_SIG, {0, 1, 2}, {"E": {(0, 1), (1, 0), (1, 2), (2, 1)}})
    b = validate_structure(GRAPH_SIG, {5, 6, 7, 8}, {
        "E": {(5, 6), (6, 5), (6, 7), (7, 6), (7, 8), (8, 7)},
    })
    cases = [(path, b, {1: 7}, True), (path, b, {1: 5}, False)]
    # Loops: a's loop at 0 must map onto a loop, and a loopless point onto none.
    loops = SIGNATURES["loops"]
    a = validate_structure(loops, {0, 1}, {"R": {(0, 0)}})
    b = validate_structure(loops, {4, 5, 6}, {"R": {(4, 4), (5, 5)}})
    cases += [(a, b, {0: 4}, True), (a, b, {0: 6}, False), (a, b, {1: 5}, False)]
    # Unary marks, both ways.
    unary = SIGNATURES["unary"]
    a = validate_structure(unary, {0, 1}, {"P": {(0,)}})
    b = validate_structure(unary, {4, 5, 6}, {"P": {(4,), (5,)}})
    cases += [(a, b, {0: 4}, True), (a, b, {0: 6}, False), (a, b, {1: 5}, False)]
    for a, b, pins, exists in cases:
        got = enumerate_embeddings_extending(a, b, pins)
        assert got == oracle_search_maps(a, b, False, pins, None)
        assert bool(got) == exists, (a, pins)


def test_bitsets_stay_out_of_equality_hash_json_and_pickle():
    def fresh():
        return validate_structure(SIGNATURES["loops"], {0, 1, 2}, {"R": {(0, 1), (1, 1)}})

    a, b = fresh(), fresh()
    assert enumerate_embeddings(a, a) and extension_witnesses(a, a, {0: 0}, 1)
    assert "bitsets" in a.__dict__ and "bitsets" not in b.__dict__
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert to_json_dict(a) == to_json_dict(b) and pickle.dumps(a) == pickle.dumps(b)
    assert set(pickle.loads(pickle.dumps(a)).__dict__) == {"sig", "universe", "interp"}


@st.composite
def placement_cases(draw, pairs):
    """(a, b, placed, allowed): `placed` is an embedding of an induced part of
    a into b, and `allowed` is None or, per free point of a, a random subset
    of b's universe."""
    a, b = draw(pairs)
    part = induced_substructure(a, draw_subset(draw, a.universe))
    found = oracle_search_maps(part, b, False, {}, None)
    placed = found[draw(st.integers(0, len(found) - 1))].as_dict() if found else {}
    free = sorted(a.universe - placed.keys())
    allowed = {x: draw_subset(draw, b.universe) for x in free} if draw(st.booleans()) else None
    return a, b, placed, allowed


@settings(max_examples=300, deadline=None)
@given(placement_cases(st.one_of(structure_pairs(), padded_pairs())))
def test_placements_match_oracle(case):
    a, b, placed, allowed = case
    before, free = dict(placed), sorted(a.universe - placed.keys())
    expected = [e.as_dict() for e in oracle_search_maps(a, b, False, placed, None)]
    if allowed is None:
        got = list(placements(a, b, placed, free))
    else:
        order = b.sorted_universe()
        masks = [sum(1 << j for j, y in enumerate(order) if y in allowed[x]) for x in free]
        got = list(placements(a, b, placed, free, within=masks))
        expected = [e for e in expected if all(e[x] in allowed[x] for x in free)]
    assert got == expected
    assert placed == before


def test_placements_reject_a_signature_mismatch_at_the_call():
    a = validate_structure(GRAPH_SIG, {0}, {})
    b = validate_structure(SIGNATURES["loops"], {0}, {})
    with pytest.raises(SignatureMismatch):
        placements(a, b, {}, [0])
