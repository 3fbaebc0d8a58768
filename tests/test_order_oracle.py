"""Differential tests: the order code against the code it replaced.

The oracles below are the earlier implementations: `chain_of` counted
each element's in-degree by rescanning the whole `<` relation, and
linear-order membership checked totality pair by pair, then
irreflexivity, asymmetry and transitivity, and later counted the pairs
and required each to go forward in the chain; the poset glue closed the
union of its sides by a depth-first search from each point and rejected
a closure with a loop or a 2-cycle, where it now adds only the cross
pairs that a shared point separates; `merge_linear_orders` collected
each side's points in one list per gap between shared points, where it
now sorts every point by one key; `chain_structure` passed every pair it
drew from its sequence to `validate_structure`; and `stronger` compared
the induced substructure of q on p's points with p.  The fast code must
return the same list in the same order, the same verdict, glue and
structure (or the same error, or for disagreeing posets the same
rejection), on every input, linear or not.
"""

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from genstruct import classes
from genstruct.classes import (
    AmalgamationImpossible,
    _amalgam_instances,
    chain_of,
    chain_structure,
    glue_and_check,
    membership,
    merge_linear_orders,
)
from genstruct.forcing import Condition, stronger
from genstruct.structures import (
    ORDER_SIG,
    FinStructure,
    StructureError,
    _glued,
    induced_substructure,
    validate_structure,
)

# --- oracles -----------------------------------------------------------------


def oracle_chain_of(a: FinStructure) -> list[int]:
    rel = a.rel("<")
    return sorted(a.universe, key=lambda x: sum(1 for t in rel if t[1] == x))


def oracle_is_partial_order(a: FinStructure) -> bool:
    rel = a.rel("<")
    if any(x == y or (y, x) in rel for x, y in rel):
        return False
    return all((x, w) in rel for x, y in rel for z, w in rel if y == z)


def oracle_is_linear_order(a: FinStructure) -> bool:
    rel = a.rel("<")
    total = all((x, y) in rel or (y, x) in rel for x, y in combinations(sorted(a.universe), 2))
    return total and oracle_is_partial_order(a)


def oracle_counted_linear_order(a: FinStructure) -> bool:
    rel = a.rel("<")
    n = len(a.universe)
    if len(rel) != n * (n - 1) // 2:
        return False
    pos = {x: i for i, x in enumerate(oracle_chain_of(a))}
    return all(pos[x] < pos[y] for x, y in rel)


def oracle_chain_structure(seq) -> FinStructure:
    rel = {(seq[i], seq[j]) for i in range(len(seq)) for j in range(i + 1, len(seq))}
    return validate_structure(ORDER_SIG, set(seq), {"<": rel})


def oracle_stronger(q: Condition, p: Condition) -> bool:
    if not p.universe <= q.universe:
        return False
    return induced_substructure(q.structure, p.universe) == p.structure


def oracle_transitive_closure(rel: set[tuple[int, ...]]) -> set[tuple[int, int]]:
    """Every pair (x, y) with a path from x to y: one depth-first search
    per source over the successor map."""
    succ: dict[int, list[int]] = {}
    for x, y in rel:
        succ.setdefault(x, []).append(y)
    closed: set[tuple[int, int]] = set()
    for x, out in succ.items():
        reached, stack = set(out), list(out)
        while stack:
            for z in succ.get(stack.pop(), ()):
                if z not in reached:
                    reached.add(z)
                    stack.append(z)
        closed.update((x, y) for y in reached)
    return closed


def oracle_glue_posets(a: FinStructure, b: FinStructure) -> FinStructure:
    """Transitive closure of the union."""
    union = a.rel("<") | b.rel("<")
    closed = oracle_transitive_closure(union)
    if any((y, x) in closed for x, y in closed) or any(x == y for x, y in closed):
        raise AmalgamationImpossible("transitive closure breaks antisymmetry")
    return _glued(ORDER_SIG, a, b, {"<": closed - union})


def oracle_merge_linear_orders(seq1: list[int], seq2: list[int], shared: set[int]) -> list[int]:
    r1 = [x for x in seq1 if x in shared]
    r2 = [x for x in seq2 if x in shared]
    if r1 != r2:
        raise StructureError("orders disagree on the shared part")
    if (set(seq1) & set(seq2)) - set(shared):
        raise StructureError("sides overlap outside the shared part")
    gaps1: dict[int, list[int]] = {}
    gaps2: dict[int, list[int]] = {}
    for seq, gaps in ((seq1, gaps1), (seq2, gaps2)):
        g = 0
        for x in seq:
            if x in shared:
                g += 1
            else:
                gaps.setdefault(g, []).append(x)
    merged: list[int] = []
    for g in range(len(r1) + 1):
        merged.extend(gaps2.get(g, []))
        merged.extend(gaps1.get(g, []))
        if g < len(r1):
            merged.append(r1[g])
    return merged


# --- strategies ----------------------------------------------------------------


@st.composite
def order_relations(draw) -> FinStructure:
    """A `<` relation on up to 8 points: arbitrary (loops, 2-cycles,
    non-transitive), a linear order, a linear order with a few pairs
    toggled, or a partial order cut from a linear one."""
    universe = draw(st.lists(st.integers(0, 20), unique=True, max_size=8))
    pairs = [(x, y) for x in universe for y in universe]
    kind = draw(st.sampled_from(("any", "linear", "toggled", "partial")))
    if kind == "any" or not pairs:
        rel = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return validate_structure(ORDER_SIG, set(universe), {"<": rel})
    seq = draw(st.permutations(universe))
    rel = {(seq[i], seq[j]) for i in range(len(seq)) for j in range(i + 1, len(seq))}
    if kind == "toggled":
        rel ^= draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=3))
    elif kind == "partial":
        # Keep x < y when y lies above x in a second ordering too.
        other = draw(st.permutations(universe))
        rel = {(x, y) for x, y in rel if other.index(x) < other.index(y)}
    return validate_structure(ORDER_SIG, set(universe), {"<": rel})


# --- tests -----------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(order_relations())
def test_chain_of_and_linear_order_membership_match_oracles(a):
    assert chain_of(a) == oracle_chain_of(a)
    assert membership("LinearOrder", a) == oracle_is_linear_order(a) == oracle_counted_linear_order(a)
    # The cached chain answers again, unchanged.
    assert chain_of(a) == oracle_chain_of(a)


def test_poset_glue_matches_the_closure_on_the_ap_sweep():
    # Every glued pair of PartialOrder AP at bound 4: left and the
    # relabelled right side, which meet in f's image and agree there.
    pairs = 0
    for _, left, _, group in _amalgam_instances("PartialOrder", 4, False):
        for _, _, _, image_c in group:
            # Equal structures have equal interps, symbol order included.
            assert classes.SPECS["PartialOrder"].glue(left, image_c) == oracle_glue_posets(left, image_c)
            pairs += 1
    assert pairs == 12506


def glue_outcome(a: FinStructure, b: FinStructure):
    """`glue_and_check` of a and b by the identity on b, or None when rejected."""
    try:
        return glue_and_check("PartialOrder", a, b, {x: x for x in b.universe}, b)
    except StructureError:
        return None


@st.composite
def posets_on(draw, points) -> FinStructure:
    """The closure of some forward pairs of a random ordering of `points`:
    any partial order on them."""
    seq = draw(st.permutations(sorted(points)))
    pairs = list(combinations(seq, 2))
    rel = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return validate_structure(ORDER_SIG, set(points), {"<": oracle_transitive_closure(rel)})


@st.composite
def overlapping_posets(draw):
    """Two posets on overlapping universes: cut from one poset, so they
    agree on the shared points, or the second drawn on its own."""
    points = draw(st.lists(st.integers(0, 12), unique=True, max_size=8))
    sides = draw(st.lists(st.sampled_from(("a", "b", "ab")), min_size=len(points), max_size=len(points)))
    a_points = {x for x, side in zip(points, sides) if "a" in side}
    b_points = {x for x, side in zip(points, sides) if "b" in side}
    whole = draw(posets_on(points))
    a = induced_substructure(whole, a_points)
    b = induced_substructure(whole, b_points) if draw(st.booleans()) else draw(posets_on(b_points))
    return a, b


@settings(max_examples=400, deadline=None)
@given(overlapping_posets())
def test_poset_glue_and_check_matches_the_closure(pair):
    a, b = pair
    got = glue_outcome(a, b)
    spec = classes.SPECS["PartialOrder"]
    classes.SPECS["PartialOrder"] = replace(spec, glue=oracle_glue_posets)
    try:
        want = glue_outcome(a, b)
    finally:
        classes.SPECS["PartialOrder"] = spec
    assert got == want
    if induced_substructure(a, a.universe & b.universe) == induced_substructure(b, a.universe & b.universe):
        assert got is not None


@st.composite
def chain_merges(draw):
    """Two chains and a shared set: cut from one chain, so they agree on
    the shared points, or shuffled, overlapping outside the shared set,
    or any lists; the shared set may hold ids that neither chain has."""
    kind = draw(st.sampled_from(("agree", "shuffled", "overlap", "any")))
    if kind == "any":
        seq1 = draw(st.lists(st.integers(0, 9), max_size=7))
        seq2 = draw(st.lists(st.integers(0, 9), max_size=7))
        return seq1, seq2, draw(st.sets(st.integers(0, 12), max_size=6))
    whole = draw(st.permutations(list(range(draw(st.integers(0, 9))))))
    sides = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(whole), max_size=len(whole)))
    seq1 = [x for x, side in zip(whole, sides) if side & 1]
    seq2 = [x for x, side in zip(whole, sides) if side & 2]
    shared = {x for x, side in zip(whole, sides) if side == 3}
    if kind == "shuffled":
        seq2 = draw(st.permutations(seq2))
    elif kind == "overlap" and shared:
        shared.discard(draw(st.sampled_from(sorted(shared))))
    return seq1, seq2, shared | draw(st.sets(st.integers(20, 25), max_size=3))


def merge_outcome(merge, seq1, seq2, shared):
    try:
        return merge(seq1, seq2, shared)
    except StructureError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(chain_merges())
@example(([0, 1], [1, 0], {0, 1}))  # orders disagree on the shared part
@example(([0, 5], [0, 5], {0, 9}))  # sides overlap outside the shared part
def test_merge_linear_orders_matches_the_gap_lists(case):
    got = merge_outcome(merge_linear_orders, *case)
    assert got == merge_outcome(oracle_merge_linear_orders, *case)


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(8))))
def test_chain_of_recovers_every_linear_order(seq):
    a = chain_structure(seq)
    assert chain_of(a) == seq == oracle_chain_of(a)
    assert membership("LinearOrder", a) and oracle_is_linear_order(a)


def test_chain_of_returns_a_fresh_list():
    a = chain_structure([2, 0, 1])
    seq = chain_of(a)
    seq.reverse()
    assert chain_of(a) == [2, 0, 1] and a.chain == (2, 0, 1)


# Points a sequence may hold: naturals, often repeated, and values that
# are not naturals (negative ints, a bool, floats, one equal to an int,
# a string, None).
points = st.one_of(st.integers(0, 9), st.integers(-3, -1), st.sampled_from((True, 1.0, 2.5, "x", None)))


def _outcome(build, seq):
    try:
        return build(seq)
    except StructureError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.permutations(list(range(7))), st.lists(st.integers(0, 9), max_size=8),
                 st.lists(points, max_size=6)))
def test_chain_structure_matches_full_validation(seq):
    got, want = _outcome(chain_structure, seq), _outcome(oracle_chain_structure, seq)
    assert got == want
    if isinstance(got, FinStructure) and all(type(x) is int for x in seq):
        # The seeded chain (or, with repeats, the computed one) is the in-degree sort.
        assert list(got.chain) == oracle_chain_of(got) == list(want.chain)
        assert membership("LinearOrder", got) == oracle_is_linear_order(got) == (len(set(seq)) == len(seq))


@pytest.mark.parametrize("seq", [[3, -1, 2], [0, -2, -5], [True, 1], [0, 1.5], ["a", 0], [None]])
def test_chain_structure_rejects_what_validation_rejects(seq):
    with pytest.raises(StructureError) as exc:
        chain_structure(seq)
    assert (type(exc.value), str(exc.value)) == _outcome(oracle_chain_structure, seq)


@st.composite
def order_pairs(draw):
    """Two linear-order conditions: p on a subset of q's points, in q's
    order or shuffled; p on a superset; or on points q does not have."""
    q_seq = draw(st.permutations(draw(st.lists(st.integers(0, 12), unique=True, max_size=7))))
    kind = draw(st.sampled_from(("sub", "shuffled", "super", "disjoint", "any")))
    if kind == "sub":
        p_seq = [x for x in q_seq if draw(st.booleans())]
    elif kind == "shuffled":
        p_seq = draw(st.permutations([x for x in q_seq if draw(st.booleans())]))
    elif kind == "super":
        extra = draw(st.lists(st.integers(13, 20), unique=True, min_size=1, max_size=3))
        p_seq = draw(st.permutations(q_seq + extra))
    elif kind == "disjoint":
        p_seq = draw(st.lists(st.integers(13, 20), unique=True, max_size=4))
    else:
        p_seq = draw(st.lists(st.integers(0, 15), unique=True, max_size=7))
    return Condition("LinearOrder", chain_structure(q_seq)), Condition("LinearOrder", chain_structure(p_seq))


@settings(max_examples=400, deadline=None)
@given(order_pairs())
def test_stronger_on_linear_orders_matches_the_induced_substructure(pair):
    q, p = pair
    assert stronger(q, p) == oracle_stronger(q, p)
    assert stronger(p, q) == oracle_stronger(p, q)
    # A condition built again from its own chain is stronger than it, both ways.
    same = Condition("LinearOrder", chain_structure(list(q.structure.chain)))
    assert stronger(same, q) and stronger(q, same) and oracle_stronger(same, q)
