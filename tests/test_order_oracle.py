"""Differential tests: the cached order index against the code it replaced.

The oracles below are the earlier implementations: `chain_of` counted
each element's in-degree by rescanning the whole `<` relation, and
linear-order membership checked totality pair by pair, then
irreflexivity, asymmetry and transitivity, and later counted the pairs
and required each to go forward in the chain; the poset glue closed a
relation by joining every pair with every pair until nothing changed;
`chain_structure` passed every pair it drew from its sequence to
`validate_structure`; and `stronger` compared the induced substructure
of q on p's points with p.  The fast code must return the same list in
the same order, the same verdict, closure and structure (or the same
error), on every input, linear or not.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from genstruct.classes import _transitive_closure, chain_of, chain_structure, membership
from genstruct.forcing import Condition, stronger
from genstruct.structures import ORDER_SIG, FinStructure, StructureError, induced_substructure, validate_structure

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


def oracle_transitive_closure(rel: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(rel)
    changed = True
    while changed:
        changed = False
        extra = {(x, w) for x, y in closed for z, w in closed if y == z and (x, w) not in closed}
        if extra:
            closed |= extra
            changed = True
    return closed


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


@settings(max_examples=400, deadline=None)
@given(order_relations())
def test_transitive_closure_matches_the_pairwise_fixpoint(a):
    rel = set(a.rel("<"))
    assert _transitive_closure(rel) == oracle_transitive_closure(rel)


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
