"""Differential tests: the cached order index against the code it replaced.

The oracles below are the earlier implementations: `chain_of` counted
each element's in-degree by rescanning the whole `<` relation, and
linear-order membership checked totality pair by pair, then
irreflexivity, asymmetry and transitivity, and the poset glue closed a
relation by joining every pair with every pair until nothing changed.
The fast code must return the same list in the same order, the same
verdict and the same closure on every `<` relation, linear or not.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from genstruct.classes import _transitive_closure, chain_of, chain_structure, membership
from genstruct.structures import ORDER_SIG, FinStructure, validate_structure

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
    assert membership("LinearOrder", a) == oracle_is_linear_order(a)
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
