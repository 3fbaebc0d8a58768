"""Property tests over randomly generated instances for the algebraic
invariants the rest of the suite checks only pointwise."""

from random import Random

from hypothesis import given, settings, strategies as st

from genstruct.classes import (
    TAGS,
    chain_structure,
    enumerate_members,
    membership,
    merge_linear_orders,
)
from genstruct.forcing import (
    Condition,
    common_extension,
    delta_system,
    empty_condition,
    meet,
    point_requirement,
    stronger,
)
from genstruct.structures import (
    GRAPH_SIG,
    enumerate_embeddings,
    relabel_disjoint,
    validate_structure,
)


@st.composite
def chain_pairs(draw):
    shared_n = draw(st.integers(0, 4))
    pool = draw(st.permutations(list(range(20))))
    shared = pool[:shared_n]
    left, right = list(shared), list(shared)
    for j in range(draw(st.integers(0, 4))):
        left.insert(draw(st.integers(0, len(left))), pool[shared_n + j])
    for j in range(draw(st.integers(0, 4))):
        right.insert(draw(st.integers(0, len(right))), pool[shared_n + 4 + j])
    return shared, left, right


@settings(max_examples=200, deadline=None)
@given(chain_pairs())
def test_merge_is_a_linear_order_extending_both(data):
    shared, left, right = data
    merged = merge_linear_orders(left, right, set(shared))
    assert sorted(merged) == sorted(set(left) | set(right))
    assert [x for x in merged if x in left] == left
    assert [x for x in merged if x in right] == right
    assert membership("LinearOrder", chain_structure(merged))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 5))
    ids = draw(st.permutations(list(range(12))))[:n]
    rel = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if draw(st.booleans()):
                rel.update({(a, b), (b, a)})
    return validate_structure(GRAPH_SIG, set(ids), {"E": rel})


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.sets(st.integers(0, 30), max_size=12))
def test_relabel_preserves_embedding_counts(g, forbidden):
    moved, _ = relabel_disjoint(g, forbidden)
    assert moved.universe.isdisjoint(forbidden)
    probe = validate_structure(GRAPH_SIG, {40, 41}, {"E": {(40, 41), (41, 40)}})
    assert len(enumerate_embeddings(probe, g)) == len(enumerate_embeddings(probe, moved))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.integers(0, 7), max_size=4), min_size=1, max_size=40))
def test_delta_system_always_valid(family):
    ds = delta_system([frozenset(s) for s in family])
    chosen = [frozenset(family[i]) for i in ds.members]
    assert chosen
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            assert a & b == ds.root


def tag_conditions(tag, rng, count=40):
    members = []
    for n in range(4):
        members.extend(enumerate_members(tag, n))
    out = []
    for _ in range(count):
        body = members[rng.randrange(len(members))]
        shift = rng.randrange(0, 12)
        renamed, _ = relabel_disjoint(body, set(range(shift)))
        out.append(Condition(tag, renamed))
    return out


def test_common_extension_laws_across_tags():
    rng = Random(41)
    for tag in TAGS:
        for p in tag_conditions(tag, rng, 12):
            for q in tag_conditions(tag, rng, 6):
                out = common_extension(p, q)
                if out is not None:
                    assert stronger(out, p) and stronger(out, q)
                    assert out.universe == p.universe | q.universe


def test_point_requirements_meet_everywhere():
    rng = Random(43)
    for tag in TAGS:
        current = empty_condition(tag)
        for m in range(6):
            req = point_requirement(m)
            new = meet(current, req, rng)
            assert stronger(new, current)
            assert req.satisfied(new)
            assert meet(new, req, rng) == new
            current = new
        assert set(range(6)) <= set(current.universe)
