import dataclasses
from itertools import combinations
from random import Random

import pytest

from genstruct.classes import NotInClass, TAGS, chain_of, chain_structure
from genstruct.forcing import (
    Condition,
    CrossingSpec,
    DeltaSystem,
    DenseRequirement,
    GenericChain,
    IsomorphismTypeMismatch,
    SAPRequired,
    TagMismatch,
    _realize_over,
    between_requirement,
    common_extension,
    connectivity_requirement,
    crossing_amalgamation,
    delta_system,
    empty_condition,
    extension_requirement,
    generic_build,
    generic_steps,
    knaster_trim,
    meet,
    point_requirement,
    stronger,
    strongly_dense_check,
)
from genstruct.structures import (
    GRAPH_SIG,
    ORDER_SIG,
    StructureError,
    inclusion_embedding,
    induced_substructure,
    make_embedding,
    used_rows,
    validate_structure,
)


def graph_cond(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return Condition("Graph", validate_structure(GRAPH_SIG, set(universe), {"E": rel}))


def order_cond(seq):
    return Condition("LinearOrder", chain_structure(list(seq)))


# --- ordering and compatibility ------------------------------------------------


def test_stronger_examples():
    e = empty_condition("Graph")
    p = graph_cond({0, 1}, [(0, 1)])
    assert stronger(p, e)
    assert stronger(p, p)
    q = graph_cond({0, 1, 2}, [])  # drops the edge of p
    assert not stronger(q, p)


def test_stronger_tag_mismatch():
    with pytest.raises(TagMismatch):
        stronger(empty_condition("Graph"), empty_condition("LinearOrder"))


def test_common_extension_cases():
    free = common_extension(graph_cond({0}, []), graph_cond({1}, []))
    assert free is not None and free.universe == frozenset({0, 1})
    assert common_extension(order_cond([0, 1]), order_cond([1, 0])) is None
    merged = common_extension(order_cond([0, 1]), order_cond([1, 2]))
    assert chain_of(merged.structure) == [0, 1, 2]
    assert stronger(merged, order_cond([0, 1]))


def test_common_extension_linear_graph_incompatible():
    # Two length-2 arms through one centre cannot coexist id-preservingly.
    p = graph_cond({0, 1, 2}, [(1, 0), (0, 2)])
    q = graph_cond({0, 3, 4}, [(3, 0), (0, 4)])
    p = Condition("LinearGraph", p.structure)
    q = Condition("LinearGraph", q.structure)
    assert common_extension(p, q) is None


def test_common_extension_partial_orders():
    from genstruct.classes import SPECS, membership

    glue = SPECS["PartialOrder"].glue
    # Opposite comparabilities on the shared {0, 1}: the union has the cycle 0 < 1 < 0.
    p = Condition("PartialOrder", poset({0, 1, 2}, {(0, 1)}))
    q = Condition("PartialOrder", poset({0, 1, 3}, {(1, 0)}))
    assert not membership("PartialOrder", glue(p.structure, q.structure))
    assert common_extension(p, q) is None
    # Comparable on one side, incomparable on the other: the glue is a
    # poset, so only the row check sees that it does not carry q.
    q = Condition("PartialOrder", poset({0, 1, 3}, {(0, 3)}))
    assert membership("PartialOrder", glue(p.structure, q.structure))
    assert common_extension(p, q) is None
    # Agreeing sides: the closure of the union, whose one new pair 2 < 3
    # goes through the shared 1.
    p = Condition("PartialOrder", poset({0, 1, 2}, {(2, 1)}))
    q = Condition("PartialOrder", poset({0, 1, 3, 4}, {(1, 3), (4, 1)}))
    out = common_extension(p, q)
    assert out is not None
    assert out.structure == poset({0, 1, 2, 3, 4}, {(2, 1), (1, 3), (4, 1), (2, 3)})
    assert stronger(out, p) and stronger(out, q)


# --- requirements ----------------------------------------------------------------


def test_point_requirement_noop_when_present():
    p = order_cond([5, 7])
    req = point_requirement(5)
    assert meet(p, req) == p


@pytest.mark.parametrize("extended", [
    graph_cond({0, 1, 5}, []),  # satisfies the requirement but drops the edge of p
    graph_cond({0, 1, 2}, [(0, 1)]),  # stronger than p but without 5
], ids=["not-stronger", "misses-requirement"])
def test_meet_rejects_an_extender_that_breaks_its_contract(extended):
    p = graph_cond({0, 1}, [(0, 1)])
    req = DenseRequirement("D_bad", lambda c: 5 in c.universe, lambda c, rng: extended)
    with pytest.raises(StructureError, match=r"^extender for D_bad broke its contract$"):
        meet(p, req)


def test_between_requirement_inserts_fresh_point():
    p = order_cond([0, 1])
    q = meet(p, between_requirement(0, 1))
    seq = chain_of(q.structure)
    assert seq[0] == 0 and seq[-1] == 1 and len(seq) == 3
    assert seq[1] == 2  # smallest fresh natural


def test_extension_requirement_vacuous_when_mismatched():
    # i places an edge onto a frozen non-edge: permanently vacuous.
    b = graph_cond({10, 11}, [(10, 11)]).structure
    bp = graph_cond({10, 11, 12}, [(10, 11), (11, 12)]).structure
    req = extension_requirement({10: 0, 11: 1}, inclusion_embedding(b, bp), "Graph")
    p = graph_cond({0, 1}, [])
    assert req.satisfied(p)
    assert meet(p, req) == p


def test_extension_requirement_adds_fresh_vertex():
    b = validate_structure(GRAPH_SIG, set(), {})
    bp = graph_cond({10}, []).structure
    req = extension_requirement({}, inclusion_embedding(b, bp), "Graph")
    q = meet(empty_condition("Graph"), req)
    assert len(q.universe) == 1


def test_extension_requirement_realizes_midpoint():
    b = chain_structure([10, 11])
    bp = chain_structure([10, 12, 11])
    req = extension_requirement({10: 0, 11: 1}, inclusion_embedding(b, bp), "LinearOrder")
    p = order_cond([0, 1])
    q = meet(p, req)
    seq = chain_of(q.structure)
    assert seq.index(0) + 2 == seq.index(1)
    assert req.satisfied(q)


def test_extension_requirement_pending_then_realized():
    b = graph_cond({10}, []).structure
    bp = graph_cond({10, 11}, [(10, 11)]).structure
    req = extension_requirement({10: 3}, inclusion_embedding(b, bp), "Graph")
    p = empty_condition("Graph")
    assert not req.satisfied(p)  # image absent: obligation pending
    q = meet(p, req)
    assert 3 in q.universe
    assert any(3 in t for t in q.structure.rel("E"))


def test_extension_requirement_with_a_non_inclusion_embedding():
    # f sends 0 to 10: b' is glued over b along f, not along shared ids.
    b = graph_cond({0}, []).structure
    bp = graph_cond({10, 11}, [(10, 11)]).structure
    f = make_embedding(b, bp, {0: 10})
    req = extension_requirement({0: 0}, f, "Graph")
    q = meet(empty_condition("Graph"), req)
    assert req.satisfied(q)
    assert any(t[0] == 0 for t in q.structure.rel("E"))


def test_extension_requirement_with_an_embedding_that_moves_onto_other_ids():
    # f swaps the roles of the ids 0 and 1, so b' must be renamed around b.
    b = graph_cond({0, 1}, []).structure
    bp = graph_cond({0, 1, 2}, [(0, 2)])
    f = make_embedding(b, bp.structure, {0: 1, 1: 2})
    req = extension_requirement({0: 5, 1: 6}, f, "Graph")
    q = meet(graph_cond({5, 6}, []), req)
    assert req.satisfied(q)


def test_extension_requirement_is_a_dense_requirement_that_replace_accepts():
    # Wrappers rebuild the factory's result with `dataclasses.replace`.
    b = graph_cond({10}, []).structure
    bp = graph_cond({10, 11}, [(10, 11)]).structure
    req = extension_requirement({10: 3}, inclusion_embedding(b, bp), "Graph")
    assert isinstance(req, DenseRequirement)
    calls = []
    wrapped = dataclasses.replace(req, satisfied=lambda p: calls.append(p) or req.satisfied(p))
    assert wrapped.name == req.name and wrapped.extend is req.extend
    q = meet(empty_condition("Graph"), wrapped)
    assert req.satisfied(q) and len(calls) == 2


def test_extension_requirement_rejects_graph_target_with_loop():
    b = validate_structure(GRAPH_SIG, set(), {})
    bp = validate_structure(GRAPH_SIG, {10}, {"E": {(10, 10)}})
    req = extension_requirement({}, inclusion_embedding(b, bp), "Graph")
    with pytest.raises(NotInClass):
        req.extend(empty_condition("Graph"), None)


def test_extension_requirement_rejects_nonlinear_order_target():
    # Only 10 < 11: a partial order, which merging the chains would linearise.
    b = chain_structure([10, 11])
    bp = validate_structure(ORDER_SIG, {10, 11, 12}, {"<": {(10, 11)}})
    req = extension_requirement({10: 0, 11: 1}, inclusion_embedding(b, bp), "LinearOrder")
    with pytest.raises(NotInClass):
        req.extend(order_cond([0, 1]), None)


def test_realize_over_rejects_a_base_map_that_is_no_embedding():
    b = graph_cond({10, 11}, [(10, 11)]).structure
    bp = graph_cond({10, 11, 12}, [(10, 11), (11, 12)]).structure
    with pytest.raises(StructureError):
        _realize_over(graph_cond({0, 1}, []), b, bp, {10: 0, 11: 1}, {}, None)


def test_extension_requirement_needs_strong_amalgamation():
    b = validate_structure(GRAPH_SIG, set(), {})
    bp = graph_cond({10}, []).structure
    with pytest.raises(SAPRequired):
        extension_requirement({}, inclusion_embedding(b, bp), "LinearGraph")


# --- the generic builder -----------------------------------------------------------


def step_conditions(start, schedule, *args):
    """The start condition, then the condition of each step of the loop."""
    return [start, *(row[3] for row in generic_steps(start, schedule, *args))]


def test_generic_build_zero_steps():
    chain = generic_build(empty_condition("Graph"), [point_requirement(0)], 0, seed=1)
    assert chain.log == () and not list(generic_steps(empty_condition("Graph"), [point_requirement(0)], 0, 1))
    assert len(chain.final.universe) == 0
    # An empty schedule runs no step, whatever the budget.
    for steps in (None, 5):
        assert generic_build(empty_condition("Graph"), [], steps) == GenericChain(empty_condition("Graph"), ())
        assert not list(generic_steps(empty_condition("Graph"), [], steps))


def _extension_schedule_upto2(tag, n):
    from genstruct.cli import extension_schedule

    return extension_schedule(tag, n, 2)


def test_generic_graph_realizes_one_point_extensions():
    schedule = [point_requirement(m) for m in range(5)]
    schedule += _extension_schedule_upto2("Graph", 5)
    chain = generic_build(empty_condition("Graph"), schedule, 8 * len(schedule) + 8, seed=1)
    m = chain.final.structure
    edges = {frozenset(t) for t in m.rel("E")}
    for v in range(5):
        others = [x for x in m.universe if x != v]
        assert any(frozenset((v, x)) in edges for x in others), f"{v} needs a neighbour"
        assert any(frozenset((v, x)) not in edges for x in others), f"{v} needs a non-neighbour"


def test_generic_order_densifies_named_points():
    schedule = [point_requirement(m) for m in range(4)]
    schedule += [between_requirement(a, b) for a in range(4) for b in range(a + 1, 4)]
    chain = generic_build(empty_condition("LinearOrder"), schedule, 8 * len(schedule) + 8, seed=2)
    seq = chain_of(chain.final.structure)
    pos = {x: i for i, x in enumerate(seq)}
    for a in range(4):
        for b in range(4):
            if a != b:
                assert abs(pos[a] - pos[b]) > 1


def test_chain_monotone_and_requirements_permanent():
    schedule = [point_requirement(m) for m in range(3)]
    schedule += _extension_schedule_upto2("Graph", 3)
    steps = step_conditions(empty_condition("Graph"), schedule, 4 * len(schedule), 9)
    for a, b in zip(steps, steps[1:]):
        assert stronger(b, a)
    previous = [False] * len(schedule)
    for step in steps:
        current = [req.satisfied(step) for req in schedule]
        for before, now in zip(previous, current):
            assert not (before and not now), "satisfaction must be upward closed"
        previous = current


# Ground-set sizes of the builds below, with the CLI's extension size 3.
RESTRICTION_SIZES = {"Graph": 5, "Tournament": 5, "Digraph": 2, "PartialOrder": 4,
                     "RationalMetric": 2, "LinearOrder": 12, "LinearGraph": 10}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tag", TAGS)
def test_each_step_is_the_final_condition_restricted(tag, seed):
    """Why a build keeps only its last condition: each step's universe is
    the points added so far, and the final condition restricted to them is
    that step's condition.  Metric steps are unpadded, so compare rows."""
    from genstruct.cli import default_schedule

    start = empty_condition(tag)
    rows = list(generic_steps(start, default_schedule(tag, RESTRICTION_SIZES[tag], 3), None, seed))
    final = rows[-1][3]
    assert any(added for _, _, added, _ in rows)
    universe = set(start.universe)
    for _, _, added, step in rows:
        universe.update(added)
        assert step.universe == universe
        assert used_rows(induced_substructure(final.structure, universe)) == used_rows(step.structure)


def test_generic_build_determinism():
    schedule = [point_requirement(m) for m in range(4)]
    schedule += _extension_schedule_upto2("Graph", 4)
    a = generic_build(empty_condition("Graph"), schedule, 200, seed=77)
    b = generic_build(empty_condition("Graph"), schedule, 200, seed=77)
    assert a == b


def test_connectivity_requirement_joins_components():
    p = Condition("LinearGraph", validate_structure(GRAPH_SIG, {0, 1}, {}))
    q = meet(p, connectivity_requirement(0, 1))
    assert len(q.universe) == 3  # fresh bridge point
    assert meet(q, connectivity_requirement(0, 1)) == q


# --- delta systems -------------------------------------------------------------------


def test_delta_system_examples():
    assert delta_system([{4, 5}] * 3) == DeltaSystem(frozenset({4, 5}), (0, 1, 2))
    assert delta_system([{1}, {2}, {3}]) == DeltaSystem(frozenset(), (0, 1, 2))
    ds = delta_system([{0, 1}, {0, 2}, {0, 3}, {1, 2}])
    assert ds.root == frozenset({0})
    assert ds.members == (0, 1, 2)


def exhaustive_max_delta(sets):
    """Independent oracle: largest valid subfamily by brute force."""
    m = len(sets)
    best = 0
    masks = sorted(range(1, 1 << m), key=lambda x: -bin(x).count("1"))
    for mask in masks:
        size = bin(mask).count("1")
        if size <= best:
            continue
        chosen = [sets[i] for i in range(m) if mask >> i & 1]
        roots = {frozenset(a & b) for a, b in combinations(chosen, 2)}
        if len(roots) <= 1:
            best = size
    return best


def test_delta_system_validity_and_oracle():
    rng = Random(4)
    for _ in range(120):
        fam = [frozenset(rng.sample(range(8), rng.randrange(0, 5))) for _ in range(rng.randrange(1, 13))]
        ds = delta_system(fam)
        chosen = [fam[i] for i in ds.members]
        for a, b in combinations(chosen, 2):
            assert a & b == ds.root
        assert all(ds.root <= s for s in chosen)
        assert len(ds.members) <= exhaustive_max_delta(fam)
        if len(fam) >= 2:
            assert len(ds.members) >= 2


def assert_erdos_rado_floor(family, p):
    """delta_system on distinct k-sets, more than k!(p-1)^k of them, keeps a
    sunflower of at least p members."""
    ds = delta_system(family)
    chosen = [family[i] for i in ds.members]
    assert all(a & b == ds.root for a, b in combinations(chosen, 2))
    assert len(chosen) >= p, (family, ds)


def test_delta_system_erdos_rado_floor_on_every_family_of_nine_pairs():
    pairs = [frozenset(t) for t in combinations(range(6), 2)]
    families = list(combinations(pairs, 9))  # 2! * (3 - 1)^2 = 8 < 9
    assert len(families) == 5005
    for family in families:
        assert_erdos_rado_floor(list(family), 3)


def test_delta_system_erdos_rado_floor_on_random_families_of_triples():
    rng = Random(17)
    triples = [frozenset(t) for t in combinations(range(9), 3)]
    for _ in range(300):
        assert_erdos_rado_floor(rng.sample(triples, 49), 3)  # 3! * (3 - 1)^3 = 48 < 49


# --- crossing amalgamation --------------------------------------------------------------


def test_crossing_graph_pattern():
    p_s = graph_cond({0, 1}, [])
    p_t = graph_cond({2, 3}, [])
    out = crossing_amalgamation(p_s, p_t, frozenset(), CrossingSpec(0, 1, 2, 3))
    edges = {frozenset(t) for t in out.structure.rel("E")}
    assert edges == {frozenset((0, 2))}
    assert stronger(out, p_s) and stronger(out, p_t)


def test_crossing_order_pattern():
    p_s = order_cond([9, 0, 1])
    p_t = order_cond([9, 2, 3])
    out = crossing_amalgamation(p_s, p_t, frozenset({9}), CrossingSpec(0, 1, 2, 3))
    seq = chain_of(out.structure)
    assert seq.index(0) < seq.index(2) < seq.index(3) < seq.index(1)
    assert stronger(out, p_s) and stronger(out, p_t)


def test_crossing_order_checks_the_barred_points():
    root = frozenset({9})
    with pytest.raises(IsomorphismTypeMismatch, match="s below s_bar"):
        crossing_amalgamation(order_cond([9, 1, 0]), order_cond([9, 2, 3]), root,
                              CrossingSpec(0, 1, 2, 3))
    with pytest.raises(IsomorphismTypeMismatch, match="root\\+s_bar"):
        crossing_amalgamation(order_cond([9, 0, 1]), order_cond([3, 9, 2]), root,
                              CrossingSpec(0, 1, 2, 3))


def test_crossing_rejects_shared_designated_point():
    p_s = graph_cond({0, 1}, [])
    p_t = graph_cond({0, 3}, [])
    with pytest.raises(IsomorphismTypeMismatch):
        crossing_amalgamation(p_s, p_t, frozenset(), CrossingSpec(0, 1, 0, 3))


def test_crossing_rejects_type_mismatch():
    p_s = graph_cond({9, 0, 1}, [(9, 0)])
    p_t = graph_cond({9, 2, 3}, [])
    with pytest.raises(IsomorphismTypeMismatch):
        crossing_amalgamation(p_s, p_t, frozenset({9}), CrossingSpec(0, 1, 2, 3))


# --- strong density -----------------------------------------------------------------------


def poset(universe, pairs):
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for z, w in list(rel):
                if y == z and (x, w) not in rel:
                    rel.add((x, w))
                    changed = True
    return validate_structure(ORDER_SIG, set(universe), {"<": rel})


def test_strongly_dense_two_chain_empty_set():
    p = poset({0, 1}, {(0, 1)})
    verdict = strongly_dense_check(set(), p)
    assert not verdict.holds
    assert any(f["kind"] == "between" for f in verdict.failures)


def test_strongly_dense_antichain_lacks_below_both():
    p = poset({0, 1}, set())
    verdict = strongly_dense_check({0, 1}, p)
    assert not verdict.holds
    assert any(f["kind"] == "below_both" for f in verdict.failures)


def test_strongly_dense_witness_poset_covers_designated_pair():
    # s=0, t=1 incomparable; 2..6 realize the five witness kinds for (0,1).
    # No finite poset with a comparable pair can pass globally (covering
    # pairs lack strict intermediates), so the verdict stays false while
    # the designated pair itself is fully witnessed.
    p = poset({0, 1, 2, 3, 4, 5, 6}, {(3, 0), (3, 1), (4, 0), (0, 2), (0, 5), (1, 5)})
    verdict = strongly_dense_check(set(range(7)), p)
    assert not verdict.holds
    assert not any(f["pair"] == (0, 1) for f in verdict.failures)
    assert all(f["kind"] == "between" or f["pair"] != (0, 1) for f in verdict.failures)
    assert any(f["kind"] == "between" for f in verdict.failures)


@pytest.mark.parametrize("pairs", [{(0, 0)}, {(0, 1), (1, 0)}], ids=["loop", "2-cycle"])
def test_strongly_dense_rejects_relations_that_are_not_posets(pairs):
    relation = validate_structure(ORDER_SIG, {0, 1, 2}, {"<": pairs})
    with pytest.raises(NotInClass):
        strongly_dense_check({2}, relation)


def test_strongly_dense_trivial_posets_pass():
    assert strongly_dense_check(set(), poset(set(), set())).holds
    assert strongly_dense_check({0}, poset({0}, set())).holds


# --- knaster trimming ----------------------------------------------------------------------


def test_knaster_trim_singleton():
    p = graph_cond({0, 1}, [(0, 1)])
    assert knaster_trim([p]) == [p]


def test_knaster_trim_disagreeing_pair():
    p = graph_cond({0, 1}, [(0, 1)])
    q = graph_cond({0, 1}, [])
    kept = knaster_trim([p, q])
    assert len(kept) == 1


def test_knaster_trim_requires_sap():
    p = Condition("LinearGraph", validate_structure(GRAPH_SIG, {0}, {}))
    with pytest.raises(SAPRequired):
        knaster_trim([p])


def test_knaster_trim_random_family_pairwise_compatible():
    rng = Random(12)
    conds = []
    for _ in range(100):
        pts = rng.sample(range(10**5), rng.randrange(1, 4))
        edges = set()
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                if rng.random() < 0.5:
                    edges.update({(a, b), (b, a)})
        conds.append(Condition("Graph", validate_structure(GRAPH_SIG, set(pts), {"E": edges})))
    kept = knaster_trim(conds)
    assert kept
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert common_extension(a, b) is not None


def test_knaster_trim_metric_conditions():
    from fractions import Fraction

    from genstruct.classes import metric_structure

    def cond(ids, d):
        dist = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                dist[frozenset((a, b))] = Fraction(d)
        return Condition("RationalMetric", metric_structure(set(ids), dist))

    family = [cond([0, 1, k], 1) for k in (2, 3, 4)] + [cond([0, 1, 5], 2)]
    kept = knaster_trim(family)
    assert len(kept) == 3  # the odd distance on the shared pair is dropped
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert common_extension(a, b) is not None


def test_crossing_rejects_root_disagreement():
    from genstruct.forcing import RootDisagreement

    p_s = graph_cond({9, 8, 0, 1}, [(9, 8)])
    p_t = graph_cond({9, 8, 2, 3}, [])
    with pytest.raises(RootDisagreement):
        crossing_amalgamation(p_s, p_t, frozenset({9, 8}), CrossingSpec(0, 1, 2, 3))


def test_strongly_dense_rejects_foreign_elements():
    from genstruct.forcing import ElementOutsideUniverse

    p = poset({0, 1}, {(0, 1)})
    with pytest.raises(ElementOutsideUniverse):
        strongly_dense_check({7}, p)


def test_agreeing_restrictions_are_compatible_for_strong_tags():
    # Two induced restrictions of one member agree on their overlap, so
    # for classes with strong amalgamation a common extension must exist.
    from genstruct.classes import TAGS, class_spec, enumerate_members
    from genstruct.structures import induced_substructure, relabel_disjoint
    from random import Random

    rng = Random(77)
    for tag in TAGS:
        if not class_spec(tag).sap:
            continue
        for member in enumerate_members(tag, 4)[:6]:
            moved, _ = relabel_disjoint(member, set(range(rng.randrange(0, 5))))
            ids = sorted(moved.universe)
            cut = rng.randrange(1, len(ids))
            overlap = rng.randrange(0, cut + 1)
            left_ids = set(ids[:cut])
            right_ids = set(ids[cut - overlap:])
            p = Condition(tag, induced_substructure(moved, left_ids))
            q = Condition(tag, induced_substructure(moved, right_ids))
            out = common_extension(p, q)
            assert out is not None, (tag, ids, cut, overlap)
            assert stronger(out, p) and stronger(out, q)
