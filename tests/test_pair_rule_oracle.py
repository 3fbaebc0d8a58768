"""Differential tests: the class pair rules against the code they replaced.

Graph, Digraph and Tournament leave each pair between an old and a new
point free, and one pair rule per class decides it, in the glue.  The
oracles below are the earlier implementations, which decided those pairs
in four places:
- the canonical glues `_free_union` (no arc between the a-only and the
  b-only points) and `_glue_tournaments` (every a-only -> b-only arc);
- `_adjoin_by_pairs`, the add_point of those three classes, which asked a
  per-pair rule about one old point and the new point at a time, and
  `_adjoin_unrelated`, PartialOrder's;
- `forcing._randomize_free_relations`, which rebuilt each glued body of a
  seeded build, drawing its pairs between the new points and the old
  points outside the base image with the per-pair rule.
The current code must give equal structures and leave the rng in the same
state.
"""

from dataclasses import replace
from random import Random

import pytest

from genstruct.classes import SPECS, _amalgam_instances, _digraph_arcs, class_spec, enumerate_members
from genstruct.forcing import Condition, extension_requirement, meet
from genstruct.structures import GRAPH_SIG, ORDER_SIG, inclusion_embedding, relabel, validate_structure

# --- oracles -----------------------------------------------------------------


def oracle_graph_cross(x, n, rng):
    return {(x, n), (n, x)} if rng and rng.random() < 0.5 else set()


def oracle_digraph_cross(x, n, rng):
    return _digraph_arcs(x, n, rng.randrange(4) if rng else 0)


def oracle_tournament_cross(x, n, rng):
    return {(n, x)} if rng and rng.random() < 0.5 else {(x, n)}


ORACLE_CROSS = {"Graph": oracle_graph_cross, "Digraph": oracle_digraph_cross, "Tournament": oracle_tournament_cross}
PAIR_TAGS = tuple(ORACLE_CROSS)


def oracle_free_union(a, b):
    return validate_structure(GRAPH_SIG, a.universe | b.universe, {"E": a.rel("E") | b.rel("E")})


def oracle_glue_tournaments(a, b):
    cross = {(x, y) for x in a.universe - b.universe for y in b.universe - a.universe}
    return validate_structure(GRAPH_SIG, a.universe | b.universe, {"E": a.rel("E") | b.rel("E") | cross})


ORACLE_GLUE = {"Graph": oracle_free_union, "Digraph": oracle_free_union, "Tournament": oracle_glue_tournaments}


def oracle_adjoin_by_pairs(cross):
    def add_point(a, m, rng):
        rel = set(a.rel("E"))
        for x in a.sorted_universe():
            rel |= cross(x, m, rng)
        return validate_structure(GRAPH_SIG, a.universe | {m}, {"E": rel})

    return add_point


def oracle_adjoin_unrelated(a, m, rng):
    return validate_structure(ORDER_SIG, a.universe | {m}, {"<": set(a.rel("<"))})


ORACLE_ADD_POINT = {**{tag: oracle_adjoin_by_pairs(cross) for tag, cross in ORACLE_CROSS.items()},
                    "PartialOrder": oracle_adjoin_unrelated}


def oracle_randomize_free_relations(tag, body, new_ids, fixed_ids, rng):
    """Resample the free cross relations between fresh points and the old
    points the amalgam did not constrain."""
    cross = ORACLE_CROSS.get(tag)
    if cross is None:
        return body
    free_old = sorted(body.universe - new_ids - fixed_ids)
    rel = set(body.rel("E"))
    for n in sorted(new_ids):
        for x in free_old:
            rel.discard((x, n))
            rel.discard((n, x))
            rel |= cross(x, n, rng)
    return validate_structure(GRAPH_SIG, set(body.universe), {"E": rel})


# --- tests -------------------------------------------------------------------


@pytest.mark.parametrize("tag", PAIR_TAGS)
def test_canonical_glue_matches_oracle_on_the_bound_3_sweep(tag):
    glue, oracle, problems = class_spec(tag).glue, ORACLE_GLUE[tag], 0
    for base, left, right, pairs in _amalgam_instances(tag, 3, False):
        for fm, gm, map_c, image_c in pairs:
            assert glue(left, image_c) == oracle(left, image_c), (left, image_c)
            problems += 1
    assert problems > 100


@pytest.mark.parametrize("tag", PAIR_TAGS + ("PartialOrder",))
def test_add_point_matches_per_pair_oracle(tag):
    """On members of at most 4 points, on ids 0.. and on ids whose sets do
    not iterate in ascending order, with no rng and with seeds 0-3."""
    add_point, oracle = class_spec(tag).add_point, ORACLE_ADD_POINT[tag]
    for n in range(5):
        for member in enumerate_members(tag, n):
            spread = relabel(member, {x: 7 * x + 3 for x in member.universe})
            for a, m in ((member, n), (spread, 5), (spread, 40)):
                for seed in (None, 0, 1, 2, 3):
                    got_rng, want_rng = (None, None) if seed is None else (Random(seed), Random(seed))
                    assert add_point(a, m, got_rng) == oracle(a, m, want_rng), (a, m, seed)
                    assert seed is None or got_rng.getstate() == want_rng.getstate()


def one_step_case(tag):
    """(p, requirement): a three-point condition whose point 2 has no
    out-neighbour, and the requirement that it get one.  Meeting it adds one
    point, whose pairs with 0 and 1 are free."""
    arcs = {"Graph": {(0, 1), (1, 0)}, "Digraph": {(0, 1)}, "Tournament": {(0, 1), (0, 2), (1, 2)}}[tag]
    p = Condition(tag, validate_structure(GRAPH_SIG, {0, 1, 2}, {"E": arcs}))
    edge = {(0, 1), (1, 0)} if tag == "Graph" else {(0, 1)}
    b, b_prime = (validate_structure(GRAPH_SIG, points, {"E": edge if len(points) == 2 else ()})
                  for points in ({0}, {0, 1}))
    return p, extension_requirement({0: 2}, inclusion_embedding(b, b_prime), tag)


@pytest.mark.parametrize("tag", PAIR_TAGS)
@pytest.mark.parametrize("seed", range(4))
def test_a_seeded_extension_step_builds_and_checks_one_body(tag, seed, monkeypatch):
    member, checked = SPECS[tag].member, []

    def counting(a):
        checked.append(a.universe)
        return member(a)

    p, req = one_step_case(tag)
    monkeypatch.setitem(SPECS, tag, replace(SPECS[tag], member=counting))
    q = meet(p, req, Random(seed))
    assert q.universe == {0, 1, 2, 3} and req.satisfied(q)
    assert checked.count(q.universe) == 1
