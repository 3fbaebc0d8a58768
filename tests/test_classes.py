import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import genstruct
from genstruct.classes import (
    AmalgamationImpossible,
    ScaleExceeded,
    TAGS,
    amalgamate,
    chain_of,
    chain_structure,
    check_property,
    class_spec,
    enumerate_members,
    membership,
    merge_linear_orders,
    metric_distances,
    metric_structure,
    parse_metric_symbol,
    PropertyVerdict,
    _setup_amalgam,
    glue_and_check,
)
from genstruct.structures import (
    GRAPH_SIG,
    ORDER_SIG,
    SignatureMismatch,
    StructureError,
    empty_structure,
    enumerate_embeddings,
    find_isomorphism,
    induced_substructure,
    inclusion_embedding,
    make_embedding,
    relabel_disjoint,
    validate_structure,
)

from test_amalgam_oracle import validate_amalgam


def graph(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return validate_structure(GRAPH_SIG, set(universe), {"E": rel})


# --- membership -------------------------------------------------------------


def test_linear_order_membership():
    chain = validate_structure(ORDER_SIG, {0, 1, 2}, {"<": {(0, 1), (1, 2), (0, 2)}})
    assert membership("LinearOrder", chain)
    broken = validate_structure(ORDER_SIG, {0, 1, 2}, {"<": {(0, 1), (1, 2)}})
    assert not membership("LinearOrder", broken)


def test_linear_graph_membership_rejects_triangle():
    k3 = graph({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    assert not membership("LinearGraph", k3)
    path = graph({0, 1, 2}, [(0, 1), (1, 2)])
    assert membership("LinearGraph", path)
    forest = graph({0, 1, 2, 3}, [(0, 1)])
    assert membership("LinearGraph", forest)  # hereditary closure


def test_tournament_membership():
    t = validate_structure(GRAPH_SIG, {0, 1, 2}, {"E": {(0, 1), (1, 2), (0, 2)}})
    assert membership("Tournament", t)
    assert not membership("Tournament", graph({0, 1}, [(0, 1)]))


def test_parse_metric_symbol_is_cached_and_still_rejects_bad_names():
    assert parse_metric_symbol("d_1/2") == Fraction(1, 2)
    assert parse_metric_symbol("d_1/2") is parse_metric_symbol("d_1/2")
    for _ in range(2):  # a failure is not cached
        with pytest.raises(SignatureMismatch):
            parse_metric_symbol("E")
        with pytest.raises(ValueError):
            parse_metric_symbol("d_x")


def test_metric_membership_triangle():
    good = metric_structure({0, 1, 2}, {
        frozenset((0, 1)): Fraction(1),
        frozenset((1, 2)): Fraction(1),
        frozenset((0, 2)): Fraction(2),
    })
    assert membership("RationalMetric", good)
    bad = metric_structure({0, 1, 2}, {
        frozenset((0, 1)): Fraction(1),
        frozenset((1, 2)): Fraction(1),
        frozenset((0, 2)): Fraction(3),
    })
    assert not membership("RationalMetric", bad)


def test_hereditariness_random_members():
    rng = Random(5)
    for tag in TAGS:
        for n in range(4):
            for member in enumerate_members(tag, n):
                subset = {x for x in member.universe if rng.random() < 0.5}
                assert membership(tag, induced_substructure(member, subset))


# --- amalgamation -------------------------------------------------------------


def test_free_join_over_empty_base():
    base = empty_structure(GRAPH_SIG)
    left = graph({0, 1}, [(0, 1)])
    right = graph({0}, [])
    am = amalgamate("Graph", make_embedding(base, left, {}), make_embedding(base, right, {}))
    assert len(am.result) == 3
    assert len(am.result.rel("E")) == 2  # just the one edge, both orientations


def test_graph_amalgam_adds_no_tuples():
    base = graph({0}, [])
    left = graph({0, 1}, [(0, 1)])
    right = graph({0, 2}, [(0, 2)])
    am = amalgamate("Graph", inclusion_embedding(base, left), inclusion_embedding(base, right))
    assert am.result.universe == frozenset({0, 1, 2})
    assert {frozenset(t) for t in am.result.rel("E")} == {frozenset((0, 1)), frozenset((0, 2))}


def test_order_amalgam_unseparated_tie_break():
    # r < a and r < b with nothing between: the right-hand point comes first.
    base = chain_structure([0])
    left = chain_structure([0, 1])
    right = chain_structure([0, 2])
    am = amalgamate("LinearOrder", inclusion_embedding(base, left), inclusion_embedding(base, right))
    assert chain_of(am.result) == [0, 2, 1]


def test_merge_respects_separators():
    # L1 = a < r < c, L2 = r < y: y lands strictly above r, below nothing of L1
    merged = merge_linear_orders([10, 0, 11], [0, 12], {0})
    assert merged.index(0) < merged.index(12)
    assert merged.index(10) < merged.index(0)


def random_chain_triple(rng, max_total=8):
    base_n = rng.randrange(0, 4)
    ids = iter(rng.sample(range(60), 24))
    base = [next(ids) for _ in range(base_n)]
    left = list(base)
    right = list(base)
    for _ in range(rng.randrange(0, max_total - base_n + 1)):
        left.insert(rng.randrange(len(left) + 1), next(ids))
    for _ in range(rng.randrange(0, max_total - base_n + 1)):
        right.insert(rng.randrange(len(right) + 1), next(ids))
    return base, left, right


def test_order_merge_law_small():
    rng = Random(99)
    for _ in range(100):
        base, left, right = random_chain_triple(rng)
        merged = merge_linear_orders(left, right, set(base))
        pos = {x: i for i, x in enumerate(merged)}
        # extends both inputs
        assert [x for x in merged if x in left] == left
        assert [x for x in merged if x in right] == right
        # separator rule, verbatim, on cross pairs
        for l1 in left:
            if l1 in base:
                continue
            for l2 in right:
                if l2 in base:
                    continue
                fwd = any(left.index(l1) < left.index(r) and right.index(r) < right.index(l2) for r in base)
                bwd = any(right.index(l2) < right.index(r) and left.index(r) < left.index(l1) for r in base)
                if fwd:
                    assert pos[l1] < pos[l2]
                elif bwd:
                    assert pos[l2] < pos[l1]
                else:
                    assert pos[l2] < pos[l1]  # documented completion


def test_amalgam_strongness_counts():
    for tag in ("Graph", "Digraph", "Tournament", "LinearOrder", "PartialOrder", "RationalMetric"):
        for n in range(3):
            members = enumerate_members(tag, n)
            bigger = enumerate_members(tag, n + 1)
            for base in members[:2]:
                for left in bigger[:3]:
                    for f in enumerate_embeddings(*_aligned(tag, base, left))[:2]:
                        for right in bigger[:3]:
                            for g in enumerate_embeddings(*_aligned(tag, base, right))[:2]:
                                f2, g2 = _repair_pair(tag, f, g)
                                am = amalgamate(tag, f2, g2)
                                assert len(am.result) == len(left) + len(right) - len(base)
                                assert validate_amalgam(tag, f2, g2, am, strong=True) is None


def _aligned(tag, a, b):
    from genstruct.classes import align

    return align(tag, a, b)


def _repair_pair(tag, f, g):
    if tag != "RationalMetric":
        return f, g
    from genstruct.classes import align

    base, left, right = align(tag, f.source, f.target, g.target)
    return make_embedding(base, left, f.as_dict()), make_embedding(base, right, g.as_dict())


def test_amalgamation_stable_under_relabeling():
    base = graph({0, 1}, [])
    left = graph({0, 1, 2}, [(0, 2), (1, 2)])
    right = graph({0, 1, 3}, [(0, 3)])
    am1 = amalgamate("Graph", inclusion_embedding(base, left), inclusion_embedding(base, right))
    moved, ren = relabel_disjoint(right, {0, 1, 2, 3})
    ren_base = {x: ren.get(x, x) for x in base.universe}
    g2 = make_embedding(base, moved, {x: ren[x] for x in base.universe})
    am2 = amalgamate("Graph", inclusion_embedding(base, left), g2)
    assert find_isomorphism(am1.result, am2.result) is not None


def test_metric_amalgam_shortest_path():
    from genstruct.classes import align

    base = metric_structure({0}, {})
    left = metric_structure({0, 1}, {frozenset((0, 1)): Fraction(2)})
    right = metric_structure({0, 2}, {frozenset((0, 2)): Fraction(3)})
    base, left, right = align("RationalMetric", base, left, right)
    am = amalgamate("RationalMetric", inclusion_embedding(base, left), inclusion_embedding(base, right))
    dist = metric_distances(am.result)
    assert dist[frozenset((1, 2))] == Fraction(5)


def test_linear_graph_amalgam_identifies_when_forced():
    # Degree-2 centre on both sides: a strong amalgam is impossible, but
    # identifying the arms gives a legal path.
    base = graph({0}, [])
    left = graph({0, 1, 2}, [(1, 0), (0, 2)])
    right = graph({0, 3, 4}, [(3, 0), (0, 4)])
    f = inclusion_embedding(base, left)
    g = inclusion_embedding(base, right)
    with pytest.raises(AmalgamationImpossible, match="vertex 0 gets degree 4 in any strong amalgam"):
        glue_and_check("LinearGraph", *_setup_amalgam(f, g))
    am = amalgamate("LinearGraph", f, g)
    assert membership("LinearGraph", am.result)
    assert validate_amalgam("LinearGraph", f, g, am, strong=False) is None
    assert len(am.result) == 3  # both arms folded together


@pytest.mark.parametrize("tag", ("Graph", "LinearGraph"))
def test_amalgamate_needs_one_base(tag):
    # LinearGraph's search starts from the same setup as the strong glue.
    edge, apart = graph({0, 1}, [(0, 1)]), graph({0, 1}, [])
    f, g = make_embedding(edge, edge, {0: 0, 1: 1}), make_embedding(apart, apart, {0: 0, 1: 1})
    with pytest.raises(StructureError, match="amalgamation requires a common base"):
        amalgamate(tag, f, g)


def test_validate_amalgam_checks_the_result_itself():
    # check_property checks its glued results' membership as it glues them;
    # validate_amalgam still rejects a result outside the class or, with
    # `connected`, one in pieces.
    base, left, right = graph({0}, []), graph({0, 1}, [(0, 1)]), graph({0, 2}, [(0, 2)])
    f, g = inclusion_embedding(base, left), inclusion_embedding(base, right)
    am = amalgamate("LinearGraph", f, g)
    assert validate_amalgam("LinearGraph", f, g, am, strong=True, connected=True) is None
    new = max(am.result.universe) + 1
    edges = {tuple(e) for e in am.result.rel("E")}
    star = replace(am, result=graph(am.result.universe | {new}, edges | {(0, new)}))
    assert validate_amalgam("LinearGraph", f, g, star, strong=True) == "result not in class"
    apart = replace(am, result=graph(am.result.universe | {new}, edges))
    assert validate_amalgam("LinearGraph", f, g, apart, strong=True) is None
    assert validate_amalgam("LinearGraph", f, g, apart, strong=True, connected=True) == "result not connected"


# --- verdicts and counts --------------------------------------------------------


def test_check_property_examples():
    assert check_property("LinearOrder", "SAP", 3).holds
    assert check_property("Graph", "AP", 3).holds
    verdict = check_property("LinearGraph", "SAP", 5)
    assert not verdict.holds
    assert "degree" in verdict.counterexample["detail"]


def test_linear_graph_verdicts_pinned():
    # Recorded before LinearGraph's connected instances and strong union
    # were keyed on the class lacking strong amalgamation.
    for prop in ("HP", "JEP", "AP"):
        assert check_property("LinearGraph", prop, 4) == PropertyVerdict(True)
    assert check_property("LinearGraph", "SAP", 4) == PropertyVerdict(False, {
        "base": graph({0}, []),
        "left": graph({0, 1}, [(0, 1)]),
        "right": graph({0, 1, 2}, [(0, 2), (1, 2)]),
        "f": {0: 0},
        "g": {0: 2},
        "detail": "vertex 0 gets degree 3 in any strong amalgam",
    })


def test_check_property_scale_guard():
    with pytest.raises(ScaleExceeded):
        check_property("Graph", "AP", 7)


def test_negative_sizes_raise():
    # Enumeration used to recurse until RecursionError, and the checks
    # returned a vacuous holds=True.
    with pytest.raises(ScaleExceeded):
        enumerate_members("Graph", -1)
    for prop, bound in (("AP", -1), ("HP", -3)):
        with pytest.raises(ScaleExceeded):
            check_property("Graph", prop, bound)


def test_enumerate_members_cache_cannot_be_mutated():
    members = enumerate_members("Graph", 3)
    with pytest.raises(AttributeError):
        members.append(members[0])
    assert len(enumerate_members("Graph", 3)) == 4


def test_count_iso_types_against_published_values():
    # Independent oracle: published counts of small structures.
    assert [len(enumerate_members("LinearOrder", n)) for n in range(5)] == [1, 1, 1, 1, 1]
    assert [len(enumerate_members("Graph", n)) for n in range(6)] == [1, 1, 2, 4, 11, 34]
    assert [len(enumerate_members("Tournament", n)) for n in range(5)] == [1, 1, 1, 2, 4]
    assert [len(enumerate_members("PartialOrder", n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]
    assert [len(enumerate_members("Digraph", n)) for n in range(4)] == [1, 1, 3, 16]
    # Linear forests = partitions of n into path lengths.
    assert [len(enumerate_members("LinearGraph", n)) for n in range(6)] == [1, 1, 2, 3, 5, 7]


def test_sap_flags():
    assert class_spec("Graph").sap and class_spec("LinearOrder").sap
    assert not class_spec("LinearGraph").sap
    # The flags agree with the exhaustive verifier in both directions;
    # RationalMetric stays at bound 2, where it is quick.
    for tag in TAGS:
        bound = 2 if tag == "RationalMetric" else 3
        assert check_property(tag, "SAP", bound).holds == class_spec(tag).sap, tag


def test_strong_amalgamation_across_sap_tags():
    # Every class flagged strong passes the exhaustive verifier at size 2;
    # the verifier validates each constructed amalgam, so a pass is a
    # constructive proof at that scale.
    for tag in TAGS:
        if class_spec(tag).sap:
            assert check_property(tag, "SAP", 2).holds, tag
            assert check_property(tag, "JEP", 2).holds, tag


def test_merge_is_the_unique_law_abiding_extension():
    # Oracle: among all orderings of the union, exactly one extends both
    # chains, satisfies the separator biconditional on cross pairs, and
    # puts the right-hand side first in unseparated gaps. The merge must
    # be that one.
    from itertools import permutations

    rng = Random(1234)
    for _ in range(40):
        base, left, right = random_chain_triple(rng, max_total=5)
        merged = merge_linear_orders(left, right, set(base))
        union = sorted(set(left) | set(right))
        if len(union) > 7:
            continue
        survivors = []
        for perm in permutations(union):
            seq = list(perm)
            if [x for x in seq if x in left] != left:
                continue
            if [x for x in seq if x in right] != right:
                continue
            pos = {x: i for i, x in enumerate(seq)}
            ok = True
            for l1 in left:
                if l1 in base or not ok:
                    continue
                for l2 in right:
                    if l2 in base:
                        continue
                    fwd = any(
                        left.index(l1) < left.index(r) and right.index(r) < right.index(l2)
                        for r in base
                    )
                    bwd = any(
                        right.index(l2) < right.index(r) and left.index(r) < left.index(l1)
                        for r in base
                    )
                    if fwd and not pos[l1] < pos[l2]:
                        ok = False
                        break
                    if bwd and not pos[l2] < pos[l1]:
                        ok = False
                        break
                    if not fwd and not bwd and not pos[l2] < pos[l1]:
                        ok = False
                        break
            if ok:
                survivors.append(seq)
        assert survivors == [merged]


def test_linear_graph_sap_counterexample_is_canonical_first():
    verdict = check_property("LinearGraph", "SAP", 5)
    ce = verdict.counterexample
    assert sorted(ce["base"].universe) == [0]
    assert len(ce["left"]) == 2 and len(ce["right"]) == 3


def test_metric_signature_order_does_not_depend_on_hash_seed():
    # d_1/2 and d_2/4 name one distance; they come in name order.
    script = (
        "from genstruct.classes import align\n"
        "from genstruct.structures import Signature, empty_structure\n"
        "a = empty_structure(Signature((('d_1/2', 2), ('d_1', 2))))\n"
        "b = empty_structure(Signature((('d_2/4', 2),)))\n"
        "print(align('RationalMetric', a, b)[0].sig.names())\n"
    )
    src = str(Path(genstruct.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                       timeout=60, env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}).stdout
        for seed in range(6)
    }
    assert outputs == {"('d_1/2', 'd_2/4', 'd_1')\n"}
