import json
from random import Random

import pytest

from genstruct.analysis import (
    EntangledInstance,
    NotInClass,
    ReportItem,
    ScaleExceeded,
    density_items,
    entangled_check,
    extension_property_report,
    interval_density_check,
    one_point_homogeneity,
    universality_check,
)
from genstruct.classes import chain_of, chain_structure
from genstruct.structures import GRAPH_SIG, ORDER_SIG, validate_structure


def graph(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return validate_structure(GRAPH_SIG, set(universe), {"E": rel})


def test_extension_report_edgeless_fails():
    report = extension_property_report(graph({0, 1, 2}, []), "Graph", 2)
    assert not report.passed
    assert any("type:2" in it.item for it in report.failures())


def test_extension_report_finite_order_fails_at_endpoints():
    report = extension_property_report(chain_structure([0, 1, 2]), "LinearOrder", 2)
    fails = report.failures()
    assert len(fails) == 2  # nothing above the maximum, nothing below the minimum


def test_extension_report_monotone_under_extension():
    small = graph({0, 1, 2}, [(0, 1)])
    bigger = graph({0, 1, 2, 3}, [(0, 1), (2, 3), (0, 3)])
    before = {it.item: it.verdict for it in extension_property_report(small, "Graph", 2).items}
    after = {it.item: it.verdict for it in extension_property_report(bigger, "Graph", 2).items}
    for item, verdict in before.items():
        if verdict and item in after:
            assert after[item]


def test_extension_report_scale_guard():
    with pytest.raises(ScaleExceeded):
        extension_property_report(graph({0}, []), "Graph", 5)


def test_universality_examples():
    m = graph({0, 1, 2, 3}, [(0, 1), (1, 2), (0, 3)])
    report = universality_check(m, "Graph", 2)
    assert report.passed  # empty, point, edge, non-edge all embed
    antichain = validate_structure(ORDER_SIG, {0, 1}, {"<": set()})
    report = universality_check(antichain, "PartialOrder", 2)
    missing = [it for it in report.failures()]
    assert len(missing) == 1  # the 2-chain


def test_homogeneity_trivial_and_swap():
    m = graph({0, 1, 2}, [(0, 1)])
    assert one_point_homogeneity(m, "Graph", 0).passed
    report = one_point_homogeneity(m, "Graph", 2)
    swap = [it for it in report.items if it.item == "iso=[(0, 1), (1, 0)];add=2"]
    assert swap and swap[0].verdict and swap[0].witness == 2


def test_homogeneity_path_endpoint_swap_extends():
    # The endpoint swap of the 3-path extends by the middle point mapping
    # to itself (it is a full automorphism), so the item passes.
    m = graph({0, 1, 2}, [(0, 1), (1, 2)])
    report = one_point_homogeneity(m, "Graph", 1)
    item = [it for it in report.items if it.item == "iso=[(0, 2)];add=1"]
    assert item and item[0].verdict and item[0].witness == 1


def test_homogeneity_detects_genuine_failure():
    # Star: sending a leaf to the centre cannot follow a non-neighbour,
    # because the centre is adjacent to every other point.
    m = graph({0, 1, 2, 3}, [(0, 1), (0, 2), (0, 3)])
    report = one_point_homogeneity(m, "Graph", 1)
    item = [it for it in report.items if it.item == "iso=[(1, 0)];add=2"]
    assert item and not item[0].verdict and item[0].witness is None


def test_entangled_examples():
    assert entangled_check(EntangledInstance(1, ((3,), (7,)), (True,))) == (0, 1)
    assert entangled_check(EntangledInstance(1, (), (True,))) is None
    with pytest.raises(ValueError):
        EntangledInstance(2, ((1, 2), (2, 3)), (True, True))


def entangled_oracle(instance):
    """Independent double loop over ordered pairs."""
    hits = []
    for xi, left in enumerate(instance.tuples):
        for eta, right in enumerate(instance.tuples):
            if xi == eta:
                continue
            ok = True
            for i in range(instance.k):
                if (left[i] <= right[i]) != instance.pattern[i]:
                    ok = False
                    break
            if ok:
                hits.append((xi, eta))
    return hits[0] if hits else None


def test_entangled_matches_oracle_small():
    rng = Random(6)
    for _ in range(80):
        k = rng.randrange(1, 4)
        count = rng.randrange(0, 7)
        pool = rng.sample(range(100), k * count)
        tuples = tuple(
            tuple(pool[i * k:(i + 1) * k]) for i in range(count)
        )
        pattern = tuple(rng.random() < 0.5 for _ in range(k))
        inst = EntangledInstance(k, tuples, pattern)
        assert entangled_check(inst) == entangled_oracle(inst)


def test_interval_density_check():
    order = chain_structure([0, 5, 1, 6, 2])
    report = interval_density_check(order, {5, 6})
    verdicts = {it.item: it.verdict for it in report.items}
    assert verdicts["interval=(0,1)"] and verdicts["interval=(1,2)"]
    assert not verdicts["interval=(0,5)"]  # adjacent, nothing between
    assert json.loads(report.to_json())[0]["item"].startswith("interval=")


def oracle_density_items(order, ids):
    """The per-pair scan: each interval's first mark, read from the least mark on."""
    seq = chain_of(order)
    pos = {x: i for i, x in enumerate(seq)}
    marks = sorted(pos[x] for x in ids if x in pos)
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            hit = next((seq[p] for p in marks if pos[x] < p < pos[y]), None)
            yield ReportItem(f"interval=({x},{y})", hit is not None, hit)


def test_density_items_match_the_scan_oracle():
    rng = Random(11)
    for case in range(400):
        seq = rng.sample(range(60), rng.randrange(0, 25))
        ids = set(rng.sample(range(70), rng.randrange(0, 30))) if case % 5 else set(seq)
        order = chain_structure(seq)
        assert list(density_items(order, ids)) == list(oracle_density_items(order, ids)), (seq, ids)


def test_density_rejects_an_order_that_is_not_linear():
    # 2 is unrelated to both 0 < 1, so a chain read from this poset would put it between them.
    poset = validate_structure(ORDER_SIG, {0, 1, 2}, {"<": {(0, 1)}})
    with pytest.raises(NotInClass, match="input must belong to the class"):
        interval_density_check(poset, {2})
    with pytest.raises(NotInClass):
        density_items(poset, {2})


def test_report_json_shape():
    m = graph({0, 1}, [(0, 1)])
    rows = json.loads(extension_property_report(m, "Graph", 1).to_json())
    assert set(rows[0]) == {"item", "verdict", "witness"}


def test_universality_monotone_in_k():
    m = graph({0, 1, 2, 3}, [(0, 1), (1, 2), (0, 3)])
    for k in range(3):
        big = universality_check(m, "Graph", k + 1)
        small = universality_check(m, "Graph", k)
        small_items = {it.item: it.verdict for it in small.items}
        for it in big.items:
            if it.item in small_items:
                assert it.verdict == small_items[it.item]
        if big.passed:
            assert small.passed
