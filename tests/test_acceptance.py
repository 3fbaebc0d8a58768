"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Tolerances are zero unless a runtime budget is stated."""

import json
import time
from contextlib import contextmanager
from itertools import combinations
from random import Random

from genstruct.analysis import EntangledInstance, entangled_check, extension_property_report
from genstruct.autorder import (
    aut_from_json_dict,
    aut_stronger,
    amalgamate_partial_automorphisms,
    make_aut_condition,
    orbit_of,
    validate_aut_condition,
)
from genstruct.classes import chain_of, chain_structure, check_property
from genstruct.cli import default_schedule, extension_schedule, main
from genstruct.forcing import (
    Condition,
    CrossingSpec,
    common_extension,
    crossing_amalgamation,
    delta_system,
    empty_condition,
    generic_build,
    point_requirement,
    stronger,
)
from genstruct.structures import GRAPH_SIG, validate_structure


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} ({title}): FAIL [{time.monotonic() - started:.2f}s]")
        raise
    print(f"criterion {number:>2} ({title}): PASS [{time.monotonic() - started:.2f}s]")


def graph_cond(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return Condition("Graph", validate_structure(GRAPH_SIG, set(universe), {"E": rel}))


def order_cond(seq):
    return Condition("LinearOrder", chain_structure(list(seq)))


# --- 1: generic graph prefix -----------------------------------------------------


def test_criterion_1_generic_graph_extension_property():
    with criterion(1, "generic graph prefix"):
        started = time.monotonic()
        schedule = [point_requirement(m) for m in range(5)]
        schedule += extension_schedule("Graph", 5, 3)
        chain = generic_build(empty_condition("Graph"), schedule, 8 * len(schedule) + 8, seed=0)
        report = extension_property_report(chain.final.structure, "Graph", 2)
        assert report.passed, report.failures()[:5]
        assert time.monotonic() - started < 5.0


# --- 2: generic linear order prefix ------------------------------------------------


def test_criterion_2_generic_linear_order_density():
    with criterion(2, "generic linear order prefix"):
        started = time.monotonic()
        schedule = default_schedule("LinearOrder", 20, 0)
        chain = generic_build(empty_condition("LinearOrder"), schedule, 8 * len(schedule) + 8, seed=0)
        seq = chain_of(chain.final.structure)
        pos = {x: i for i, x in enumerate(seq)}
        for a in range(20):
            for b in range(20):
                if a != b:
                    assert abs(pos[a] - pos[b]) > 1, (a, b)
        assert time.monotonic() - started < 5.0


# --- 3: the order amalgamation law --------------------------------------------------


def random_order_pair(rng):
    base_n = rng.randrange(0, 5)
    ids = iter(rng.sample(range(64), 24))
    base = [next(ids) for _ in range(base_n)]
    left, right = list(base), list(base)
    for _ in range(rng.randrange(0, 9 - base_n)):
        left.insert(rng.randrange(len(left) + 1), next(ids))
    for _ in range(rng.randrange(0, 9 - base_n)):
        right.insert(rng.randrange(len(right) + 1), next(ids))
    return base, left, right


def test_criterion_3_order_amalgamation_law():
    with criterion(3, "order amalgamation law"):
        rng = Random(1003)
        for _ in range(1000):
            base, left, right = random_order_pair(rng)
            p, q = order_cond(left), order_cond(right)
            merged = common_extension(p, q)
            assert merged is not None
            assert stronger(merged, p) and stronger(merged, q)
            seq = chain_of(merged.structure)
            pos = {x: i for i, x in enumerate(seq)}
            for l1 in left:
                if l1 in base:
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
                    if fwd:
                        assert pos[l1] < pos[l2]
                    if bwd:
                        assert pos[l2] < pos[l1]


# --- 4: the partial-automorphism amalgamation law -------------------------------------


def random_increasing_partial_map(rng, chain, max_pairs=3, max_orbit=3):
    n = len(chain)
    pairs = []
    for _ in range(20):
        if len(pairs) >= max_pairs or n < 2:
            break
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        if any(i == i2 or j == j2 for i2, j2 in pairs):
            continue
        if any((i < i2) != (j < j2) for i2, j2 in pairs):
            continue
        trial = pairs + [(i, j)]
        links = dict(trial)
        for start in {x for x, _ in trial} - {y for _, y in trial}:
            size, cur = 1, start
            while cur in links:
                cur = links[cur]
                size += 1
            if size > max_orbit:
                break
        else:
            pairs = trial
    return {chain[i]: chain[j] for i, j in pairs}


def random_aut_instance(rng):
    n = rng.randrange(2, 9)
    chain1 = tuple(rng.sample(range(40), n))
    phi = random_increasing_partial_map(rng, chain1)
    cond1 = make_aut_condition(chain1, phi)
    root = set()
    for x in chain1:
        if rng.random() < 0.3:
            root |= orbit_of(cond1, x)
    groups = {}
    for x in chain1:
        if x not in root:
            groups.setdefault(orbit_of(cond1, x), []).append(x)
    if len(groups) < 2:
        return None
    keys = sorted(groups, key=sorted)
    a = rng.choice(groups[keys[0]])
    b = rng.choice(groups[keys[1]])
    fresh = iter(x for x in range(40, 400) if x not in set(chain1))
    h = {x: (x if x in root else next(fresh)) for x in chain1}
    cond2 = make_aut_condition(
        tuple(h[x] for x in chain1), {h[x]: h[y] for x, y in phi.items()}
    )
    return cond1, cond2, frozenset(root), h, a, b


def test_criterion_4_partial_automorphism_amalgamation_law():
    with criterion(4, "partial-automorphism amalgamation law"):
        rng = Random(1004)
        done = 0
        while done < 500:
            instance = random_aut_instance(rng)
            if instance is None:
                continue
            cond1, cond2, root, h, a, b = instance
            out = amalgamate_partial_automorphisms(cond1, cond2, root, h, a, b)
            assert validate_aut_condition(out).valid
            assert aut_stronger(out, cond1) and aut_stronger(out, cond2)
            assert out.before(a, h[a]) and out.before(h[b], b)
            phi = out.phi_dict()
            keys = sorted(phi, key=out.index)
            for x, y in combinations(keys, 2):
                assert out.before(x, y) == out.before(phi[x], phi[y])
            done += 1


# --- 5: SAP verdicts --------------------------------------------------------------------


def test_criterion_5_sap_verdicts():
    with criterion(5, "SAP verdicts"):
        started = time.monotonic()
        assert check_property("LinearOrder", "SAP", 3).holds
        assert check_property("Graph", "SAP", 3).holds
        linear_sap = check_property("LinearGraph", "SAP", 5)
        assert not linear_sap.holds
        assert "degree" in linear_sap.counterexample["detail"]
        assert check_property("LinearGraph", "AP", 5).holds
        assert time.monotonic() - started < 60.0


# --- 6: the automorphic order builder ------------------------------------------------------


def test_criterion_6_automorphic_order_builder(tmp_path):
    with criterion(6, "automorphic order builder"):
        started = time.monotonic()
        out = tmp_path / "aut.json"
        assert main(["build", "--class", "AutOrder", "--n", "8", "--seed", "3",
                     "--out", str(out)]) == 0
        cond = aut_from_json_dict(json.loads(out.read_text()))
        assert validate_aut_condition(cond).valid
        phi, inv = cond.phi_dict(), cond.inv_dict()
        pos = {x: i for i, x in enumerate(cond.chain)}
        for x, y in phi.items():
            assert pos[x] < pos[y]
        for m in range(8):
            fwd = bwd = 0
            for k in range(33):
                if pos[fwd] > pos[m] and pos[bwd] < pos[m]:
                    break
                fwd, bwd = phi[fwd], inv[bwd]
            else:
                raise AssertionError(f"orbit misses {m} within 32 steps")
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert abs(pos[a] - pos[b]) > 1
        assert time.monotonic() - started < 10.0


# --- 7: delta-system validity -----------------------------------------------------------------


def exhaustive_max_delta(sets):
    best = 0
    for mask in sorted(range(1, 1 << len(sets)), key=lambda x: -bin(x).count("1")):
        size = bin(mask).count("1")
        if size <= best:
            continue
        chosen = [sets[i] for i in range(len(sets)) if mask >> i & 1]
        roots = {a & b for a, b in combinations(chosen, 2)}
        if len(roots) <= 1:
            best = size
    return best


def test_criterion_7_delta_system_validity():
    with criterion(7, "delta-system validity"):
        rng = Random(1007)
        for _ in range(1000):
            m = rng.randrange(1, 201)
            family = [frozenset(rng.sample(range(8), rng.randrange(0, 5))) for _ in range(m)]
            ds = delta_system(family)
            chosen = [family[i] for i in ds.members]
            assert chosen, "result must be nonempty"
            for a, b in combinations(chosen, 2):
                assert a & b == ds.root
            assert all(ds.root <= s for s in chosen)
            elements = {x for s in family for x in s}
            k = max(1, len(elements))
            s_max = max((len(s) for s in family), default=0)
            assert len(ds.members) >= m / (k * 2 ** s_max)
        for _ in range(150):
            family = [frozenset(rng.sample(range(8), rng.randrange(0, 5)))
                      for _ in range(rng.randrange(1, 13))]
            ds = delta_system(family)
            assert len(ds.members) <= exhaustive_max_delta(family)


# --- 8: crossing amalgamation -------------------------------------------------------------------


def random_crossing_graph(rng):
    ids = iter(rng.sample(range(50), 20))
    root = [next(ids) for _ in range(rng.randrange(0, 4))]
    root_edges = [(a, b) for a, b in combinations(root, 2) if rng.random() < 0.5]
    s, s_bar, t, t_bar = (next(ids) for _ in range(4))
    pattern_main = [r for r in root if rng.random() < 0.5]
    pattern_bar = [r for r in root if rng.random() < 0.5]

    def side(x, x_bar, inner):
        edges = list(root_edges)
        edges += [(x, r) for r in pattern_main]
        edges += [(x_bar, r) for r in pattern_bar]
        if inner:
            edges.append((x, x_bar))
        return graph_cond(set(root) | {x, x_bar}, edges)

    inner = rng.random() < 0.5
    return side(s, s_bar, inner), side(t, t_bar, inner), frozenset(root), CrossingSpec(s, s_bar, t, t_bar)


def random_crossing_order(rng):
    ids = iter(rng.sample(range(50), 20))
    root = [next(ids) for _ in range(rng.randrange(0, 4))]
    g1 = rng.randrange(len(root) + 1)
    g2 = rng.randrange(g1, len(root) + 1)
    s, s_bar, t, t_bar = (next(ids) for _ in range(4))

    def side(x, x_bar):
        seq = []
        for gap in range(len(root) + 1):
            if gap == g1:
                seq.append(x)
            if gap == g2:
                seq.append(x_bar)
            if gap < len(root):
                seq.append(root[gap])
        extra = next(ids)
        seq.insert(rng.randrange(len(seq) + 1), extra)
        return order_cond(seq)

    return side(s, s_bar), side(t, t_bar), frozenset(root), CrossingSpec(s, s_bar, t, t_bar)


def test_criterion_8_crossing_amalgamation():
    with criterion(8, "crossing amalgamation"):
        rng = Random(1008)
        for _ in range(100):
            p_s, p_t, root, spec = random_crossing_graph(rng)
            out = crossing_amalgamation(p_s, p_t, root, spec)
            assert stronger(out, p_s) and stronger(out, p_t)
            edges = {frozenset(e) for e in out.structure.rel("E")}
            assert frozenset((spec.s, spec.t)) in edges
            assert frozenset((spec.s_bar, spec.t_bar)) not in edges
        for _ in range(100):
            p_s, p_t, root, spec = random_crossing_order(rng)
            out = crossing_amalgamation(p_s, p_t, root, spec)
            assert stronger(out, p_s) and stronger(out, p_t)
            seq = chain_of(out.structure)
            assert seq.index(spec.s) < seq.index(spec.t)
            assert seq.index(spec.t_bar) < seq.index(spec.s_bar)


# --- 9: entangledness oracle equivalence ------------------------------------------------------------


def entangled_oracle(instance):
    for xi in range(len(instance.tuples)):
        for eta in range(len(instance.tuples)):
            if xi == eta:
                continue
            good = True
            for i in range(instance.k):
                le = instance.tuples[xi][i] <= instance.tuples[eta][i]
                if le != instance.pattern[i]:
                    good = False
                    break
            if good:
                return (xi, eta)
    return None


def test_criterion_9_entangledness_oracle_equivalence():
    with criterion(9, "entangledness oracle equivalence"):
        for seed in range(500):
            rng = Random(2000 + seed)
            k = rng.randrange(1, 4)
            count = rng.randrange(0, 13)
            pool = rng.sample(range(400), k * count)
            tuples = tuple(tuple(pool[i * k:(i + 1) * k]) for i in range(count))
            pattern = tuple(rng.random() < 0.5 for _ in range(k))
            instance = EntangledInstance(k, tuples, pattern)
            assert entangled_check(instance) == entangled_oracle(instance)


# --- 10: determinism ---------------------------------------------------------------------------------


def test_criterion_10_byte_identical_artifacts(tmp_path):
    with criterion(10, "determinism"):
        pairs = []
        for name, argv in (
            ("graph", ["build", "--class", "Graph", "--n", "5", "--steps", "200", "--seed", "7"]),
            ("order", ["build", "--class", "LinearOrder", "--n", "8", "--seed", "11"]),
            ("aut", ["build", "--class", "AutOrder", "--n", "6", "--seed", "2"]),
        ):
            first = tmp_path / f"{name}-1.json"
            second = tmp_path / f"{name}-2.json"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            pairs.append((first.read_bytes(), second.read_bytes()))
        for left, right in pairs:
            assert left == right
