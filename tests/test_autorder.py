import json
from bisect import bisect_left
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from genstruct import autorder
from genstruct.autorder import (
    AutCondition,
    NotIsomorphicExtensions,
    SameOrbit,
    _grow_backward,
    _grow_forward,
    _with_point,
    amalgamate_partial_automorphisms,
    aut_from_json_dict,
    aut_stronger,
    aut_to_json_dict,
    build_automorphic_order,
    default_aut_schedule,
    empty_aut_condition,
    equivariant_delta_trim,
    make_aut_condition,
    orbit_of,
    orbit_requirement_meet,
    orbit_straddles,
    validate_aut_condition,
)
from genstruct.classes import chain_structure
from genstruct.forcing import generic_steps
from genstruct.structures import StructureError, to_json_dict


def test_validator_examples():
    assert validate_aut_condition(empty_aut_condition()).valid
    assert validate_aut_condition(AutCondition((0, 1), ((0, 1),))).valid
    below = validate_aut_condition(AutCondition((0, 1), ((1, 0),)))
    assert not below.valid and below.item == 3
    twisted = validate_aut_condition(AutCondition((0, 1, 2, 3), ((0, 3), (1, 2))))
    assert not twisted.valid and twisted.item == 2
    ghost = validate_aut_condition(AutCondition((0,), ((0, 9),)))
    assert not ghost.valid and ghost.item == 2


def test_aut_stronger_examples():
    p = make_aut_condition([0, 1], {0: 1})
    assert aut_stronger(p, p)
    bigger = make_aut_condition([0, 1, 5], {0: 1})
    assert aut_stronger(bigger, p)
    dropped = make_aut_condition([0, 1, 5], {})
    assert not aut_stronger(dropped, p)
    reordered = make_aut_condition([1, 0], {})
    assert not aut_stronger(reordered, make_aut_condition([0, 1], {}))


def test_orbit_of():
    c = make_aut_condition([0, 1, 2, 3], {0: 1, 1: 2})
    assert orbit_of(c, 1) == frozenset({0, 1, 2})
    assert orbit_of(c, 3) == frozenset({3})


# --- amalgamation ---------------------------------------------------------------


def test_amalgamate_documented_chain():
    p1 = make_aut_condition([0, 1], {})
    p2 = make_aut_condition([2, 3], {})
    out = amalgamate_partial_automorphisms(p1, p2, frozenset(), {0: 2, 1: 3}, 0, 1)
    assert out.chain == (0, 2, 3, 1)
    assert out.phi == ()


def test_amalgamate_same_orbit_rejected():
    p1 = make_aut_condition([0, 1], {0: 1})
    p2 = make_aut_condition([2, 3], {2: 3})
    with pytest.raises(SameOrbit):
        amalgamate_partial_automorphisms(p1, p2, frozenset(), {0: 2, 1: 3}, 0, 1)


def test_amalgamate_requires_root_closure():
    # phi maps the root point out of the root: the union of the two maps
    # could not stay a function, so the instance is rejected.
    p1 = make_aut_condition([5, 0, 1], {5: 0})
    p2 = make_aut_condition([5, 2, 3], {5: 2})
    with pytest.raises(NotIsomorphicExtensions):
        amalgamate_partial_automorphisms(p1, p2, frozenset({5}), {5: 5, 0: 2, 1: 3}, 0, 1)


def test_amalgamate_requires_intertwining():
    p1 = make_aut_condition([9, 0, 1], {})
    p2 = make_aut_condition([9, 2, 3], {2: 3})
    with pytest.raises(NotIsomorphicExtensions):
        amalgamate_partial_automorphisms(p1, p2, frozenset({9}), {9: 9, 0: 2, 1: 3}, 0, 1)


def random_increasing_partial_map(rng, chain, max_pairs=3, max_orbit=3):
    """Random above-diagonal increasing partial self-map by index pairs."""
    n = len(chain)
    pairs: list[tuple[int, int]] = []
    for _ in range(20):
        if len(pairs) >= max_pairs:
            break
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        if any(i == i2 or j == j2 for i2, j2 in pairs):
            continue
        if any((i < i2) != (j < j2) for i2, j2 in pairs):
            continue
        trial = pairs + [(i, j)]
        links = dict(trial)
        lengths = []
        for start in {i for i, _ in trial} - {j for _, j in trial}:
            size, cur = 1, start
            while cur in links:
                cur = links[cur]
                size += 1
            lengths.append(size)
        if lengths and max(lengths) > max_orbit:
            continue
        pairs = trial
    return {chain[i]: chain[j] for i, j in pairs}


def random_aut_instance(rng):
    """A pair of isomorphic extensions with a root closed under the map,
    plus designated points a, b in different orbits, or None."""
    n = rng.randrange(2, 9)
    ids = rng.sample(range(40), n)
    chain1 = tuple(ids)
    phi = random_increasing_partial_map(rng, chain1)
    cond1 = make_aut_condition(chain1, phi)
    root = set()
    for x in chain1:
        if rng.random() < 0.3:
            root |= orbit_of(cond1, x)
    outside = [x for x in chain1 if x not in root]
    groups = {}
    for x in outside:
        groups.setdefault(orbit_of(cond1, x), []).append(x)
    if len(groups) < 2:
        return None
    keys = sorted(groups, key=sorted)
    a = rng.choice(groups[keys[0]])
    b = rng.choice(groups[keys[1]])
    fresh = iter(x for x in range(40, 200) if x not in set(chain1))
    h = {x: (x if x in root else next(fresh)) for x in chain1}
    chain2 = tuple(h[x] for x in chain1)
    phi2 = {h[x]: h[y] for x, y in phi.items()}
    cond2 = make_aut_condition(chain2, phi2)
    return cond1, cond2, frozenset(root), h, a, b


def check_amalgam_laws(cond1, cond2, root, h, a, b):
    out = amalgamate_partial_automorphisms(cond1, cond2, root, h, a, b)
    assert validate_aut_condition(out).valid
    assert aut_stronger(out, cond1)
    assert aut_stronger(out, cond2)
    assert out.before(a, h[a])
    assert out.before(h[b], b)
    phi = out.phi_dict()
    keys = sorted(phi, key=out.index)
    for x, y in zip(keys, keys[1:]):
        assert out.before(phi[x], phi[y])
    return out


def test_amalgamate_random_instances():
    rng = Random(21)
    done = 0
    while done < 60:
        instance = random_aut_instance(rng)
        if instance is None:
            continue
        check_amalgam_laws(*instance)
        done += 1


# --- orbit requirements -----------------------------------------------------------


def test_orbit_meet_noop_and_fixpoint():
    p = make_aut_condition([2, 0, 1], {0: 1, 2: 0})
    assert orbit_straddles(p, 0, 0)
    assert orbit_requirement_meet(p, 0, 0) == p


def test_orbit_meet_single_point():
    p = make_aut_condition([0], {})
    q = orbit_requirement_meet(p, 0, 0)
    phi = q.phi_dict()
    inv = q.inv_dict()
    assert q.before(0, phi[0]) and q.before(inv[0], 0)
    assert validate_aut_condition(q).valid
    assert aut_stronger(q, p)


def test_orbit_meet_reaches_fresh_target():
    p = make_aut_condition([0], {})
    q = orbit_requirement_meet(p, 0, 9)
    assert orbit_straddles(q, 0, 9)
    assert validate_aut_condition(q).valid


def test_orbit_meet_passes_far_targets():
    rng = Random(2)
    for trial in range(25):
        ids = rng.sample(range(30), rng.randrange(2, 7))
        p = make_aut_condition(ids, {})
        alpha0, beta = ids[0], ids[-1]
        q = orbit_requirement_meet(p, alpha0, beta)
        assert orbit_straddles(q, alpha0, beta)
        assert aut_stronger(q, p)
        assert validate_aut_condition(q).valid
        assert orbit_requirement_meet(q, alpha0, beta) == q


def test_orbit_meet_raises_when_the_orbit_stalls(monkeypatch):
    # The chain still grows at the bottom end each step, so the bound must not grow with it.
    monkeypatch.setattr(autorder, "_grow_forward", lambda c, src: (c, src))
    with pytest.raises(StructureError, match="failed to make progress"):
        orbit_requirement_meet(make_aut_condition([0, 1], {}), 0, 1)


def oracle_orbit_requirement_meet(p, alpha0, beta, rng=None):
    """The earlier meet: the orbit rebuilt twice per step to find its two ends."""
    for m in (alpha0, beta):
        p = _with_point(p, m, rng)
    guard = 0
    while not orbit_straddles(p, alpha0, beta):
        p, _ = _grow_forward(p, next(x for x in oracle_orbit_of(p, alpha0) if x not in p.phi_map))
        p, _ = _grow_backward(p, next(x for x in oracle_orbit_of(p, alpha0) if x not in p.inv_map))
        guard += 1
        if guard > 4 * len(p.chain) + 8:
            raise StructureError("orbit extension failed to make progress")
    return p


def build_conditions(n, seed):
    """The distinct conditions of an AutOrder build, from the empty one on."""
    out = [empty_aut_condition()]
    for *_, c in generic_steps(out[0], default_aut_schedule(n), None, seed, aut_stronger):
        if c is not out[-1]:
            out.append(c)
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [5, 30, 45])
def test_orbit_walks_match_loop_oracle_on_builds(n, seed):
    conds = build_conditions(n, seed)
    assert len(conds) > n  # the build grew
    for c in conds:
        for x in c.chain:
            assert orbit_of(c, x) == oracle_orbit_of(c, x)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [5, 30])
def test_orbit_meet_matches_rebuilt_orbit_oracle_on_builds(n, seed):
    for c in build_conditions(n, seed)[::3]:
        fresh = max(c.chain, default=-1) + 1
        for alpha0 in (*c.chain[::11], fresh):
            for beta in (*c.chain[::7], fresh + 1):
                got = orbit_requirement_meet(c, alpha0, beta, Random(seed))
                assert got == oracle_orbit_requirement_meet(c, alpha0, beta, Random(seed))


# --- the builder ----------------------------------------------------------------------


def test_build_zero():
    for steps in (0, 5):
        c, report = build_automorphic_order(0, steps)
        assert c == empty_aut_condition()
        assert report == []


def test_build_one():
    c, report = build_automorphic_order(1, 200, seed=5)
    phi = c.phi_dict()
    assert 0 in phi and c.before(0, phi[0])
    assert orbit_straddles(c, 0, 0)


def test_build_medium_all_predicates():
    n = 6
    c, report = build_automorphic_order(n, 5000, seed=13)
    assert validate_aut_condition(c).valid
    phi = c.phi_dict()
    pos = {x: i for i, x in enumerate(c.chain)}
    for x, y in phi.items():
        assert pos[x] < pos[y]
    for m in range(n):
        assert m in phi and m in c.inv_dict()
        assert orbit_straddles(c, 0, m)
    for a in range(n):
        for b in range(n):
            if a != b:
                assert abs(pos[a] - pos[b]) > 1
    assert all("met_at=-1" not in line for line in report)


def test_build_determinism():
    a = build_automorphic_order(4, 2000, seed=3)
    b = build_automorphic_order(4, 2000, seed=3)
    assert a == b


def test_chain_monotone_and_requirements_permanent():
    schedule = default_aut_schedule(4, 0)
    start = empty_aut_condition()
    steps = [start, *(row[3] for row in generic_steps(start, schedule, seed=11, order=aut_stronger))]
    for a, b in zip(steps, steps[1:]):
        assert aut_stronger(b, a)
    previous = [False] * len(schedule)
    for step in steps:
        current = [req.satisfied(step) for req in schedule]
        for before, now in zip(previous, current):
            assert not (before and not now), "satisfaction must be upward closed"
        previous = current
    assert all(previous)


def oracle_build_automorphic_order(n, steps, seed=0, alpha0=0):
    """The builder's earlier round robin: its own loop, with met_at filled
    by rescanning the whole schedule after every step."""
    schedule = default_aut_schedule(n, alpha0)
    if steps is None:
        steps = 8 * len(schedule) + 8 if schedule else 0
    rng = Random(seed)
    current = empty_aut_condition()
    met_at = {}
    if schedule:
        grew = False
        for idx in range(steps):
            req = schedule[idx % len(schedule)]
            if not req.satisfied(current):
                new = req.extend(current, rng)
                if not aut_stronger(new, current) or not req.satisfied(new):
                    raise StructureError(f"extender for {req.name} broke its contract")
                current = new
                grew = True
            for r in schedule:
                if r.name not in met_at and r.satisfied(current):
                    met_at[r.name] = idx
            if idx % len(schedule) == len(schedule) - 1:
                if not grew and all(r.satisfied(current) for r in schedule):
                    break
                grew = False
    report = [f"req={r.name} met_at={met_at.get(r.name, -1)}" for r in schedule]
    return current, report


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 8),
    st.sampled_from(["0", "1", "n", "n+3"]),
    st.sampled_from(["0", "1", "3", "len", "default"]),
    st.integers(0, 2**32),
)
def test_build_matches_round_robin_oracle(n, alpha0_pick, steps_pick, seed):
    alpha0 = {"0": 0, "1": 1, "n": n, "n+3": n + 3}[alpha0_pick]
    length = len(default_aut_schedule(n, alpha0))
    steps = {"0": 0, "1": 1, "3": 3, "len": length, "default": None}[steps_pick]
    got = build_automorphic_order(n, steps, seed, alpha0)
    assert got == oracle_build_automorphic_order(n, steps, seed, alpha0)


def oracle_report(after, schedule):
    """The earlier report: bisection over the condition after every step."""
    met = [bisect_left(after, True, key=req.satisfied) for req in schedule]
    return [f"req={req.name} met_at={m if m < len(after) else -1}" for req, m in zip(schedule, met)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 16), st.sampled_from([0, 1, 5]), st.sampled_from([0, 1, 7, 40, None]), st.integers(0, 2**32))
def test_report_matches_bisection_over_every_step(n, alpha0, steps, seed):
    schedule = default_aut_schedule(n, alpha0)
    start = empty_aut_condition()
    after = [row[3] for row in generic_steps(start, schedule, steps, seed, aut_stronger)]
    final, report = build_automorphic_order(n, steps, seed, alpha0)
    assert final == (after[-1] if after else start)
    assert report == oracle_report(after, schedule)


def oracle_aut_to_json_dict(c):
    """The earlier writer: the order built by `chain_structure`, then phi."""
    data = to_json_dict(chain_structure(list(c.chain)))
    data["phi"] = [[x, y] for x, y in c.phi]
    return data


def _json_or_error(fn, c):
    try:
        return json.dumps(fn(c), separators=(",", ":"))
    except StructureError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-2, 10**6), unique=True, max_size=30), st.integers(0, 2**32))
def test_aut_json_matches_chain_structure_oracle(points, seed):
    # Any repeat-free chain, with a random set of pairs as phi: the writer
    # does not validate the map, and neither did the oracle.
    rng = Random(seed)
    phi = tuple(sorted(rng.sample([(x, y) for x in points[:6] for y in points[:6]], min(3, len(points[:6]) ** 2))))
    c = AutCondition(tuple(points), phi)
    assert _json_or_error(aut_to_json_dict, c) == _json_or_error(oracle_aut_to_json_dict, c)


@pytest.mark.parametrize("n", [0, 1, 6, 20])
def test_aut_json_of_builds_matches_chain_structure_oracle(n):
    for seed in range(3):
        c, _ = build_automorphic_order(n, None, seed)
        assert json.dumps(aut_to_json_dict(c)) == json.dumps(oracle_aut_to_json_dict(c))


def test_build_rejects_negative_alpha0():
    with pytest.raises(StructureError, match="alpha0 must be nonnegative"):
        build_automorphic_order(3, None, 0, -1)


# --- cached views -------------------------------------------------------------------


def oracle_orbit_of(c, x):
    """The earlier `orbit_of`, one loop per direction, on maps rebuilt from the fields."""
    phi, inv = dict(c.phi), {y: x for x, y in c.phi}
    out = {x}
    for step in (phi, inv):
        cur = x
        while cur in step:
            cur = step[cur]
            out.add(cur)
    return frozenset(out)


def oracle_orbit_straddles(c, alpha0, beta):
    """The earlier check: chain scans and maps rebuilt on every call."""
    if alpha0 not in c.chain or beta not in c.chain:
        return False
    phi, inv = dict(c.phi), {y: x for x, y in c.phi}
    fwd = bwd = alpha0
    while True:
        if c.chain.index(beta) < c.chain.index(fwd) and c.chain.index(bwd) < c.chain.index(beta):
            return True
        if fwd not in phi or bwd not in inv:
            return False
        fwd, bwd = phi[fwd], inv[bwd]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10),
    st.sampled_from(["0", "1", "n", "n+3"]),
    st.sampled_from(["half", "default"]),
    st.integers(0, 2**32),
)
def test_cached_views_match_recomputation(n, alpha0_pick, steps_pick, seed):
    alpha0 = {"0": 0, "1": 1, "n": n, "n+3": n + 3}[alpha0_pick]
    length = len(default_aut_schedule(n, alpha0))
    steps = {"half": 4 * length, "default": None}[steps_pick]
    c, _ = build_automorphic_order(n, steps, seed, alpha0)
    chain = list(c.chain)
    assert c.universe == frozenset(chain)
    assert c.phi_dict() == dict(c.phi)
    assert c.inv_dict() == {y: x for x, y in c.phi}
    missing = max(chain, default=-1) + 1
    for x in chain:
        assert c.index(x) == chain.index(x)
        assert orbit_of(c, x) == oracle_orbit_of(c, x)
        for y in chain:
            assert c.before(x, y) == (chain.index(x) < chain.index(y))
    for a in chain + [missing]:
        for b in chain + [missing]:
            assert orbit_straddles(c, a, b) == oracle_orbit_straddles(c, a, b)
    with pytest.raises(ValueError):
        c.index(missing)


def test_cached_views_stay_out_of_equality_hash_repr_and_pickle():
    import pickle

    warm, _ = build_automorphic_order(4, None, 7)
    cold = AutCondition(tuple(list(warm.chain)), tuple(list(warm.phi)))
    orbit_straddles(warm, 0, 3)
    assert warm.before(warm.chain[0], warm.chain[-1]) and warm.inv_map
    assert set(vars(warm)) == {"chain", "phi", "universe", "positions", "phi_map", "inv_map"}
    assert set(vars(cold)) == {"chain", "phi"}
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert aut_to_json_dict(warm) == aut_to_json_dict(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    copy = pickle.loads(pickle.dumps(warm))
    assert copy == warm and set(vars(copy)) == {"chain", "phi"}

    phi, inv = warm.phi_dict(), warm.inv_dict()
    phi[warm.chain[-1]] = -1
    inv.clear()
    assert warm.phi_dict() == dict(cold.phi) and warm.inv_dict() == cold.inv_dict()
    assert warm == cold and warm.phi == cold.phi
    with pytest.raises(TypeError):
        warm.phi_map[0] = 1
    with pytest.raises(TypeError):
        warm.positions[0] = 1


# --- trimming and serialization -----------------------------------------------------


def test_equivariant_trim_singleton():
    c = make_aut_condition([0, 1], {0: 1})
    root, kept = equivariant_delta_trim([c])
    assert kept == [c] and root == c.universe


def test_equivariant_trim_disjoint():
    cs = [make_aut_condition([i, i + 1], {i: i + 1}) for i in (0, 10, 20)]
    root, kept = equivariant_delta_trim(cs)
    assert root == frozenset() and kept == cs


def test_equivariant_trim_shared_root():
    a = make_aut_condition([0, 1, 5], {0: 1})
    b = make_aut_condition([0, 1, 7], {0: 1})
    violator = make_aut_condition([0, 1, 9], {0: 9})  # maps root outside
    root, kept = equivariant_delta_trim([a, b, violator])
    assert root == frozenset({0, 1})
    assert kept == [a, b]


def test_aut_json_round_trip():
    c = make_aut_condition([3, 0, 2], {3: 0, 0: 2})
    data = aut_to_json_dict(c)
    assert data["phi"] == [[0, 2], [3, 0]]
    assert aut_from_json_dict(json.loads(json.dumps(data))) == c


def test_random_walk_of_growth_operations_stays_valid():
    # Interleave point insertions, density splits and both growth
    # directions; the condition must stay valid and keep extending.
    from genstruct.autorder import aut_between_requirement, aut_point_requirement

    rng = Random(31)
    for trial in range(30):
        c = empty_aut_condition()
        history = [c]
        for step in range(25):
            roll = rng.random()
            if roll < 0.3 or not c.chain:
                c = aut_point_requirement(rng.randrange(50)).extend(c, rng)
            elif roll < 0.55:
                ids = rng.sample(list(c.universe), min(2, len(c.chain)))
                if len(ids) == 2:
                    c = aut_between_requirement(ids[0], ids[1]).extend(c, rng)
            elif roll < 0.8:
                free = [x for x in c.chain if x not in c.phi_dict()]
                if free:
                    c, _ = _grow_forward(c, rng.choice(free))
            else:
                free = [x for x in c.chain if x not in c.inv_dict()]
                if free:
                    c, _ = _grow_backward(c, rng.choice(free))
            verdict = validate_aut_condition(c)
            assert verdict.valid, (trial, step, verdict)
            assert aut_stronger(c, history[-1])
            history.append(c)
