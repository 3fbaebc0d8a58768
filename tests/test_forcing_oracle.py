"""Differential tests: the forcing steps against the code they replaced.

The oracles below are the earlier implementations:
- `_realize_over` built two validated embeddings and went through the
  public `amalgamate`, then renamed the amalgam's fresh points;
- `generic_build` re-checked every requirement at the end of a pass
  that added nothing;
- `generic_build` then ran every pass through `meet`, so the pass after
  one that grew the condition met each requirement again, and each meet
  returned its argument;
- `autorder` placed grown points at exact `Fraction` positions (chain
  element i at 2(i+1)) and keyed the twins of an amalgam by thirds;
- `extension_requirement` checked that i is an embedding of b, then ran a
  pinned search for g;
- `common_extension` compared the two sides on their shared part, glued
  them and checked that the result was stronger than both;
- `extension_requirement`'s extender and `_one_point_types_match` tested
  partial maps with the tuple scan `is_partial_embedding`;
- `extension_requirement` then made two closures per injection, which
  asked `extension_by_rows` about their own pins (each schedule entry was
  one), where a family record now answers from one table;
- `delta_system` ranked every subset of every set as a candidate root
  (`oracle_delta_system`), where only the pairwise intersections and the
  sets themselves can win;
- `strongly_dense_check` built five predicates per incomparable pair and
  scanned the set once per kind (`oracle_strongly_dense_check`), where one
  pass now collects the patterns that a table of kinds looks up;
- `_realize_over` then rebuilt a seeded body with its free pairs
  resampled (`oracle_randomize_free_relations`), where the glue now draws
  them and the one body is checked once;
- a LinearOrder build met `point_requirement` and `between_requirement`
  on class conditions from `empty_condition("LinearOrder")`
  (`oracle_linear_schedule`, `oracle_build_generic`), where it now meets
  AutOrder's chain requirements on chains with an empty map.
The oracle builders return the condition after each step, from the
start on, and the log rows; `generic_steps` must yield the same, and
`generic_build` its last condition and the log.  The current code must
return equal conditions, chains and exceptions.
"""

import logging
from argparse import Namespace
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from random import Random

import pytest

from hypothesis import assume, given, settings, strategies as st

from genstruct import forcing
from genstruct.autorder import (
    AutCondition,
    SameOrbit,
    _grow_backward,
    _grow_forward,
    amalgamate_partial_automorphisms,
    aut_stronger,
    build_automorphic_order,
    default_aut_schedule,
    empty_aut_condition,
    equivariant_delta_trim,
    make_aut_condition,
    orbit_of,
)
from genstruct.classes import (
    TAGS,
    _align_signature,
    align,
    amalgamate,
    class_spec,
    enumerate_members,
    metric_symbol,
    parse_metric_symbol,
)
from genstruct.cli import _build_generic, default_schedule, main, schedule_length
from genstruct.forcing import (
    Condition,
    DeltaSystem,
    DenseRequirement,
    ExtensionFamily,
    ExtensionRequirement,
    GenericChain,
    SAPRequired,
    TagMismatch,
    _add_point,
    _family,
    _one_point_types_match,
    _realize_over,
    between_requirement,
    common_extension,
    delta_system,
    empty_condition,
    extension_requirement,
    generic_build,
    generic_steps,
    knaster_trim,
    meet,
    point_requirement,
    strongly_dense_check,
    stronger,
)
from genstruct.structures import (
    Signature,
    SignatureMismatch,
    StructureError,
    dumps,
    enumerate_embeddings,
    enumerate_embeddings_extending,
    extension_by_rows,
    fresh_ids,
    inclusion_embedding,
    induced_substructure,
    is_partial_embedding,
    make_embedding,
    placements,
    relabel,
    to_json_dict,
    validate_structure,
)

from test_pair_rule_oracle import PAIR_TAGS, oracle_randomize_free_relations
from test_search_oracle import oracle_search_maps

# --- oracles -----------------------------------------------------------------


def oracle_realize_over(p, base, extension, base_to_p, prescribed, rng):
    tag = p.tag
    base, extension, body = align(tag, base, extension, p.structure)
    f = make_embedding(base, body, base_to_p)
    g = make_embedding(base, extension, {x: x for x in base.universe})
    amalgam = amalgamate(tag, f, g)
    right = amalgam.emb_right.as_dict()
    new_ext_points = [x for x in sorted(extension.universe) if right[x] not in p.universe]
    taken = set(p.universe) | set(prescribed.values())
    pool = iter(fresh_ids(taken, len(new_ext_points)))
    target_name = {
        x: prescribed[x] if x in prescribed else next(pool) for x in new_ext_points
    }
    renaming = {rid: rid for rid in amalgam.result.universe}
    for x in new_ext_points:
        renaming[right[x]] = target_name[x]
    body = relabel(amalgam.result, renaming)
    if rng is not None:
        new_ids = {target_name[x] for x in new_ext_points}
        body = oracle_randomize_free_relations(tag, body, new_ids, set(base_to_p.values()), rng)
    return Condition(tag, body)


def oracle_extension_satisfied(i, f, tag, p):
    b, b_prime = f.source, f.target
    if not set(i.values()) <= p.universe:
        return False
    if not is_partial_embedding(*align(tag, b, p.structure), dict(i)):
        return True
    fm = f.as_dict()
    pin_template = {fm[x]: i[x] for x in fm}
    return bool(enumerate_embeddings_extending(*align(tag, b_prime, p.structure), pin_template, limit=1))


def oracle_extension_requirement(i, f, tag):
    """The per-injection closures that `ExtensionFamily` records replace."""
    if not class_spec(tag).sap:
        raise SAPRequired(f"{tag} lacks strong amalgamation")
    b, b_prime = f.source, f.target
    if set(i) != set(b.universe):
        raise StructureError("i must be defined exactly on the small side")
    if len(set(i.values())) != len(i):
        raise StructureError("i must be injective")
    fm, b_over, digest = _family(f)
    pins = ",".join(f"{x}>{i[x]}" for x in sorted(i))
    name = f"E[{pins};{digest}]"
    image = set(i.values())

    if len(b_prime) == len(b):
        def satisfied(p):
            return image <= p.universe
    else:
        pin_template = {fm[x]: i[x] for x in fm}

        def satisfied(p):
            return image <= p.universe and extension_by_rows(b_prime, p.structure, pin_template) is not False

    def extend(p, rng):
        if satisfied(p):
            return p
        if not image <= p.universe:
            present = sorted(x for x in b.universe if i[x] in p.universe)
            part = induced_substructure(b, set(present))
            part_map = {x: i[x] for x in present}
            if extension_by_rows(part, p.structure, part_map) is None:
                for m in sorted(image - p.universe):
                    p = _add_point(p, m, rng)
                return p
            missing = {x: i[x] for x in b.universe if x not in present}
            p = _realize_over(p, part, b, part_map, missing, rng)
            if satisfied(p):
                return p
        return _realize_over(p, b, b_over, dict(i), {}, rng)

    return DenseRequirement(name, satisfied, extend)


def oracle_common_extension(p, q):
    if p.tag != q.tag:
        raise TagMismatch(f"{p.tag} vs {q.tag}")
    tag = p.tag
    shared = p.universe & q.universe
    left, right = align(tag, induced_substructure(p.structure, shared), induced_substructure(q.structure, shared))
    if left != right:
        return None
    try:
        out = Condition(tag, class_spec(tag).glue(p.structure, q.structure))
    except StructureError:
        return None
    if not (stronger(out, p) and stronger(out, q)):
        return None
    return out


def oracle_one_point_types_match(left, right, root, x, y):
    ext_left = induced_substructure(left, root | {x})
    mapping = {r: r for r in root}
    mapping[x] = y
    return is_partial_embedding(ext_left, right, mapping)


def oracle_extend(i, f, tag, p, rng):
    """`extension_requirement(i, f, tag).extend` with the tuple scan as its
    vacuity test and the oracles above for its other steps."""
    b = f.source
    image = set(i.values())
    if oracle_extension_satisfied(i, f, tag, p):
        return p
    if not image <= p.universe:
        present = sorted(x for x in b.universe if i[x] in p.universe)
        part = induced_substructure(b, set(present))
        part_map = {x: i[x] for x in present}
        if not is_partial_embedding(*align(tag, b, p.structure), part_map):
            for m in sorted(image - p.universe):
                p = _add_point(p, m, rng)
            return p
        missing = {x: i[x] for x in b.universe if x not in present}
        p = oracle_realize_over(p, part, b, part_map, missing, rng)
        if oracle_extension_satisfied(i, f, tag, p):
            return p
    return oracle_realize_over(p, b, _family(f)[1], dict(i), {}, rng)


def oracle_generic_build(start, schedule, steps=None, seed=0, order=None):
    if not schedule:
        steps = 0
    elif steps is None:
        steps = 8 * len(schedule) + 8
    rng = Random(seed)
    current = start
    chain = [current]
    log = []
    grew_this_pass = False
    for idx in range(steps):
        req = schedule[idx % len(schedule)]
        new = meet(current, req, rng, order)
        added = ()
        if new is not current:
            added = tuple(sorted(new.universe - current.universe))
            grew_this_pass = grew_this_pass or new != current
        log.append((idx, req.name, added))
        chain.append(new)
        current = new
        if idx % len(schedule) == len(schedule) - 1:
            if not grew_this_pass and all(r.satisfied(current) for r in schedule):
                break
            grew_this_pass = False
    return chain, log


def oracle_two_pass_build(start, schedule, steps=None, seed=0, order=None):
    if not schedule:
        steps = 0
    elif steps is None:
        steps = 8 * len(schedule) + 8
    rng = Random(seed)
    current = start
    chain = [current]
    log = []
    grew_this_pass = False
    for idx in range(steps):
        req = schedule[idx % len(schedule)]
        new = meet(current, req, rng, order)
        added = ()
        if new is not current:
            added = tuple(sorted(new.universe - current.universe))
            grew_this_pass = grew_this_pass or new != current
        log.append((idx, req.name, added))
        chain.append(new)
        current = new
        if idx % len(schedule) == len(schedule) - 1:
            if not grew_this_pass:
                break
            grew_this_pass = False
    return chain, log


def loop_chain(start, schedule, steps=None, seed=0, order=None):
    """The conditions of `generic_steps`, from the start on, and its log
    rows: what the oracle builders return."""
    rows = list(generic_steps(start, schedule, steps, seed, order))
    return [start, *(row[3] for row in rows)], [row[:3] for row in rows]


def as_build(chain_and_log):
    """What `generic_build` keeps of an oracle build: the last condition and the log."""
    chain, log = chain_and_log
    return GenericChain(chain[-1], tuple(log))


def oracle_linear_schedule(n):
    """The LinearOrder schedule on class conditions, met from
    `empty_condition("LinearOrder")`: every point of 0..n-1, then a point
    between each pair."""
    return [point_requirement(m) for m in range(n)] + [between_requirement(a, b) for a, b in combinations(range(n), 2)]


def oracle_build_generic(args):
    """`cli._build_generic` of a linear class on class conditions: the
    final structure's `to_json_dict`, the log and the verify problems."""
    schedule = oracle_linear_schedule(args.n)
    chain = generic_build(empty_condition(args.tag), schedule, args.steps, args.seed)
    payload = {"class": args.tag, "final": to_json_dict(chain.final.structure), "log": chain.log_lines()}
    visited = {name for _, name, _ in chain.log}
    problems = [f"unsatisfied requirement {req.name}" for req in schedule
                if args.verify and req.name in visited and not req.satisfied(chain.final)]
    return payload, problems


def oracle_positions(c):
    return {x: Fraction(2 * (i + 1)) for i, x in enumerate(c.chain)}


def oracle_pick_value(lo, hi, taken, forward):
    for k in range(1, len(taken) + 4):
        f = Fraction(1, 2) if k == 1 else (
            Fraction(k, k + 1) if forward else Fraction(1, k + 1)
        )
        v = lo + (hi - lo) * f
        if v not in taken:
            return v
    raise StructureError("no admissible position found")


def oracle_insert_at(c, new_id, value, pos):
    chain = list(c.chain)
    idx = sum(1 for x in chain if pos[x] < value)
    chain.insert(idx, new_id)
    return AutCondition(tuple(chain), c.phi)


def oracle_grow_forward(c, src):
    phi = c.phi_dict()
    if src in phi:
        return c, phi[src]
    pos = oracle_positions(c)
    anchors = sorted((pos[x], pos[y]) for x, y in phi.items())
    q = pos[src]
    lower = [y for x, y in anchors if x < q]
    upper = [y for x, y in anchors if x > q]
    lo = max([q] + lower)
    hi = upper[0] if upper else lo + 4
    value = oracle_pick_value(lo, hi, set(pos.values()), forward=True)
    new_id = fresh_ids(c.universe, 1)[0]
    out = oracle_insert_at(c, new_id, value, pos)
    phi[src] = new_id
    return AutCondition(out.chain, tuple(sorted(phi.items()))), new_id


def oracle_grow_backward(c, tgt):
    inv = c.inv_dict()
    if tgt in inv:
        return c, inv[tgt]
    phi = c.phi_dict()
    pos = oracle_positions(c)
    anchors = sorted((pos[x], pos[y]) for x, y in phi.items())
    q = pos[tgt]
    lower = [x for x, y in anchors if y < q]
    upper = [x for x, y in anchors if y > q]
    hi = min([q] + upper)
    lo = lower[-1] if lower else hi - 4
    value = oracle_pick_value(lo, hi, set(pos.values()), forward=False)
    new_id = fresh_ids(c.universe, 1)[0]
    out = oracle_insert_at(c, new_id, value, pos)
    phi[new_id] = tgt
    return AutCondition(out.chain, tuple(sorted(phi.items()))), new_id


def oracle_amalgam_chain(p1, p2, root, h, a):
    """The merged chain of `amalgamate_partial_automorphisms`, keyed by
    the first side's positions plus or minus a third."""
    pos = {x: Fraction(i + 1) for i, x in enumerate(p1.chain)}
    orbit_a = orbit_of(p1, a)
    third = Fraction(1, 3)
    key = dict(pos)
    for x in p1.chain:
        if x not in root:
            key[h[x]] = pos[x] + (third if x in orbit_a else -third)
    return tuple(sorted(set(p1.chain) | set(p2.chain), key=lambda z: key[z]))


def outcome(fn, *args):
    """The result of fn(*args), or the type of the StructureError it raised."""
    try:
        return fn(*args)
    except StructureError as exc:
        return type(exc)


def outcome_text(fn, *args):
    """The result of fn(*args), or the type and text of the StructureError it raised."""
    try:
        return fn(*args)
    except StructureError as exc:
        return type(exc), str(exc)


# --- realizing an extension over a condition -----------------------------------

SAP_TAGS = ("Graph", "Digraph", "Tournament", "LinearOrder", "PartialOrder", "RationalMetric")


@cache
def small_members(tag):
    return tuple(m for size in range(4) for m in enumerate_members(tag, size))


def renamed(draw, structure, pool):
    """A copy of `structure` on distinct ids drawn from `pool`."""
    ids = draw(st.permutations(pool))[: len(structure.universe)]
    return relabel(structure, dict(zip(structure.sorted_universe(), ids)))


def padded(draw, tag, structure):
    """For metrics, `structure` over a signature that may also list unused
    distances, as the bodies of metric conditions do."""
    if class_spec(tag).sig is not None:
        return structure
    extra = draw(st.sets(st.sampled_from((1, 2, 3, 5, Fraction(1, 2)))))
    symbols = {*structure.sig.symbols, *((metric_symbol(q), 2) for q in extra)}
    sig = Signature(tuple(sorted(symbols, key=lambda t: parse_metric_symbol(t[0]))))
    return _align_signature(structure, sig)


@st.composite
def realize_cases(draw):
    """(p, base, extension, base_to_p, prescribed, seed): a condition p, a
    member `extension` with an induced substructure `base` on the same
    ids, an embedding of base into p, and names for some new points."""
    tag = draw(st.sampled_from(SAP_TAGS))
    members = small_members(tag)
    p = renamed(draw, draw(st.sampled_from(members)), list(range(12)))
    p = Condition(tag, padded(draw, tag, p))
    extension = renamed(draw, draw(st.sampled_from(members)), list(range(20, 32)))
    extension = padded(draw, tag, extension)
    universe = extension.sorted_universe()
    subset = {x for x in universe if draw(st.booleans())}
    base = padded(draw, tag, induced_substructure(extension, subset))
    embeddings = enumerate_embeddings(*align(tag, base, p.structure))
    if not embeddings:
        # No copy of the base in p: realize the extension over nothing.
        base = induced_substructure(extension, set())
        embeddings = enumerate_embeddings(*align(tag, base, p.structure))
    base_to_p = draw(st.sampled_from(embeddings)).as_dict()
    new_points = sorted(extension.universe - base.universe)
    names = draw(st.permutations([x for x in range(16) if x not in p.universe]))
    prescribed = {x: y for x, y in zip(new_points, names) if draw(st.booleans())}
    seed = draw(st.none() | st.integers(0, 2**16))
    return p, base, extension, base_to_p, prescribed, seed


@settings(max_examples=300, deadline=None)
@given(realize_cases())
def test_realize_over_matches_amalgamate_oracle(case):
    p, base, extension, base_to_p, prescribed, seed = case

    def rng():
        return None if seed is None else Random(seed)

    got = outcome(_realize_over, p, base, extension, base_to_p, prescribed, rng())
    want = outcome(oracle_realize_over, p, base, extension, base_to_p, prescribed, rng())
    assert got == want
    assert isinstance(got, Condition)
    assert got.structure.sig == want.structure.sig


@pytest.mark.parametrize("tag", PAIR_TAGS)
def test_seeded_build_bodies_match_glue_then_resample_oracle(tag, monkeypatch):
    """Every `_realize_over` body of the builds at n <= 5 and seeds 0-3, and
    the rng left in the oracle's state."""
    real, bodies = forcing._realize_over, []

    def checked(p, base, extension, base_to_p, prescribed, rng):
        want_rng = Random()
        want_rng.setstate(rng.getstate())
        want = oracle_realize_over(p, base, extension, base_to_p, prescribed, want_rng)
        got = real(p, base, extension, base_to_p, prescribed, rng)
        assert got == want and rng.getstate() == want_rng.getstate()
        bodies.append(got)
        return got

    monkeypatch.setattr(forcing, "_realize_over", checked)
    for n in range(6):
        for seed in range(4):
            generic_build(empty_condition(tag), default_schedule(tag, n, 3), None, seed)
    assert len(bodies) > 20


# --- common extensions and partial maps ------------------------------------------


@st.composite
def condition_pairs(draw):
    """Two conditions of one class on overlapping ids: induced parts of one
    member, which agree where they meet, or renamed members, which often
    disagree there; metric sides padded, and now and then a second class.
    (A raw side with a tuple outside its universe is no condition.)"""
    tag = draw(st.sampled_from(TAGS))
    members = small_members(tag)
    if draw(st.booleans()):
        whole = renamed(draw, draw(st.sampled_from(members + enumerate_members(tag, 4)[:30])), range(8))
        sides = [induced_substructure(whole, {x for x in whole.universe if draw(st.booleans())})
                 for _ in range(2)]
    else:
        sides = [renamed(draw, draw(st.sampled_from(members)), pool) for pool in (range(6), range(3, 9))]
    p, q = (Condition(tag, padded(draw, tag, side)) for side in sides)
    if draw(st.integers(0, 19)) == 0:
        q = empty_condition(draw(st.sampled_from([t for t in TAGS if t != tag])))
    return p, q


@settings(max_examples=600, deadline=None)
@given(condition_pairs(), st.booleans())
def test_common_extension_matches_oracle(pair, swap):
    p, q = pair[::-1] if swap else pair
    got = outcome_text(common_extension, p, q)
    want = outcome_text(oracle_common_extension, p, q)
    if isinstance(want, Condition) and class_spec(want.tag).sig is None:
        # A metric result now carries the padded common signature of the sides and the glue.
        assert got == Condition(want.tag, align(want.tag, p.structure, q.structure, want.structure)[-1])
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TAGS), st.data())
def test_vacuity_by_rows_matches_tuple_scan_oracle(tag, data):
    """`extend`'s test whether the pins present can still become an
    embedding: `extension_by_rows` on the induced part against the scan."""
    draw = data.draw
    b = renamed(draw, draw(st.sampled_from(small_members(tag))), range(10, 16))
    p = renamed(draw, draw(st.sampled_from(small_members(tag) + enumerate_members(tag, 4)[:30])), range(8))
    b, p = padded(draw, tag, b), padded(draw, tag, p)
    pins = pin_cases(draw, *align(tag, b, p))
    part = induced_substructure(b, set(pins))
    got = extension_by_rows(*align(tag, part, p), pins) is not None
    assert got == is_partial_embedding(*align(tag, b, p), pins)


@st.composite
def one_point_cases(draw):
    """(left, right, root, x, y) as `crossing_amalgamation` passes them once
    its universe checks hold: x and y outside the root, on metric sides
    over one signature."""
    tag = draw(st.sampled_from(TAGS))
    members = small_members(tag) + enumerate_members(tag, 4)[:30]
    left = renamed(draw, draw(st.sampled_from(members)), range(5))
    right = renamed(draw, draw(st.sampled_from(members)), range(2, 7))
    assume(left.universe and right.universe)
    left, right = align(tag, padded(draw, tag, left), padded(draw, tag, right))
    root = frozenset(x for x in left.universe & right.universe if draw(st.booleans()))
    if not (left.universe - root and right.universe - root):
        root = frozenset()
    x = draw(st.sampled_from(sorted(left.universe - root)))
    y = draw(st.sampled_from(sorted(right.universe - root)))
    return left, right, root, x, y


@settings(max_examples=300, deadline=None)
@given(one_point_cases())
def test_one_point_types_match_matches_tuple_scan_oracle(case):
    assert _one_point_types_match(*case) == oracle_one_point_types_match(*case)


@st.composite
def extend_cases(draw):
    """(i, f, tag, p, seed): an extension requirement's pins and embedding,
    of a class with strong amalgamation, and a condition on overlapping ids."""
    tag = draw(st.sampled_from(SAP_TAGS))
    members = small_members(tag) + enumerate_members(tag, 4)[:30]
    target = padded(draw, tag, renamed(draw, draw(st.sampled_from(members)), range(10, 14)))
    b = induced_substructure(target, {x for x in target.universe if draw(st.booleans())})
    f = inclusion_embedding(b, target)
    i = dict(zip(b.sorted_universe(), draw(st.permutations(range(6)))))
    p = renamed(draw, draw(st.sampled_from(members)), range(5))
    return i, f, tag, Condition(tag, padded(draw, tag, p)), draw(st.none() | st.integers(0, 2**16))


@settings(max_examples=300, deadline=None)
@given(extend_cases())
def test_extend_matches_tuple_scan_oracle(case):
    i, f, tag, p, seed = case

    def rng():
        return None if seed is None else Random(seed)

    got = outcome_text(extension_requirement(i, f, tag).extend, p, rng())
    want = outcome_text(oracle_extend, i, f, tag, p, rng())
    assert got == want
    if isinstance(got, Condition):
        assert got.structure.sig == want.structure.sig


# --- the generic builder ---------------------------------------------------------


@cache
def class_schedule(tag, n, ext_size):
    return tuple(default_schedule(tag, n, ext_size))


@cache
def aut_schedule(n, alpha0):
    return tuple(default_aut_schedule(n, alpha0))


def build_start(tag):
    """The start and forcing order of a `cli._build_generic` build: the
    empty chain in `aut_stronger` for a linear class."""
    if class_spec(tag).linear:
        return empty_aut_condition(), aut_stronger
    return empty_condition(tag), None


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("Graph", "LinearOrder", "LinearGraph", "AutOrder")),
    st.integers(0, 4),
    st.none() | st.integers(0, 120),
    st.integers(0, 2**16),
    st.data(),
)
def test_generic_build_matches_full_recheck_oracle(tag, n, steps, seed, data):
    if tag == "AutOrder":
        alpha0 = data.draw(st.sampled_from((0, 1, n, n + 3)))
        schedule = list(aut_schedule(n, alpha0))
        start, order = empty_aut_condition(), aut_stronger
    else:
        ext_size = data.draw(st.integers(1, 3 if n <= 3 else 2))
        schedule = list(class_schedule(tag, n, ext_size))
        start, order = build_start(tag)
    want = oracle_generic_build(start, schedule, steps, seed, order)
    assert loop_chain(start, schedule, steps, seed, order) == want
    assert generic_build(start, schedule, steps, seed, order) == as_build(want)


# (n, ext_size) per built-in class: small enough to build in well under a
# second, large enough that the first pass grows the condition.
BUILD_SIZES = {
    "Graph": (3, 2), "Digraph": (2, 2), "Tournament": (3, 2), "LinearOrder": (5, 0),
    "PartialOrder": (3, 2), "RationalMetric": (2, 2), "LinearGraph": (5, 0), "AutOrder": (4, 0),
}


def start_schedule_order(tag):
    n, ext_size = BUILD_SIZES[tag]
    if tag == "AutOrder":
        return empty_aut_condition(), list(aut_schedule(n, 0)), aut_stronger
    start, order = build_start(tag)
    return start, list(class_schedule(tag, n, ext_size)), order


@pytest.mark.parametrize("tag", TAGS + ("AutOrder",))
def test_generic_build_matches_two_pass_oracle(tag):
    start, schedule, order = start_schedule_order(tag)
    size = len(schedule)
    # The default budget, a cut inside the first pass, cuts 1 and 3 steps
    # into the pass that is no longer met, and a budget past both passes.
    for steps in (None, size - 1, size + 1, size + 3, 3 * size):
        for seed in range(3):
            want = oracle_two_pass_build(start, schedule, steps, seed, order)
            chain, log = loop_chain(start, schedule, steps, seed, order)
            assert (chain, log) == want, (steps, seed)
            assert generic_build(start, schedule, steps, seed, order) == as_build(want), (steps, seed)
            assert len(log) == (2 * size if steps is None else min(steps, 2 * size))
            # The steps yielded without meeting hold the final condition itself.
            assert all(c is chain[-1] for c in chain[size + 1:])
    # From a condition that meets the whole schedule, the first pass is
    # quiet and ends the build.
    done = generic_build(start, schedule, None, 0, order).final
    quiet = generic_build(done, schedule, None, 0, order)
    want = oracle_two_pass_build(done, schedule, None, 0, order)
    assert loop_chain(done, schedule, None, 0, order) == want and quiet == as_build(want)
    assert len(quiet.log) == size and all(row[2] == () for row in quiet.log)


def cli_run(argv, capsys, caplog):
    """`main(argv)`'s exit code, stdout and stderr, and the lines that
    GENERIC_LOG=debug puts on stderr."""
    caplog.clear()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, [f"{r.name} {r.levelname} {r.getMessage()}" for r in caplog.records]


@pytest.mark.parametrize("n", (0, 1, 2, 3, 5, 13, 20, 40))
def test_linear_builds_match_the_class_condition_oracle(n, capsys, caplog, monkeypatch):
    """`build --class LinearOrder --verify` at seeds 0-3, whole, cut at 0,
    1 and 7 steps and as dot, against the same build on class conditions."""
    caplog.set_level(logging.DEBUG, logger="genstruct")
    runs = [["build", "--class", "LinearOrder", "--n", str(n), "--seed", str(seed), "--verify", *extra]
            for seed in range(4)
            for extra in ((), ("--steps", "0"), ("--steps", "1"), ("--steps", "7"), ("--format", "dot"))]
    got = [cli_run(argv, capsys, caplog) for argv in runs]
    monkeypatch.setattr("genstruct.cli._build_generic", oracle_build_generic)
    want = [cli_run(argv, capsys, caplog) for argv in runs]
    assert got == want
    assert {code for code, *_ in got} == {0}
    assert any(lines for *_, lines in got) == (n > 0)


def odd_size(p):
    return len(p.universe) % 2 == 1


def test_verify_reports_a_requirement_that_is_not_upward_closed(monkeypatch):
    # An odd number of points is not upward closed.  The extender adds the
    # least fresh point when the count is even, so each meet keeps its
    # contract.
    odd = DenseRequirement(
        "ODD", odd_size,
        lambda p, rng: p if odd_size(p) else _add_point(p, fresh_ids(p.universe, 1)[0], rng),
    )
    schedule = [odd, point_requirement(5)]
    start = empty_condition("Graph")
    chain = generic_build(start, schedule)
    # The first pass adds 0, then 5; the second is written without meeting
    # ODD again, so the build ends on two points and ODD does not hold.
    assert [row[2] for row in chain.log] == [(0,), (5,), (), ()]
    assert chain.final.universe == {0, 5} and not odd.satisfied(chain.final)
    # The two-pass loop met ODD again and ended on three points.
    assert oracle_two_pass_build(start, schedule)[0][-1].universe == {0, 1, 5}
    monkeypatch.setattr("genstruct.cli.default_schedule", lambda tag, n, ext_size: schedule)
    args = Namespace(tag="Graph", n=0, ext_size=0, steps=None, seed=0, verify=True)
    payload, problems = _build_generic(args)
    assert problems == ["unsatisfied requirement ODD"]
    assert payload["final"]["universe"] == [0, 5]


# --- autorder slots --------------------------------------------------------------


@st.composite
def aut_conditions(draw, max_size=14):
    """A valid AutCondition: a chain of distinct ids and an increasing,
    above-diagonal partial map between chain indices."""
    chain = tuple(draw(st.lists(st.integers(0, 40), unique=True, max_size=max_size)))
    idx = range(len(chain))
    sources = sorted(draw(st.sets(st.sampled_from(idx)))) if chain else []
    targets = sorted(draw(st.sets(st.sampled_from(idx)))) if chain else []
    phi = {chain[s]: chain[t] for s, t in zip(sources, targets) if s < t}
    return make_aut_condition(chain, phi)


@settings(max_examples=300, deadline=None)
@given(aut_conditions())
def test_grow_matches_fraction_oracle(c):
    for x in c.chain:
        assert outcome(_grow_forward, c, x) == outcome(oracle_grow_forward, c, x)
        assert outcome(_grow_backward, c, x) == outcome(oracle_grow_backward, c, x)


@settings(max_examples=200, deadline=None)
@given(aut_conditions(max_size=8), st.data())
def test_amalgamate_partial_automorphisms_matches_fraction_oracle(p1, data):
    root = set()
    for x in p1.chain:
        if data.draw(st.booleans()):
            root |= orbit_of(p1, x)
    outside = [x for x in p1.chain if x not in root]
    if not outside:
        return
    a = data.draw(st.sampled_from(outside))
    b = data.draw(st.sampled_from(outside))
    fresh = iter(x for x in range(41, 100))
    h = {x: (x if x in root else next(fresh)) for x in p1.chain}
    p2 = make_aut_condition([h[x] for x in p1.chain], {h[x]: h[y] for x, y in p1.phi})
    got = outcome(amalgamate_partial_automorphisms, p1, p2, frozenset(root), h, a, b)
    if orbit_of(p1, a) == orbit_of(p1, b):
        assert got is SameOrbit
        return
    assert got.chain == oracle_amalgam_chain(p1, p2, frozenset(root), h, a)


def test_oracles_agree_on_a_build():
    """The slot oracle matches at every point of every condition of a build."""
    for c in loop_chain(empty_aut_condition(), default_aut_schedule(8), None, 3, aut_stronger)[0]:
        for x in c.chain:
            assert _grow_forward(c, x) == oracle_grow_forward(c, x)
            assert _grow_backward(c, x) == oracle_grow_backward(c, x)



# --- extension requirements from bit rows --------------------------------------


def extension_cases(tag, n, ext_size):
    """The (i, f) of each requirement of `cli.extension_schedule`, in order."""
    for size in range(ext_size + 1):
        for target in enumerate_members(tag, size):
            universe = target.sorted_universe()
            for r in range(len(universe) + 1):
                for subset in combinations(universe, r):
                    f = inclusion_embedding(induced_substructure(target, set(subset)), target)
                    for image in permutations(range(n), r):
                        yield dict(zip(subset, image)), f


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tag, n", [("Graph", 5), ("Tournament", 5), ("Digraph", 2),
                                    ("PartialOrder", 3), ("RationalMetric", 1)])
def test_extension_verdicts_match_pinned_search_oracle(tag, n, seed):
    schedule = class_schedule(tag, n, 3)
    cases = list(extension_cases(tag, n, 3))
    reqs = schedule[n:]  # after the point requirements
    assert [r.name for r in reqs] == [extension_requirement(i, f, tag).name for i, f in cases]
    seen = set()
    for p in dict.fromkeys(loop_chain(empty_condition(tag), list(schedule), seed=seed)[0]):
        for (i, f), req in zip(cases, reqs):
            verdict = req.satisfied(p)
            assert verdict == oracle_extension_satisfied(i, f, tag, p), (req.name, p)
            present = set(i.values()) <= p.universe
            seen.add((present, verdict, len(f.target) == len(f.source)))
    # Met and unmet, with the image present, through the row step and the shortcut.
    assert {(True, True, False), (True, False, False), (True, True, True)} <= seen


def reversed_embeddings(tag, ext_size):
    """For each target of at most ext_size points and each small side, the
    side with its ids reversed in the target's universe and embedded back:
    mostly no inclusion, and its ids may clash with the target's."""
    for size in range(ext_size + 1):
        for target in enumerate_members(tag, size):
            universe = target.sorted_universe()
            back = dict(zip(universe, reversed(universe)))
            for r in range(len(universe) + 1):
                for subset in combinations(universe, r):
                    side = relabel(induced_substructure(target, set(subset)), {x: back[x] for x in subset})
                    yield make_embedding(side, target, {back[x]: x for x in subset})


@pytest.mark.parametrize("tag, n", [("Graph", 4), ("Tournament", 4), ("Digraph", 2),
                                    ("PartialOrder", 3), ("RationalMetric", 1)])
def test_extension_records_match_closure_oracle(tag, n, monkeypatch):
    """Family records against the per-injection closures, on every condition
    of builds at seeds 0-3: the same names in schedule order, the same
    verdicts, and each family's table holds exactly the pins that fail."""
    built = []
    monkeypatch.setattr(forcing, "_family", lambda f: built.append(f) or _family(f))
    schedule = default_schedule(tag, n, 3)
    monkeypatch.undo()
    assert len(schedule) == schedule_length(tag, n, 3)
    records = schedule[n:]  # after the point requirements
    # A family is built only for a small side with an injection into 0..n-1.
    assert len(built) == len({id(r.family) for r in records})
    oracles = [oracle_extension_requirement(i, f, tag) for i, f in extension_cases(tag, n, 3)]
    for f in reversed_embeddings(tag, 3):
        family = ExtensionFamily(f, tag, range(n))
        for pins in permutations(range(n), len(f.source)):
            records.append(ExtensionRequirement(family, pins))
            oracles.append(oracle_extension_requirement(dict(zip(family.points, pins)), f, tag))
    assert [r.name for r in records] == [o.name for o in oracles]
    members = {}
    for r, o in zip(records, oracles):
        members.setdefault(r.family, []).append((r, o))
    conditions = {}
    for seed in range(4):
        conditions.update(dict.fromkeys(loop_chain(empty_condition(tag), list(schedule), seed=seed)[0]))
    # Equal universes side by side: a table kept by anything but the
    # structure itself answers the wrong condition.
    failed = 0
    for p in sorted(conditions, key=lambda c: (len(c.universe), sorted(c.universe))):
        for family, pairs in members.items():
            verdicts = [o.satisfied(p) for _, o in pairs]
            assert [r.satisfied(p) for r, _ in pairs] == verdicts, (family.template, p)
            if len(family.target) > len(family.source):
                want = {r.pins for (r, _), v in zip(pairs, verdicts) if p.universe.issuperset(r.pins) and not v}
                assert family.failing(p.structure) == want, (family.template, p)
                failed += len(want)
    assert failed  # some pins embed b but have no completion
    # An onto family answers from the universe alone and builds no table.
    assert all(family._memo[0] is None for family in members if len(family.target) == len(family.source))


def pin_cases(draw, a, b):
    """Injective pins from part of a into b: often the restriction of an
    embedding, otherwise drawn at random and often no partial embedding."""
    if not a.universe:
        return {}
    points, found = sorted(a.universe), enumerate_embeddings(a, b)
    if found and draw(st.booleans()):
        whole = found[draw(st.integers(0, len(found) - 1))].as_dict()
        return {x: whole[x] for x in draw(st.sets(st.sampled_from(points)))}
    dom = draw(st.sets(st.sampled_from(points), max_size=len(b)))
    return dict(zip(sorted(dom), draw(st.permutations(sorted(b.universe)))))


def assert_rows_match_search(a, b, pins):
    pinned = bool(enumerate_embeddings_extending(induced_substructure(a, set(pins)), b, pins, limit=1))
    found = bool(enumerate_embeddings_extending(a, b, pins, limit=1))
    assert extension_by_rows(a, b, pins) == (found if pinned else None), pins


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SAP_TAGS), st.data())
def test_extension_by_rows_matches_pinned_search(tag, data):
    draw = data.draw
    members = small_members(tag)
    a = renamed(draw, draw(st.sampled_from(members)), range(8))
    b = renamed(draw, draw(st.sampled_from(members + enumerate_members(tag, 4)[:40])), range(4, 12))
    a, b = align(tag, padded(draw, tag, a), padded(draw, tag, b))
    assert_rows_match_search(a, b, pin_cases(draw, a, b))


TERNARY = Signature((("T", 3), ("E", 2), ("P", 1)))


@st.composite
def ternary_structures(draw, pool):
    universe = sorted(draw(st.sets(st.sampled_from(pool), max_size=4)))
    triples = list(permutations(universe, 3)) + [(x, x, y) for x in universe for y in universe]
    return validate_structure(TERNARY, set(universe), {
        "T": draw(st.sets(st.sampled_from(triples), max_size=6)) if universe else set(),
        "E": draw(st.sets(st.sampled_from(list(permutations(universe, 2))))) if len(universe) > 1 else set(),
        "P": {(x,) for x in draw(st.sets(st.sampled_from(universe)))} if universe else set(),
    })


@settings(max_examples=300, deadline=None)
@given(ternary_structures(range(4)), ternary_structures(range(2, 7)), st.data())
def test_extension_by_rows_checks_ternary_tuples(a, b, data):
    """A symbol of arity 3 has no bit rows; its tuples are checked one by one.
    The brute-force search (`oracle_search_maps`) answers, as the search
    itself reads the same rows."""
    if b.universe and data.draw(st.booleans()):  # a copy of part of b, so that embeddings exist
        part = induced_substructure(b, data.draw(st.sets(st.sampled_from(sorted(b.universe)))))
        a = relabel(part, dict(zip(part.sorted_universe(), range(4))))
    pins = pin_cases(data.draw, a, b)
    pinned = bool(oracle_search_maps(induced_substructure(a, set(pins)), b, False, pins, 1))
    found = bool(oracle_search_maps(a, b, False, pins, 1))
    assert extension_by_rows(a, b, pins) == (found if pinned else None), pins


# --- metric signatures read by name against padded copies ------------------------
#
# Metric spaces rarely share a signature. The search, `stronger` and
# `knaster_trim` read two of them over the union of their symbols, a symbol
# one side lacks being empty there; before, their callers padded copies to
# that union with `align`. The padded path is the oracle.


def padded_copies(a, b):
    """a and b as the search took them before: two metric spaces padded to one
    signature, any other pair as it is, and SignatureMismatch if the
    signatures then differ."""
    if all(name.startswith("d_") for name in (*a.sig.names(), *b.sig.names())):
        return align("RationalMetric", a, b)
    if a.sig != b.sig:
        raise SignatureMismatch("signatures differ")
    return a, b


def oracle_stronger(q, p):
    """`stronger` as it compared padded copies, for a linear order too."""
    if q.tag != p.tag:
        raise TagMismatch(f"{q.tag} vs {p.tag}")
    if not p.universe <= q.universe:
        return False
    a, b = align(p.tag, induced_substructure(q.structure, p.universe), p.structure)
    return a == b


def oracle_knaster_trim(conditions):
    """`knaster_trim` grouping its conditions by the JSON of their padded roots."""
    tag = conditions[0].tag
    ds = delta_system([c.universe for c in conditions])
    picked = [conditions[i] for i in ds.members]
    roots = align(tag, *(induced_substructure(c.structure, ds.root) for c in picked))
    keys = [dumps(r) for r in roots]
    best_key = Counter(keys).most_common(1)[0][0]
    group = [c for c, k in zip(picked, keys) if k == best_key]
    for i, a in enumerate(group):
        for b in group[i + 1:]:
            if common_extension(a, b) is None:
                raise StructureError("trimmed family failed the compatibility certificate")
    return group


def searches(a, b, pins, within):
    """Every search entry on (a, b): the completions of `pins` in order, within
    `within` when given, and whether `pins` extend to an embedding."""
    free = [x for x in a.sorted_universe() if x not in pins]
    return list(placements(a, b, pins, free, within)), extension_by_rows(a, b, pins)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_search_by_symbol_name_matches_padded_copies(data):
    """Metric pairs, each side over its own symbols plus some unused ones; now
    and then a side of another class, which both paths reject."""
    draw = data.draw
    tags = draw(st.sampled_from([("RationalMetric",) * 2] * 6 + [("RationalMetric", "Graph"), ("Graph", "RationalMetric")]))
    a = padded(draw, tags[0], renamed(draw, draw(st.sampled_from(small_members(tags[0]))), range(8)))
    pool = small_members(tags[1]) + enumerate_members(tags[1], 4)[:40]
    b = padded(draw, tags[1], renamed(draw, draw(st.sampled_from(pool)), range(4, 12)))
    try:
        pins = pin_cases(draw, *padded_copies(a, b))
    except SignatureMismatch:
        pins = {}
    within = None
    if draw(st.booleans()):
        within = [draw(st.integers(0, (1 << len(b)) - 1)) for x in a.universe if x not in pins]
    assert outcome(searches, a, b, pins, within) == outcome(
        lambda: searches(*padded_copies(a, b), pins, within))


@st.composite
def metric_families(draw):
    """Metric conditions on overlapping ids, padded at random: induced parts of
    one member, which agree where they meet, and renamed members."""
    members = small_members("RationalMetric") + enumerate_members("RationalMetric", 4)[:30]
    whole = renamed(draw, draw(st.sampled_from(members)), range(8))
    family = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            side = induced_substructure(whole, {x for x in whole.universe if draw(st.booleans())})
        else:
            side = renamed(draw, draw(st.sampled_from(members)), range(8))
        family.append(Condition("RationalMetric", padded(draw, "RationalMetric", side)))
    return family


@settings(max_examples=300, deadline=None)
@given(metric_families())
def test_stronger_and_knaster_trim_match_padded_copies(family):
    for q in family:
        for p in family:
            assert stronger(q, p) == oracle_stronger(q, p)
    assert outcome_text(knaster_trim, family) == outcome_text(oracle_knaster_trim, family)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SAP_TAGS), st.data())
def test_stronger_matches_padded_copies_in_every_class(tag, data):
    """A condition against its induced parts, some changed in one pair, and
    against other members."""
    draw = data.draw
    members = small_members(tag) + enumerate_members(tag, 4)[:30]
    q = Condition(tag, padded(draw, tag, renamed(draw, draw(st.sampled_from(members)), range(6))))
    part = induced_substructure(q.structure, {x for x in q.universe if draw(st.booleans())})
    other = renamed(draw, draw(st.sampled_from(members)), range(6))
    for p in (Condition(tag, padded(draw, tag, part)), Condition(tag, padded(draw, tag, other))):
        assert stronger(q, p) == oracle_stronger(q, p)
        assert stronger(p, q) == oracle_stronger(p, q)


# --- Δ-systems from pairwise intersections ---------------------------------------


def oracle_delta_system(family):
    """`delta_system` ranking every subset of every set as a candidate root."""
    sets = [frozenset(s) for s in family]
    if not sets:
        raise StructureError("family must be nonempty")
    counts = Counter()
    for s in sets:
        elems = sorted(s)
        for mask in range(1 << len(elems)):
            counts[frozenset(elems[j] for j in range(len(elems)) if mask >> j & 1)] += 1
    ordered = sorted(counts, key=lambda r: (-counts[r], -len(r), tuple(sorted(r))))
    best_root, best_members = frozenset(), ()
    for root in ordered:
        if counts[root] <= len(best_members):
            break
        chosen, used = [], set()
        for idx, s in enumerate(sets):
            if root <= s and not (s - root) & used:
                chosen.append(idx)
                used |= s - root
        if len(chosen) > len(best_members):
            best_root, best_members = root, tuple(chosen)
    return DeltaSystem(best_root, best_members)


def test_delta_system_matches_subset_census_oracle_on_random_families():
    """1-40 sets over at most 10 points, the empty set and repeats included."""
    rng = Random(39)
    shapes = set()
    for _ in range(3000):
        points = rng.randrange(11)
        family = []
        for _ in range(rng.randrange(1, 41)):
            if family and rng.random() < 0.2:
                family.append(rng.choice(family))
            else:
                family.append({x for x in range(points) if rng.random() < rng.random()})
        ds = delta_system(family)
        assert ds == oracle_delta_system(family), family
        shapes.add((len(ds.members), len(ds.root) > 0, frozenset() in map(frozenset, family)))
    assert {(1, True, False), (2, False, True), (2, True, False)} <= shapes
    assert max(size for size, _, _ in shapes) >= 10


def test_delta_system_matches_subset_census_oracle_on_every_family_of_nine_pairs():
    pairs = [frozenset(t) for t in combinations(range(6), 2)]
    for family in combinations(pairs, 9):
        assert delta_system(family) == oracle_delta_system(family)


def shuffled(c, rng, ground):
    """c renamed by a seeded injection into range(ground)."""
    h = dict(zip(sorted(c.universe), rng.sample(range(ground), len(c.universe))))
    if isinstance(c, AutCondition):
        return AutCondition(tuple(h[x] for x in c.chain), tuple(sorted((h[x], h[y]) for x, y in c.phi)))
    return Condition(c.tag, relabel(c.structure, h))


def part(c, rng):
    """c restricted to a seeded random part of its universe."""
    keep = {x for x in c.universe if rng.random() < 0.7}
    if isinstance(c, AutCondition):
        return AutCondition(tuple(x for x in c.chain if x in keep), tuple((x, y) for x, y in c.phi if {x, y} <= keep))
    return Condition(c.tag, induced_substructure(c.structure, keep))


def built_families(finals, ground):
    """The finals of builds, as they are, renamed into a common ground of
    `ground` points, half of them renamed there, and parts of the first,
    which agree wherever they meet."""
    rng = Random(len(finals))
    yield finals
    yield [shuffled(c, rng, ground) for c in finals]
    yield [shuffled(c, rng, ground) if i % 2 else c for i, c in enumerate(finals)]
    yield [part(finals[0], rng) for _ in finals]


@cache
def graph_finals(n):
    return tuple(generic_build(empty_condition("Graph"), default_schedule("Graph", n, 3), None, seed).final
                 for seed in range(6))


def test_knaster_trim_matches_subset_census_oracle_on_built_graphs(monkeypatch):
    """The finals of Graph --n 8 builds (12-14 points), seeds 0-5."""
    finals = list(graph_finals(8))
    assert {len(c.universe) for c in finals} <= set(range(12, 15))
    families = list(built_families(finals, 16))
    got = [outcome_text(knaster_trim, family) for family in families]
    monkeypatch.setattr(forcing, "delta_system", oracle_delta_system)
    assert got == [outcome_text(knaster_trim, family) for family in families]
    assert got[0] and all(isinstance(g, list) for g in got)


def test_equivariant_delta_trim_matches_subset_census_oracle_on_built_orders(monkeypatch):
    """The finals of AutOrder n=4-6 builds (11-15 points), seeds 0-5."""
    finals = [build_automorphic_order(n, None, seed)[0] for n in (4, 5, 6) for seed in range(6)]
    assert {len(c.universe) for c in finals} <= set(range(11, 16))
    families = [family for n in range(3) for family in built_families(finals[6 * n:6 * n + 6], 16)]
    got = [equivariant_delta_trim(family) for family in families]
    monkeypatch.setattr(forcing, "delta_system", oracle_delta_system)
    assert got == [equivariant_delta_trim(family) for family in families]
    assert any(kept for _, kept in got) and any(not kept for _, kept in got)


# Recorded with the all-subsets ranking before it left `src/` (at --n 16 with a
# copy of it on bit masks, which fits in memory), on the finals of six
# `build --class Graph --n <n> --ext-size 3` runs, seeds 0-5.
KNASTER_PINS = {
    12: (frozenset(range(17)), (0, 1, 3, 4), [0]),
    16: (frozenset(range(19)), (0, 3, 5), [0]),
}


@pytest.mark.parametrize("n", sorted(KNASTER_PINS))
def test_knaster_trim_group_on_built_graphs_is_pinned(n):
    finals = graph_finals(n)
    root, members, group = KNASTER_PINS[n]
    assert delta_system([c.universe for c in finals]) == DeltaSystem(root, members)
    assert knaster_trim(list(finals)) == [finals[i] for i in group]


# --- strong density from one witness table -----------------------------------------


def oracle_strongly_dense_check(e_set, poset):
    """The earlier check: five predicates per incomparable pair, one scan of the set each."""
    e_set = frozenset(e_set)
    if not e_set <= poset.universe:
        raise forcing.ElementOutsideUniverse(sorted(e_set - poset.universe))
    rel = poset.rel("<")
    failures = []

    def cmp(x, y):
        if (x, y) in rel:
            return "<"
        if (y, x) in rel:
            return ">"
        return "|"

    elems = poset.sorted_universe()
    for s in elems:
        for t in elems:
            if s == t:
                continue
            if cmp(s, t) == "<":
                if not any(cmp(s, e) == "<" and cmp(e, t) == "<" for e in sorted(e_set)):
                    failures.append({"kind": "between", "pair": (s, t)})
            elif cmp(s, t) == "|":
                kinds = {
                    "above_one_skew": lambda e: cmp(e, s) == ">" and cmp(e, t) == "|",
                    "below_both": lambda e: cmp(e, s) == "<" and cmp(e, t) == "<",
                    "below_one_skew": lambda e: cmp(e, s) == "<" and cmp(e, t) == "|",
                    "above_both": lambda e: cmp(e, s) == ">" and cmp(e, t) == ">",
                    "skew_both": lambda e: e not in (s, t) and cmp(e, s) == "|" and cmp(e, t) == "|",
                }
                for kind, pred in kinds.items():
                    if not any(pred(e) for e in sorted(e_set)):
                        failures.append({"kind": kind, "pair": (s, t)})
    return forcing.DenseVerdict(not failures, tuple(failures))


def poset_subset_cases():
    """Every PartialOrder member of at most 5 points with every subset of its points."""
    for size in range(6):
        for p in enumerate_members("PartialOrder", size):
            for mask in range(1 << size):
                yield p, {x for x in range(size) if mask >> x & 1}


def test_strongly_dense_check_matches_predicate_oracle_on_small_posets():
    cases = 0
    for p, e_set in poset_subset_cases():
        assert strongly_dense_check(e_set, p) == oracle_strongly_dense_check(e_set, p)
        cases += 1
    assert cases == 2323


def test_strongly_dense_check_matches_predicate_oracle_on_relabelled_posets():
    rng = Random(5)
    for p, e_set in poset_subset_cases():
        ids = rng.sample(range(12), len(p))
        renaming = dict(zip(sorted(p.universe), ids))
        q, moved = relabel(p, renaming), {renaming[x] for x in e_set}
        assert strongly_dense_check(moved, q) == oracle_strongly_dense_check(moved, q)
