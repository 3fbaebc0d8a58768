"""Finite forcing conditions and the generic chain builder.

A condition is a class member whose universe sits inside the ground set
of naturals, ordered by reverse inclusion.  Dense requirements pair a
satisfaction predicate with an extender; meeting a scheduled family of
them builds the generic prefix.  `meet` and `generic_build` take the
forcing order from the caller, so orders with a partial automorphism
(`genstruct.autorder`) are built by the same loop.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Callable, Generic, TypeVar

from genstruct.classes import (
    SAP_FLAGS,
    align,
    amalgamate,
    chain_of,
    chain_structure,
    class_signature,
    class_spec,
    membership,
    merge_linear_orders,
)
from genstruct.structures import (
    Embedding,
    FinStructure,
    GRAPH_SIG,
    Signature,
    StructureError,
    dumps,
    empty_structure,
    enumerate_embeddings_extending,
    fresh_ids,
    induced_substructure,
    is_partial_embedding,
    make_embedding,
    relabel,
    to_json_dict,
    validate_structure,
)

logger = logging.getLogger("genstruct")
C = TypeVar("C")  # a class `Condition` or an `autorder.AutCondition`


class TagMismatch(StructureError):
    pass


class RootDisagreement(StructureError):
    pass


class IsomorphismTypeMismatch(StructureError):
    pass


class SAPRequired(StructureError):
    pass


class ElementOutsideUniverse(StructureError):
    pass


@dataclass(frozen=True)
class Condition:
    """A finite class member used as a forcing condition."""

    tag: str
    structure: FinStructure

    @property
    def universe(self) -> frozenset[int]:
        return self.structure.universe

    def __post_init__(self) -> None:
        if not membership(self.tag, self.structure):
            raise StructureError(f"condition body is not a {self.tag} member")


def empty_condition(tag: str) -> Condition:
    sig = class_signature(tag) or Signature(())
    return Condition(tag, empty_structure(sig))


def _same_on(tag: str, a: FinStructure, b: FinStructure) -> bool:
    """Structure equality that ignores signature padding for metrics."""
    a, b = align(tag, a, b)
    return a == b


def stronger(q: Condition, p: Condition) -> bool:
    """Is q an extension of p (reverse inclusion order)?"""
    if q.tag != p.tag:
        raise TagMismatch(f"{q.tag} vs {p.tag}")
    if q is p:
        return True
    if not p.universe <= q.universe:
        return False
    return _same_on(p.tag, induced_substructure(q.structure, p.universe), p.structure)


def common_extension(p: Condition, q: Condition) -> Condition | None:
    """A condition stronger than both, or None if they are incompatible.

    The shared part must carry the same induced structure; the extension
    keeps every id and decides cross relations by the class's glue
    (separator rule for linear orders, free joins for graphs, transitive
    closure for partial orders, shortest-path gluing for metrics).
    """
    if p.tag != q.tag:
        raise TagMismatch(f"{p.tag} vs {q.tag}")
    tag = p.tag
    shared = p.universe & q.universe
    if not _same_on(tag, induced_substructure(p.structure, shared),
                    induced_substructure(q.structure, shared)):
        return None
    try:
        result = class_spec(tag).glue(p.structure, q.structure)
    except StructureError:
        return None
    if not membership(tag, result):
        return None
    out = Condition(tag, result)
    if not (stronger(out, p) and stronger(out, q)):
        return None
    return out


@dataclass(frozen=True)
class DenseRequirement(Generic[C]):
    """A named, testable requirement plus an extender that forces it.

    `extend` must return a condition stronger than its argument that
    satisfies the predicate; on satisfied conditions it is the identity.
    The optional rng picks among minimal extensions.  Satisfaction must
    be upward closed: once a condition satisfies it, so does every
    stronger one.
    """

    name: str
    satisfied: Callable[[C], bool]
    extend: Callable[[C, Random | None], C]


def meet(p: C, req: DenseRequirement[C], rng: Random | None = None,
         order: Callable[[C, C], bool] | None = None) -> C:
    """Least work to put p inside the requirement's dense set.

    The extension must be stronger in the forcing order `order(q, p)`;
    None means `stronger`, looked up when the meet runs.
    """
    if req.satisfied(p):
        return p
    q = req.extend(p, rng)
    if not (order or stronger)(q, p) or not req.satisfied(q):
        raise StructureError(f"extender for {req.name} broke its contract")
    return q


# --- built-in requirement families ------------------------------------------


def _add_point(p: Condition, m: int, rng: Random | None) -> Condition:
    """Adjoin ground-set element m with canonical or seeded relations."""
    return Condition(p.tag, class_spec(p.tag).add_point(p.structure, m, rng))


def point_requirement(tag: str, m: int) -> DenseRequirement:
    """The element m must belong to the condition's universe."""

    def satisfied(p: Condition) -> bool:
        return m in p.universe

    def extend(p: Condition, rng: Random | None) -> Condition:
        return p if m in p.universe else _add_point(p, m, rng)

    return DenseRequirement(f"D_{m}", satisfied, extend)


def between_requirement(a: int, b: int) -> DenseRequirement:
    """Some element must lie strictly between a and b (linear orders)."""
    if a == b:
        raise StructureError("between requirement needs two distinct elements")

    def satisfied(p: Condition) -> bool:
        if a not in p.universe or b not in p.universe:
            return False
        seq = chain_of(p.structure)
        lo, hi = sorted((seq.index(a), seq.index(b)))
        return hi - lo > 1

    def extend(p: Condition, rng: Random | None) -> Condition:
        for m in (a, b):
            if m not in p.universe:
                p = _add_point(p, m, rng)
        seq = chain_of(p.structure)
        lo, hi = sorted((seq.index(a), seq.index(b)))
        if hi - lo > 1:
            return p
        mid = fresh_ids(p.universe, 1)[0]
        slot = lo + 1
        return Condition(p.tag, chain_structure(seq[:slot] + [mid] + seq[slot:]))

    return DenseRequirement(f"D_{a},{b}", satisfied, extend)


def connectivity_requirement(a: int, b: int) -> DenseRequirement:
    """a and b must lie in one path component (linear graphs).

    Meeting these for all pairs is the finite shadow of the fact that
    this class forces any ground set onto a single line.
    """

    def _component(p: Condition, x: int) -> set[int]:
        adj: dict[int, set[int]] = {y: set() for y in p.universe}
        for s, t in p.structure.rel("E"):
            adj[s].add(t)
        comp = {x}
        stack = [x]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        return comp

    def satisfied(p: Condition) -> bool:
        return a in p.universe and b in p.universe and b in _component(p, a)

    def extend(p: Condition, rng: Random | None) -> Condition:
        for m in (a, b):
            if m not in p.universe:
                p = _add_point(p, m, None)
        if satisfied(p):
            return p
        comp_a, comp_b = _component(p, a), _component(p, b)
        rel = set(p.structure.rel("E"))
        deg = Counter(x for x, _ in rel)
        end_a = min(x for x in comp_a if deg[x] <= 1)
        end_b = min(x for x in comp_b if deg[x] <= 1)
        z = fresh_ids(p.universe, 1)[0]
        rel.update({(end_a, z), (z, end_a), (z, end_b), (end_b, z)})
        body = validate_structure(GRAPH_SIG, set(p.universe) | {z}, {"E": rel})
        return Condition(p.tag, body)

    return DenseRequirement(f"C_{a},{b}", satisfied, extend)


def _randomize_free_relations(
    tag: str, body: FinStructure, new_ids: set[int], fixed_ids: set[int], rng: Random
) -> FinStructure:
    """Resample the free cross relations between fresh points and the old
    points the amalgam did not constrain."""
    cross = class_spec(tag).cross
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


def _realize_over(
    p: Condition,
    base: FinStructure,
    extension: FinStructure,
    base_to_p: dict[int, int],
    prescribed: dict[int, int],
    rng: Random | None,
) -> tuple[Condition, dict[int, int]]:
    """Extend p so a copy of `extension` sits over the base image.

    Keeps every id of p; new points take prescribed names where given and
    the smallest fresh naturals otherwise.  Returns the new condition and
    the extension-to-result map.
    """
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
    mapping = {x: renaming[right[x]] for x in extension.universe}
    if rng is not None:
        new_ids = {target_name[x] for x in new_ext_points}
        body = _randomize_free_relations(tag, body, new_ids, set(base_to_p.values()), rng)
    return Condition(tag, body), mapping


def _structure_digest(*structures: FinStructure) -> str:
    blob = json.dumps([to_json_dict(s) for s in structures], separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:8]


def extension_requirement(i: dict[int, int], f: Embedding, tag: str) -> DenseRequirement:
    """Whenever i realizes the small side as an embedding, some embedding g
    of the larger side must satisfy g after f = i.

    While part of i's image is still missing from the condition the
    requirement counts as unmet; once the image is present the relations
    are frozen, so the verdict (and hence satisfaction) is final.  That
    keeps satisfaction upward closed along extensions.
    """
    b, b_prime = f.source, f.target
    if set(i) != set(b.universe):
        raise StructureError("i must be defined exactly on the small side")
    if len(set(i.values())) != len(i):
        raise StructureError("i must be injective")
    fm = f.as_dict()
    pin_template = {fm[x]: i[x] for x in fm}
    name = (
        "E["
        + ",".join(f"{x}>{i[x]}" for x in sorted(i))
        + ";"
        + _structure_digest(b, b_prime)
        + "]"
    )

    image = set(i.values())

    def _i_is_embedding(p: Condition) -> bool:
        return is_partial_embedding(*align(tag, b, p.structure), dict(i))

    def satisfied(p: Condition) -> bool:
        if not image <= p.universe:
            return False
        if not _i_is_embedding(p):
            return True
        found = enumerate_embeddings_extending(
            *align(tag, b_prime, p.structure), pin_template, limit=1
        )
        return bool(found)

    def extend(p: Condition, rng: Random | None) -> Condition:
        if satisfied(p):
            return p
        if not image <= p.universe:
            present = sorted(x for x in b.universe if i[x] in p.universe)
            part = induced_substructure(b, set(present))
            part_map = {x: i[x] for x in present}
            if not is_partial_embedding(*align(tag, b, p.structure), part_map):
                # i can never become an embedding; make the implication vacuous.
                for m in sorted(image - p.universe):
                    p = _add_point(p, m, rng)
                return p
            missing = {x: i[x] for x in b.universe if x not in present}
            p, _ = _realize_over(p, part, b, part_map, missing, rng)
            if satisfied(p):
                return p
        p, _ = _realize_over(p, b, b_prime, dict(i), {}, rng)
        return p

    return DenseRequirement(name, satisfied, extend)


def _step_line(idx: int, name: str, added: tuple[int, ...]) -> str:
    return f"step={idx} req={name} added={','.join(map(str, added))}"


@dataclass(frozen=True)
class GenericChain(Generic[C]):
    """The start condition, then the condition after each round-robin step."""

    steps: tuple[C, ...]
    log: tuple[tuple[int, str, tuple[int, ...]], ...]

    @property
    def final(self) -> C:
        return self.steps[-1]

    def log_lines(self) -> list[str]:
        return [_step_line(*row) for row in self.log]


def generic_build(start: C, schedule: list[DenseRequirement[C]], steps: int | None = None,
                  seed: int = 0, order: Callable[[C, C], bool] | None = None) -> GenericChain[C]:
    """Round-robin over the schedule from `start` for at most `steps` meets
    in the forcing order `order` (as for `meet`).

    The default budget is 8 * len(schedule) + 8 meets; an empty schedule
    runs none.  Stops early once a full pass adds nothing and every
    requirement is satisfied.  Deterministic for a fixed (start, schedule,
    steps, seed).  At DEBUG, the `genstruct` logger gets each step's log
    line while the build runs.
    """
    if not schedule:
        steps = 0
    elif steps is None:
        steps = 8 * len(schedule) + 8
    debug = logger.isEnabledFor(logging.DEBUG)
    rng = Random(seed)
    current = start
    chain = [current]
    log: list[tuple[int, str, tuple[int, ...]]] = []
    grew_this_pass = False
    for idx in range(steps):
        req = schedule[idx % len(schedule)]
        new = meet(current, req, rng, order)
        added = ()
        if new is not current:
            added = tuple(sorted(new.universe - current.universe))
            grew_this_pass = grew_this_pass or new != current
        log.append((idx, req.name, added))
        if debug:
            logger.debug("%s", _step_line(idx, req.name, added))
        chain.append(new)
        current = new
        if idx % len(schedule) == len(schedule) - 1:
            if not grew_this_pass and all(r.satisfied(current) for r in schedule):
                break
            grew_this_pass = False
    return GenericChain(tuple(chain), tuple(log))


# --- delta systems -----------------------------------------------------------


@dataclass(frozen=True)
class DeltaSystem:
    root: frozenset[int]
    members: tuple[int, ...]


def delta_system(family: list[frozenset[int] | set[int]]) -> DeltaSystem:
    """Greedy extraction of a sunflower-style subfamily.

    Every pair of selected sets intersects exactly in the root.  Candidate
    roots are the subsets of the family's sets, tried by descending
    containment count; within a root, sets are taken first come first
    served when their non-root parts stay pairwise disjoint.  Whenever the
    family has at least two sets the result has at least two members
    (the intersection of any two sets is a candidate root), which already
    meets the documented |family| / (k * 2^s) floor at desk scale.
    """
    sets = [frozenset(s) for s in family]
    if not sets:
        raise StructureError("family must be nonempty")
    counts: Counter[frozenset[int]] = Counter()
    for s in sets:
        elems = sorted(s)
        for mask in range(1 << len(elems)):
            counts[frozenset(elems[j] for j in range(len(elems)) if mask >> j & 1)] += 1
    # Ties on containment count prefer the larger root, so a family of
    # identical sets reports the set itself.
    ordered = sorted(
        counts, key=lambda r: (-counts[r], -len(r), tuple(sorted(r)))
    )
    best_root: frozenset[int] = frozenset()
    best_members: tuple[int, ...] = ()
    for root in ordered:
        if counts[root] <= len(best_members):
            break
        chosen: list[int] = []
        used: set[int] = set()
        for idx, s in enumerate(sets):
            if root <= s and not (s - root) & used:
                chosen.append(idx)
                used |= s - root
        if len(chosen) > len(best_members):
            best_root, best_members = root, tuple(chosen)
    return DeltaSystem(best_root, best_members)


# --- proof-step amalgamations -------------------------------------------------


@dataclass(frozen=True)
class CrossingSpec:
    """Designated fresh points on each side: s, s_bar on the left
    condition, t, t_bar on the right one."""

    s: int
    s_bar: int
    t: int
    t_bar: int


def _one_point_types_match(
    left: FinStructure, right: FinStructure, root: frozenset[int], x: int, y: int
) -> bool:
    """Do root+x and root+y extend the root isomorphically via x -> y?"""
    ext_left = induced_substructure(left, root | {x})
    mapping = {r: r for r in root}
    mapping[x] = y
    return is_partial_embedding(ext_left, right, mapping)


def crossing_amalgamation(
    p_s: Condition, p_t: Condition, root: frozenset[int] | set[int], spec: CrossingSpec
) -> Condition:
    """Common extension that crosses the designated points.

    Graphs: the edge {s,t} is added and {s_bar,t_bar} stays absent.
    Linear orders: the result satisfies s < t and t_bar < s_bar, routed
    through the intermediate extension of the root by s < t < t_bar < s_bar
    and two separator-rule merges.
    """
    if p_s.tag != p_t.tag:
        raise TagMismatch(f"{p_s.tag} vs {p_t.tag}")
    tag = p_s.tag
    if tag not in ("Graph", "LinearOrder"):
        raise StructureError("crossing amalgamation supports Graph and LinearOrder")
    root = frozenset(root)
    if not (root <= p_s.universe and root <= p_t.universe):
        raise RootDisagreement("root must sit inside both universes")
    if p_s.universe & p_t.universe != root:
        raise IsomorphismTypeMismatch("universes must meet exactly in the root")
    if not _same_on(tag, induced_substructure(p_s.structure, root),
                    induced_substructure(p_t.structure, root)):
        raise RootDisagreement("conditions disagree on the root")
    s, s_bar, t, t_bar = spec.s, spec.s_bar, spec.t, spec.t_bar
    if len({s, s_bar}) != 2 or len({t, t_bar}) != 2:
        raise IsomorphismTypeMismatch("designated points must be distinct")
    if not {s, s_bar} <= p_s.universe - root or not {t, t_bar} <= p_t.universe - root:
        raise IsomorphismTypeMismatch("designated points must be fresh on their side")
    if not _one_point_types_match(p_s.structure, p_t.structure, root, s, t):
        raise IsomorphismTypeMismatch("root+s and root+t are not isomorphic extensions")

    if tag == "Graph":
        rel = set(p_s.structure.rel("E")) | set(p_t.structure.rel("E"))
        rel.update({(s, t), (t, s)})
        body = validate_structure(
            GRAPH_SIG, set(p_s.universe) | set(p_t.universe), {"E": rel}
        )
        return Condition(tag, body)

    if not _one_point_types_match(p_s.structure, p_t.structure, root, s_bar, t_bar):
        raise IsomorphismTypeMismatch("root+s_bar and root+t_bar are not isomorphic extensions")
    seq_s = chain_of(p_s.structure)
    seq_t = chain_of(p_t.structure)
    if seq_s.index(s) > seq_s.index(s_bar) or seq_t.index(t) > seq_t.index(t_bar):
        raise IsomorphismTypeMismatch("expected s below s_bar and t below t_bar")
    # Intermediate extension: the root plus s < t < t_bar < s_bar.
    mid = []
    for x in seq_s:
        if x in root or x in (s, s_bar):
            if x == s_bar:
                mid.append(t_bar)
            mid.append(x)
            if x == s:
                mid.append(t)
    step1 = merge_linear_orders(seq_s, mid, set(root) | {s, s_bar})
    step2 = merge_linear_orders(step1, seq_t, set(root) | {t, t_bar})
    return Condition(tag, chain_structure(step2))


@dataclass(frozen=True)
class DenseVerdict:
    holds: bool
    failures: tuple[dict, ...] = ()


def strongly_dense_check(e_set: set[int] | frozenset[int], poset: FinStructure) -> DenseVerdict:
    """Is the set dense for every one- and two-point configuration?

    Comparable pairs need a strictly intermediate member of the set;
    each ordered incomparable pair needs witnesses of all five kinds:
    above-one-skew, below-both, below-one-skew, above-both, skew-both.
    A finite poset with any comparable pair always has a covering pair,
    so nonempty instances can only pass vacuously or fail informatively.
    """
    e_set = frozenset(e_set)
    if not e_set <= poset.universe:
        raise ElementOutsideUniverse(sorted(e_set - poset.universe))
    rel = poset.rel("<")
    failures: list[dict] = []

    def cmp(x: int, y: int) -> str:
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
            elif cmp(s, t) == "|" :
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
    return DenseVerdict(not failures, tuple(failures))


def knaster_trim(conditions: list[Condition]) -> list[Condition]:
    """Extract a pairwise compatible subfamily of same-tag conditions.

    Runs the sunflower extraction on the universes, keeps the largest
    group with one induced root structure, then certifies compatibility
    of every pair through common_extension.  Only meaningful for classes
    with strong amalgamation.
    """
    if not conditions:
        raise StructureError("need at least one condition")
    tag = conditions[0].tag
    if any(c.tag != tag for c in conditions):
        raise TagMismatch("mixed class tags")
    if not SAP_FLAGS[tag]:
        raise SAPRequired(f"{tag} lacks strong amalgamation")
    ds = delta_system([c.universe for c in conditions])
    picked = [conditions[i] for i in ds.members]

    roots = align(tag, *(induced_substructure(c.structure, ds.root) for c in picked))
    keys = [dumps(r) for r in roots]
    tally: Counter[str] = Counter(keys)
    best_key = max(tally, key=lambda k: (tally[k], -keys.index(k)))
    group = [c for c, k in zip(picked, keys) if k == best_key]
    for i, a in enumerate(group):
        for b in group[i + 1:]:
            if common_extension(a, b) is None:
                raise StructureError("trimmed family failed the compatibility certificate")
    return group
