"""Finite forcing conditions and the generic chain builder.

A condition is a class member whose universe sits inside the ground set
of naturals, ordered by reverse inclusion.  Dense requirements pair a
satisfaction predicate with an extender; meeting a scheduled family of
them builds the generic prefix.  `meet` and the round-robin loop
`generic_steps` take the forcing order from the caller, so orders with a
partial automorphism (`genstruct.autorder`) are built by the same loop.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Callable, Generic, Iterable, Iterator, TypeVar

from genstruct.classes import (
    NotInClass,
    _degrees,
    align,
    chain_of,
    chain_structure,
    class_spec,
    glue_and_check,
    membership,
)
from genstruct.structures import (
    Embedding,
    FinStructure,
    GRAPH_SIG,
    Signature,
    StructureError,
    empty_structure,
    extension_by_rows,
    fresh_ids,
    induced_substructure,
    placements,
    relabel,
    to_json_dict,
    used_rows,
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
    sig = class_spec(tag).sig or Signature(())
    return Condition(tag, empty_structure(sig))


def stronger(q: Condition, p: Condition) -> bool:
    """Is q an extension of p (reverse inclusion order)?"""
    if q.tag != p.tag:
        raise TagMismatch(f"{q.tag} vs {p.tag}")
    if q is p:
        return True
    if not p.universe <= q.universe:
        return False
    if class_spec(p.tag).linear:
        # Both are linear orders, equal on p's points exactly when their chains are.
        return tuple(filter(p.universe.__contains__, q.structure.chain)) == p.structure.chain
    return used_rows(induced_substructure(q.structure, p.universe)) == used_rows(p.structure)


def common_extension(p: Condition, q: Condition) -> Condition | None:
    """A condition stronger than both, or None if they are incompatible.

    The strong amalgam of p and q that keeps every id (`glue_and_check`
    with the identity on q): the class's glue decides the cross relations,
    and the result must be a member carrying p's rows on p's points and
    q's on q's, which fails exactly when the two disagree on their shared
    part.  A metric result carries the padded common signature.
    """
    if p.tag != q.tag:
        raise TagMismatch(f"{p.tag} vs {q.tag}")
    a, b = p.structure, q.structure
    try:
        for side in (a, b):  # the glue trusts the sides' tuples
            validate_structure(side.sig, side.universe, dict(side.interp))
        return Condition(p.tag, glue_and_check(p.tag, a, b, {x: x for x in b.universe}, b))
    except StructureError:
        return None


@dataclass(frozen=True)
class DenseRequirement(Generic[C]):
    """A named, testable requirement plus an extender that forces it.

    `extend` must return a condition stronger than its argument that
    satisfies the predicate; on satisfied conditions it is the identity.
    The optional rng picks among minimal extensions.  Satisfaction must
    depend only on the condition's value, so equal conditions get the
    same verdict, and be upward closed: once a condition satisfies it,
    so does every stronger one.
    """

    name: str
    satisfied: Callable[[C], bool]
    extend: Callable[[C, Random | None], C]


def meet(p: C, req: DenseRequirement[C], rng: Random | None = None,
         order: Callable[[C, C], bool] | None = None) -> C:
    """Least work to put p inside the requirement's dense set.

    The extension must be stronger in the forcing order `order(q, p)`
    (None means `stronger`, looked up when the meet runs) and satisfy the
    requirement, else StructureError "extender for <name> broke its
    contract".  `req` is a `DenseRequirement` or an `ExtensionRequirement`.
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


def point_requirement(m: int) -> DenseRequirement:
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
        seq = p.structure.chain
        lo, hi = sorted((seq.index(a), seq.index(b)))
        return hi - lo > 1

    def extend(p: Condition, rng: Random | None) -> Condition:
        for m in (a, b):
            if m not in p.universe:
                p = _add_point(p, m, rng)
        seq = p.structure.chain
        lo, hi = sorted((seq.index(a), seq.index(b)))
        if hi - lo > 1:
            return p
        mid = fresh_ids(p.universe, 1)[0]
        return Condition(p.tag, chain_structure(seq[:lo + 1] + (mid,) + seq[lo + 1:]))

    return DenseRequirement(f"D_{a},{b}", satisfied, extend)


def connectivity_requirement(a: int, b: int) -> DenseRequirement:
    """a and b must lie in one path component (linear graphs).

    Meeting these for all pairs is the finite shadow of the fact that
    this class forces any ground set onto a single line.
    """

    def _component(p: Condition, x: int) -> frozenset[int]:
        return next(comp for comp in p.structure.components if x in comp)

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
        deg = _degrees(p.structure)
        end_a = min(x for x in comp_a if deg[x] <= 1)
        end_b = min(x for x in comp_b if deg[x] <= 1)
        z = fresh_ids(p.universe, 1)[0]
        rel.update({(end_a, z), (z, end_a), (z, end_b), (end_b, z)})
        body = validate_structure(GRAPH_SIG, set(p.universe) | {z}, {"E": rel})
        return Condition(p.tag, body)

    return DenseRequirement(f"C_{a},{b}", satisfied, extend)


def _realize_over(
    p: Condition,
    base: FinStructure,
    extension: FinStructure,
    base_to_p: dict[int, int],
    prescribed: dict[int, int],
    rng: Random | None,
) -> Condition:
    """Extend p so a copy of `extension` sits over the base image.

    `base` is an induced substructure of `extension` with the same ids and
    `base_to_p` embeds it into p.  The body is the strong amalgam
    (`glue_and_check`): it keeps every id of p, and the new points take
    prescribed names where given and the smallest fresh naturals
    otherwise.  The glue decides the pairs between the new points and p's
    points outside the base image, drawing free ones with rng when given.
    That one checked body, its verdict kept, is the condition's body.  A
    `base_to_p` that is no embedding fails its row checks.
    """
    tag = p.tag
    for side in (base, extension):
        if not membership(tag, side):
            raise NotInClass(f"input not in class {tag}")
    extension = align(tag, base, extension)[1]  # a metric body keeps base's padding too
    new_points = sorted(extension.universe - base.universe)
    pool = iter(fresh_ids(p.universe | set(prescribed.values()), len(new_points)))
    names = {x: prescribed[x] if x in prescribed else next(pool) for x in new_points}
    to_body = {**base_to_p, **names}
    return Condition(tag, glue_and_check(tag, p.structure, extension, to_body, relabel(extension, to_body), rng))


def _family(f: Embedding) -> tuple[dict[int, int], FinStructure, str]:
    """f as a dict; f's target renamed so that f becomes an inclusion (f(x)
    becomes x, other points keep their ids unless the source uses them);
    and the digest of f's source and target that names its requirements."""
    source, target = f.source, f.target
    back = {y: x for x, y in f.mapping}
    clashes = sorted(source.universe & target.universe - back.keys())
    moved = dict(zip(clashes, fresh_ids(source.universe | target.universe, len(clashes))))
    b_over = relabel(target, {y: back.get(y, moved.get(y, y)) for y in target.universe})
    blob = json.dumps([to_json_dict(source), to_json_dict(target)], separators=(",", ":"))
    return f.as_dict(), b_over, hashlib.sha1(blob.encode()).hexdigest()[:8]


class ExtensionFamily:
    """One `ExtensionRequirement` per injection of b into the ground set, for
    an embedding f: b -> b'; their verdicts come from one table per condition.
    The forcing step glues, so the class must have strong amalgamation.
    What depends only on f is computed once: f as a map, the renamed target
    `b_over`, the digest in the names, b's points, their images in b', the
    free points of b' and whether f is onto."""

    __slots__ = ("source", "target", "b_over", "points", "images", "free", "onto", "template", "ground", "_memo")

    def __init__(self, f: Embedding, tag: str, ground: Iterable[int]) -> None:
        if not class_spec(tag).sap:
            raise SAPRequired(f"{tag} lacks strong amalgamation")
        fm, self.b_over, digest = _family(f)
        self.source, self.target, self.ground = f.source, f.target, frozenset(ground)
        self.points = tuple(f.source.sorted_universe())
        self.images = tuple(fm[x] for x in self.points)
        self.free = [y for y in f.target.bitsets.order if y not in self.images]
        self.onto = not self.free
        self.template = "E[" + ",".join(f"{x}>{{}}" for x in self.points) + f";{digest}]"
        self._memo = None, None

    def failing(self, structure: FinStructure) -> set[tuple[int, ...]]:
        """The pins into the ground that embed f(b) but extend to no embedding
        of b': one `placements` walk of f(b), then one completion search per
        pin.  Kept for the last (immutable) structure asked."""
        if structure is not self._memo[0]:
            ground = sum(1 << j for j, x in enumerate(structure.bitsets.order) if x in self.ground)
            walk = placements(self.target, structure, {}, self.images, [ground] * len(self.images))
            self._memo = structure, {tuple(done[y] for y in self.images) for done in walk
                                     if next(placements(self.target, structure, done, self.free), None) is None}
        return self._memo[1]


class ExtensionRequirement:
    """Whenever the pins, the images of b's points, realize b as an embedding
    i, some embedding g of b' must satisfy g after f = i.  Unmet while an
    image point is missing, then final; met at once when f is onto (g is i
    after f's inverse, or i is no embedding), else the family's table
    answers, and pins that are no embedding are vacuous."""

    __slots__ = ("family", "pins", "name")

    def __init__(self, family: ExtensionFamily, pins: tuple[int, ...]) -> None:
        self.family, self.pins, self.name = family, pins, family.template.format(*pins)

    def satisfied(self, p: Condition) -> bool:
        family = self.family
        return p.universe.issuperset(self.pins) and (family.onto or self.pins not in family.failing(p.structure))

    def extend(self, p: Condition, rng: Random | None) -> Condition:
        if self.satisfied(p):
            return p
        b, i, image = self.family.source, dict(zip(self.family.points, self.pins)), set(self.pins)
        if not image <= p.universe:
            present = sorted(x for x in b.universe if i[x] in p.universe)
            part = induced_substructure(b, set(present))
            part_map = {x: i[x] for x in present}
            if extension_by_rows(part, p.structure, part_map) is None:
                # i can never become an embedding; make the implication vacuous.
                for m in sorted(image - p.universe):
                    p = _add_point(p, m, rng)
                return p
            missing = {x: i[x] for x in b.universe if x not in present}
            p = _realize_over(p, part, b, part_map, missing, rng)
            if self.satisfied(p):
                return p
        return _realize_over(p, b, self.family.b_over, i, {}, rng)


def extension_requirement(i: dict[int, int], f: Embedding, tag: str) -> DenseRequirement:
    """The `ExtensionRequirement` over f with pins i, in a family over i's
    image, as a `DenseRequirement` of its name and methods.  A schedule
    takes the records themselves (`cli.extension_schedule`)."""
    family = ExtensionFamily(f, tag, i.values())
    if set(i) != set(f.source.universe):
        raise StructureError("i must be defined exactly on the small side")
    if len(set(i.values())) != len(i):
        raise StructureError("i must be injective")
    rec = ExtensionRequirement(family, tuple(i[x] for x in family.points))
    return DenseRequirement(rec.name, rec.satisfied, rec.extend)


def _step_line(idx: int, name: str, added: tuple[int, ...]) -> str:
    return f"step={idx} req={name} added={','.join(map(str, added))}"


@dataclass(frozen=True)
class GenericChain(Generic[C]):
    """A build's last condition and its log, a (step, requirement name, points added) row
    per step.  Each step extends the one before, so step j is `final` on the points added by j."""

    final: C
    log: tuple[tuple[int, str, tuple[int, ...]], ...]

    def log_lines(self) -> list[str]:
        return [_step_line(*row) for row in self.log]


def generic_steps(start: C, schedule: list[DenseRequirement[C]], steps: int | None = None, seed: int = 0,
                  order: Callable[[C, C], bool] | None = None) -> Iterator[tuple[int, str, tuple[int, ...], C]]:
    """Round-robin over the schedule from `start` in the forcing order `order`
    (as for `meet`), for at most `steps` steps (None: no limit), yielding
    (step, requirement name, points added, condition) for each step.

    One pass meets each requirement in turn.  If that pass grew the
    condition, the next pass is yielded without calling `meet`: it adds
    nothing and yields the final condition itself.  `meet` checks that each
    requirement holds on its result, and satisfaction is upward closed, so
    that pass could only return the condition it was given.  A pass that
    grew nothing ends the build, and so does an empty schedule.  Deterministic
    for a fixed (start, schedule, steps, seed).  At DEBUG, the `genstruct`
    logger gets each step's log line as the step is made."""
    size = len(schedule)
    debug = logger.isEnabledFor(logging.DEBUG)
    rng = Random(seed)
    current = start
    grew = False
    for idx in range(2 * size if steps is None else min(steps, 2 * size)):
        req = schedule[idx % size]
        added = ()
        if idx < size:
            new = meet(current, req, rng, order)
            if new is not current:
                added = tuple(sorted(new.universe - current.universe))
                grew = grew or new != current
            current = new
        elif not grew:
            return
        if debug:
            logger.debug("%s", _step_line(idx, req.name, added))
        yield idx, req.name, added, current


def generic_build(start: C, schedule: list[DenseRequirement[C]], steps: int | None = None,
                  seed: int = 0, order: Callable[[C, C], bool] | None = None) -> GenericChain[C]:
    """`generic_steps` run out, keeping its last condition (`start` if none) and its log rows."""
    final, log = start, []
    for idx, name, added, final in generic_steps(start, schedule, steps, seed, order):
        log.append((idx, name, added))
    return GenericChain(final, tuple(log))


# --- delta systems -----------------------------------------------------------


@dataclass(frozen=True)
class DeltaSystem:
    root: frozenset[int]
    members: tuple[int, ...]


def delta_system(family: list[frozenset[int] | set[int]]) -> DeltaSystem:
    """Greedy extraction of a sunflower-style subfamily.

    Every pair of selected sets intersects exactly in the root.  Candidate
    roots are tried by descending containment count, larger roots first on
    ties; within a root, sets are taken first come first served when their
    non-root parts stay pairwise disjoint.  A family of at least two sets
    gives at least two members (the intersection of two sets is a
    candidate root), and more than k!(p-1)^k distinct k-sets give at least
    p (Erdős and Rado, J. London Math. Soc. 35, 1960): each root's
    first-come selection is maximal, which is all their recursion needs.

    Only roots that can win are tried.  A root selecting two sets is their
    intersection, their petals being disjoint; a root selecting one set
    wins only in a family of one set, which is then the root.  So the
    candidates are the intersections of two distinct sets and the distinct
    sets themselves: for d distinct sets, O(d^2) candidates, each counted
    over the d sets with their multiplicities.  Ranking every subset of
    every set, 2^|s| per set, would pick the same root.
    """
    sets = [frozenset(s) for s in family]
    if not sets:
        raise StructureError("family must be nonempty")
    mult = Counter(sets)
    candidates = {s & t for s, t in combinations(mult, 2)}.union(mult)
    counts = {r: sum(k for s, k in mult.items() if r <= s) for r in candidates}
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


def delta_group(family: list[C], key: Callable[[C, frozenset[int]], object],
                keep: Callable[[C, frozenset[int]], bool] = lambda c, root: True) -> tuple[frozenset[int], list[C]]:
    """The Δ-system step of a Knaster argument, for conditions with a `universe`.

    `delta_system` of the universes gives a root and its members; of the
    members that `keep(c, root)` admits, the largest group with one
    `key(c, root)` is returned with the root, the first such group on ties
    and none when no member is kept.
    """
    ds = delta_system([c.universe for c in family])
    kept = [family[i] for i in ds.members if keep(family[i], ds.root)]
    keys = [key(c, ds.root) for c in kept]
    best = max(keys, key=keys.count, default=None)
    return ds.root, [c for c, k in zip(kept, keys) if k == best]


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
    mapping = {r: r for r in root}
    mapping[x] = y
    return extension_by_rows(induced_substructure(left, root | {x}), right, mapping) is not None


def crossing_amalgamation(
    p_s: Condition, p_t: Condition, root: frozenset[int] | set[int], spec: CrossingSpec
) -> Condition:
    """Common extension that crosses the designated points.

    Graphs: the edge {s,t} is added and {s_bar,t_bar} stays absent.
    Linear orders: the result satisfies s < t and t_bar < s_bar.  The class
    spec's `crossing` builds the body once the sides pass the checks here.
    """
    if p_s.tag != p_t.tag:
        raise TagMismatch(f"{p_s.tag} vs {p_t.tag}")
    tag = p_s.tag
    rules = class_spec(tag)
    if rules.crossing is None:
        raise StructureError("crossing amalgamation supports Graph and LinearOrder")
    root = frozenset(root)
    if not (root <= p_s.universe and root <= p_t.universe):
        raise RootDisagreement("root must sit inside both universes")
    if p_s.universe & p_t.universe != root:
        raise IsomorphismTypeMismatch("universes must meet exactly in the root")
    if induced_substructure(p_s.structure, root) != induced_substructure(p_t.structure, root):
        raise RootDisagreement("conditions disagree on the root")
    s, s_bar, t, t_bar = spec.s, spec.s_bar, spec.t, spec.t_bar
    if len({s, s_bar}) != 2 or len({t, t_bar}) != 2:
        raise IsomorphismTypeMismatch("designated points must be distinct")
    if not {s, s_bar} <= p_s.universe - root or not {t, t_bar} <= p_t.universe - root:
        raise IsomorphismTypeMismatch("designated points must be fresh on their side")
    if not _one_point_types_match(p_s.structure, p_t.structure, root, s, t):
        raise IsomorphismTypeMismatch("root+s and root+t are not isomorphic extensions")
    if rules.linear:
        if not _one_point_types_match(p_s.structure, p_t.structure, root, s_bar, t_bar):
            raise IsomorphismTypeMismatch("root+s_bar and root+t_bar are not isomorphic extensions")
        seq_s = chain_of(p_s.structure)
        seq_t = chain_of(p_t.structure)
        if seq_s.index(s) > seq_s.index(s_bar) or seq_t.index(t) > seq_t.index(t_bar):
            raise IsomorphismTypeMismatch("expected s below s_bar and t below t_bar")
    return Condition(tag, rules.crossing(p_s.structure, p_t.structure, root, s, s_bar, t, t_bar))


@dataclass(frozen=True)
class DenseVerdict:
    holds: bool
    failures: tuple[dict, ...] = ()


# The witnesses a strongly dense set needs for an ordered pair (s, t) with s < t
# and with s, t incomparable: each kind with the witness's relation to s and to t.
DENSE_WITNESSES = {"<": (("between", (">", "<")),),
                   "|": (("above_one_skew", (">", "|")), ("below_both", ("<", "<")), ("below_one_skew", ("<", "|")),
                         ("above_both", (">", ">")), ("skew_both", ("|", "|")))}


def strongly_dense_check(e_set: set[int] | frozenset[int], poset: FinStructure) -> DenseVerdict:
    """Is the set dense for every one- and two-point configuration of the
    poset, a `PartialOrder` member (NotInClass otherwise)?  Per ordered pair
    (s, t), one pass over the set without s and t collects how its members
    lie against s and t; each kind of `DENSE_WITNESSES` that none realizes is
    a failure.  A finite poset with any comparable pair has a covering pair,
    so nonempty instances can only pass vacuously or fail informatively."""
    e_set = frozenset(e_set)
    if not e_set <= poset.universe:
        raise ElementOutsideUniverse(sorted(e_set - poset.universe))
    if not membership("PartialOrder", poset):
        raise NotInClass("input not in class PartialOrder")
    rel = poset.rel("<")

    def cmp(x: int, y: int) -> str:
        return "<" if (x, y) in rel else ">" if (y, x) in rel else "|"

    failures: list[dict] = []
    elems = poset.sorted_universe()
    for s in elems:
        for t in elems:
            if s != t and (kinds := DENSE_WITNESSES.get(cmp(s, t))):
                seen = {(cmp(e, s), cmp(e, t)) for e in e_set - {s, t}}
                failures += ({"kind": kind, "pair": (s, t)} for kind, pattern in kinds if pattern not in seen)
    return DenseVerdict(not failures, tuple(failures))


def knaster_trim(conditions: list[Condition]) -> list[Condition]:
    """Extract a pairwise compatible subfamily of same-tag conditions.

    `delta_group` keeps the largest group of Δ-system members with one
    induced root structure; every pair of it is then certified compatible
    through common_extension.  Only meaningful for classes with strong
    amalgamation.
    """
    if not conditions:
        raise StructureError("need at least one condition")
    tag = conditions[0].tag
    if any(c.tag != tag for c in conditions):
        raise TagMismatch("mixed class tags")
    if not class_spec(tag).sap:
        raise SAPRequired(f"{tag} lacks strong amalgamation")
    _, group = delta_group(conditions, lambda c, root: used_rows(induced_substructure(c.structure, root)))
    for i, a in enumerate(group):
        for b in group[i + 1:]:
            if common_extension(a, b) is None:
                raise StructureError("trimmed family failed the compatibility certificate")
    return group
