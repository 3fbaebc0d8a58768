"""Finite linear orders carrying a strictly increasing, above-diagonal
partial automorphism, with the amalgamation and orbit machinery needed
to build a prefix whose map has a cofinal and coinitial orbit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from types import MappingProxyType

from genstruct.forcing import DenseRequirement, delta_system, generic_build
from genstruct.structures import (
    StructureError,
    field_state,
    fresh_ids,
    from_json_dict,
    to_json_dict,
)
from genstruct.classes import chain_of, chain_structure


class SameOrbit(StructureError):
    pass


class NotIsomorphicExtensions(StructureError):
    pass


@dataclass(frozen=True)
class AutCondition:
    """A triple: finite universe, linear order (the chain), partial map.

    The chain lists the universe in increasing order; phi is a set of
    (source, image) pairs.  The universe, the positions and both maps are
    cached views, derived on first use; they are not fields, so equality,
    hashing, repr, JSON and pickling ignore them.
    """

    chain: tuple[int, ...]
    phi: tuple[tuple[int, int], ...]

    __getstate__ = field_state

    @cached_property
    def universe(self) -> frozenset[int]:
        return frozenset(self.chain)

    @cached_property
    def positions(self) -> MappingProxyType:
        """Read-only map from each element to its index in the chain."""
        return MappingProxyType({x: i for i, x in enumerate(self.chain)})

    @cached_property
    def phi_map(self) -> MappingProxyType:
        """Read-only view of phi as a map."""
        return MappingProxyType(dict(self.phi))

    @cached_property
    def inv_map(self) -> MappingProxyType:
        """Read-only view of the inverse of phi."""
        return MappingProxyType({y: x for x, y in self.phi})

    def phi_dict(self) -> dict[int, int]:
        """A fresh, mutable copy of `phi_map`."""
        return dict(self.phi_map)

    def inv_dict(self) -> dict[int, int]:
        """A fresh, mutable copy of `inv_map`."""
        return dict(self.inv_map)

    def index(self, x: int) -> int:
        try:
            return self.positions[x]
        except KeyError:
            raise ValueError(f"{x} is not in the chain") from None

    def before(self, x: int, y: int) -> bool:
        return self.index(x) < self.index(y)


def make_aut_condition(chain, phi) -> AutCondition:
    c = AutCondition(tuple(chain), tuple(sorted((x, y) for x, y in dict(phi).items())))
    verdict = validate_aut_condition(c)
    if not verdict.valid:
        raise StructureError(f"invalid condition: item {verdict.item}, {verdict.detail}")
    return c


def empty_aut_condition() -> AutCondition:
    return AutCondition((), ())


@dataclass(frozen=True)
class AutVerdict:
    valid: bool
    item: int | None = None
    detail: str = ""


def validate_aut_condition(c: AutCondition) -> AutVerdict:
    """Check the five poset items; the first violated item is reported.

    Items 4 and 5 bound images by the successor limit stage in the
    transfinite setting; over natural-number ids they hold vacuously and
    are documented here rather than checked.
    """
    universe, phi, pos = c.universe, c.phi_map, c.positions
    if len(universe) != len(c.chain):
        return AutVerdict(False, 1, "chain repeats an element")
    if len(phi) != len(c.phi):
        return AutVerdict(False, 2, "phi maps an element twice")
    if len(set(phi.values())) != len(phi):
        return AutVerdict(False, 2, "phi is not injective")
    for x, y in phi.items():
        if x not in universe or y not in universe:
            return AutVerdict(False, 2, f"phi pair ({x},{y}) leaves the universe")
    items = sorted(phi.items(), key=lambda p: pos[p[0]])
    for (x1, y1), (x2, y2) in zip(items, items[1:]):
        if pos[y1] >= pos[y2]:
            return AutVerdict(False, 2, f"phi not increasing on {x1},{x2}")
    for x, y in phi.items():
        if pos[x] >= pos[y]:
            return AutVerdict(False, 3, f"phi({x})={y} is not above the diagonal")
    return AutVerdict(True)


def aut_stronger(q: AutCondition, p: AutCondition) -> bool:
    """Does q extend p: order induced, phi pairs kept?"""
    if not p.universe <= q.universe:
        return False
    induced = tuple(x for x in q.chain if x in p.universe)
    return induced == p.chain and set(p.phi) <= set(q.phi)


def orbit_of(c: AutCondition, x: int) -> frozenset[int]:
    """The connected orbit of x under the partial map (both directions)."""
    phi, inv = c.phi_map, c.inv_map
    out = {x}
    cur = x
    while cur in phi:
        cur = phi[cur]
        out.add(cur)
    cur = x
    while cur in inv:
        cur = inv[cur]
        out.add(cur)
    return frozenset(out)


# --- amalgamation of isomorphic extensions ------------------------------------


def amalgamate_partial_automorphisms(
    p1: AutCondition,
    p2: AutCondition,
    root: frozenset[int] | set[int],
    h: dict[int, int],
    a: int,
    b: int,
) -> AutCondition:
    """Join two isomorphic extensions of a common root so that a crosses
    below its twin and b crosses above.

    h must be the order isomorphism between the two sides fixing the root
    pointwise and intertwining the partial maps; a and b must be non-root
    points of the first side in different orbits.  The construction embeds
    the first chain at integer positions and displaces each twin point by
    a third, to the right for a's orbit and to the left elsewhere, which
    keeps the union map order-preserving.
    """
    root = frozenset(root)
    u1, u2 = p1.universe, p2.universe
    if u1 & u2 != root or not root <= u1:
        raise NotIsomorphicExtensions("root must be exactly the shared universe")
    if set(h) != set(u1) or set(h.values()) != set(u2):
        raise NotIsomorphicExtensions("h must be a bijection between the sides")
    if any(h[r] != r for r in root):
        raise NotIsomorphicExtensions("h must fix the root pointwise")
    if tuple(h[x] for x in p1.chain) != p2.chain:
        raise NotIsomorphicExtensions("h does not preserve the orders")
    phi1, phi2 = p1.phi_map, p2.phi_map
    if {(h[x], h[y]) for x, y in phi1.items()} != set(p2.phi):
        raise NotIsomorphicExtensions("h does not intertwine the partial maps")
    for x, y in phi1.items():
        if (x in root) != (y in root):
            raise NotIsomorphicExtensions(
                "the partial map must keep the root closed both ways"
            )
    if a not in u1 - root or b not in u1 - root:
        raise NotIsomorphicExtensions("a and b must be non-root points of the first side")
    if orbit_of(p1, a) == orbit_of(p1, b):
        raise SameOrbit(f"{a} and {b} lie in one orbit")

    pos: dict[int, Fraction] = {x: Fraction(i + 1) for i, x in enumerate(p1.chain)}
    orbit_a = orbit_of(p1, a)
    third = Fraction(1, 3)
    key: dict[int, Fraction] = dict(pos)
    for x in p1.chain:
        twin = h[x]
        if x in root:
            continue  # f restricts to the identity on the root
        key[twin] = pos[x] + (third if x in orbit_a else -third)
    merged = sorted(set(p1.chain) | set(p2.chain), key=lambda z: key[z])
    phi = dict(phi1)
    phi.update(phi2)
    return make_aut_condition(merged, phi)


# --- orbit extension machinery -------------------------------------------------


def _positions(c: AutCondition) -> dict[int, Fraction]:
    # Even integer gaps leave room for exact rational insertions.
    return {x: Fraction(2 * (i + 1)) for i, x in enumerate(c.chain)}


def _pick_value(lo: Fraction, hi: Fraction, taken: set[Fraction], forward: bool) -> Fraction:
    """Canonical rational strictly inside (lo, hi) avoiding taken spots.

    Prefers the midpoint, then fractions escalating toward hi (forward)
    or lo (backward); at most len(taken)+2 candidates are ever needed."""
    attempts = len(taken) + 3
    for k in range(1, attempts + 1):
        f = Fraction(1, 2) if k == 1 else (
            Fraction(k, k + 1) if forward else Fraction(1, k + 1)
        )
        v = lo + (hi - lo) * f
        if v not in taken:
            return v
    raise StructureError("no admissible position found")


def _insert_at(c: AutCondition, new_id: int, value: Fraction, pos: dict[int, Fraction]) -> AutCondition:
    chain = list(c.chain)
    idx = sum(1 for x in chain if pos[x] < value)
    chain.insert(idx, new_id)
    return AutCondition(tuple(chain), c.phi)


def _grow_forward(c: AutCondition, src: int) -> tuple[AutCondition, int]:
    """Define the map at src, placing a fresh image point consistently."""
    phi = c.phi_dict()
    if src in phi:
        return c, phi[src]
    pos = _positions(c)
    anchors = sorted((pos[x], pos[y]) for x, y in phi.items())
    q = pos[src]
    lower = [y for x, y in anchors if x < q]
    upper = [y for x, y in anchors if x > q]
    lo = max([q] + lower)
    hi = upper[0] if upper else lo + 4
    value = _pick_value(lo, hi, set(pos.values()), forward=True)
    new_id = fresh_ids(c.universe, 1)[0]
    out = _insert_at(c, new_id, value, pos)
    phi[src] = new_id
    return AutCondition(out.chain, tuple(sorted(phi.items()))), new_id


def _grow_backward(c: AutCondition, tgt: int) -> tuple[AutCondition, int]:
    """Define the inverse at tgt, placing a fresh preimage point."""
    inv = c.inv_dict()
    if tgt in inv:
        return c, inv[tgt]
    phi = c.phi_dict()
    pos = _positions(c)
    anchors = sorted((pos[x], pos[y]) for x, y in phi.items())
    q = pos[tgt]
    lower = [x for x, y in anchors if y < q]
    upper = [x for x, y in anchors if y > q]
    hi = min([q] + upper)
    lo = lower[-1] if lower else hi - 4
    value = _pick_value(lo, hi, set(pos.values()), forward=False)
    new_id = fresh_ids(c.universe, 1)[0]
    out = _insert_at(c, new_id, value, pos)
    phi[new_id] = tgt
    return AutCondition(out.chain, tuple(sorted(phi.items()))), new_id


def orbit_straddles(c: AutCondition, alpha0: int, beta: int) -> bool:
    """Some power k has the k-th image above beta and the k-th preimage
    below it, all applications defined."""
    if alpha0 not in c.universe or beta not in c.universe:
        return False
    phi, inv, idx = c.phi_map, c.inv_map, c.positions
    fwd = bwd = alpha0
    while True:
        if idx[beta] < idx[fwd] and idx[bwd] < idx[beta]:
            return True
        if fwd not in phi or bwd not in inv:
            return False
        fwd, bwd = phi[fwd], inv[bwd]


def orbit_requirement_meet(p: AutCondition, alpha0: int, beta: int, rng: Random | None = None) -> AutCondition:
    """Extend p until the orbit of alpha0 passes beta on both sides.

    Walks the existing orbit first, then grows fresh points one rational
    position at a time; every forward step passes at least one existing
    element, so the loop is linear in the universe size.
    """
    for m in (alpha0, beta):
        if m not in p.universe:
            p = aut_point_requirement(m).extend(p, rng)
    guard = 0
    while not orbit_straddles(p, alpha0, beta):
        fwd = alpha0
        phi = p.phi_map
        while fwd in phi:
            fwd = phi[fwd]
        p, _ = _grow_forward(p, fwd)
        bwd = alpha0
        inv = p.inv_map
        while bwd in inv:
            bwd = inv[bwd]
        p, _ = _grow_backward(p, bwd)
        guard += 1
        if guard > 4 * len(p.chain) + 8:
            raise StructureError("orbit extension failed to make progress")
    return p


# --- dense requirements and the builder ----------------------------------------


def aut_point_requirement(m: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return m in p.universe

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        if m in p.universe:
            return p
        slot = rng.randrange(len(p.chain) + 1) if rng else len(p.chain)
        chain = list(p.chain)
        chain.insert(slot, m)
        return AutCondition(tuple(chain), p.phi)

    return DenseRequirement(f"D_{m}", satisfied, extend)


def aut_between_requirement(a: int, b: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        pos = p.positions
        return a in pos and b in pos and abs(pos[a] - pos[b]) > 1

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        for m in (a, b):
            if m not in p.universe:
                p = aut_point_requirement(m).extend(p, rng)
        lo, hi = sorted((p.index(a), p.index(b)))
        if hi - lo > 1:
            return p
        mid = fresh_ids(p.universe, 1)[0]
        chain = list(p.chain)
        chain.insert(lo + 1, mid)
        return AutCondition(tuple(chain), p.phi)

    return DenseRequirement(f"D_{a},{b}", satisfied, extend)


def aut_dom_requirement(m: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return m in p.universe and m in p.phi_map

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        if m not in p.universe:
            p = aut_point_requirement(m).extend(p, rng)
        p, _ = _grow_forward(p, m)
        return p

    return DenseRequirement(f"dom_{m}", satisfied, extend)


def aut_range_requirement(m: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return m in p.universe and m in p.inv_map

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        if m not in p.universe:
            p = aut_point_requirement(m).extend(p, rng)
        p, _ = _grow_backward(p, m)
        return p

    return DenseRequirement(f"rng_{m}", satisfied, extend)


def orbit_requirement(alpha0: int, beta: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return orbit_straddles(p, alpha0, beta)

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        return orbit_requirement_meet(p, alpha0, beta, rng)

    return DenseRequirement(f"E_{beta}", satisfied, extend)


def default_aut_schedule(n: int, alpha0: int = 0) -> list[DenseRequirement[AutCondition]]:
    reqs: list[DenseRequirement[AutCondition]] = []
    if n > 0 and alpha0 >= n:
        reqs.append(aut_point_requirement(alpha0))
    for m in range(n):
        reqs.append(aut_point_requirement(m))
        reqs.append(aut_dom_requirement(m))
        reqs.append(aut_range_requirement(m))
    for a in range(n):
        for b in range(a + 1, n):
            reqs.append(aut_between_requirement(a, b))
    for beta in range(n):
        reqs.append(orbit_requirement(alpha0, beta))
    return reqs


def build_automorphic_order(
    n: int, steps: int | None = None, seed: int = 0, alpha0: int = 0
) -> tuple[AutCondition, list[str]]:
    """Meet the membership, totality, density and orbit requirements for
    the first n ground elements with `forcing.generic_build` (default step
    budget when steps is None); returns the final condition and a report
    line per requirement.

    A requirement's `met_at` is the first step after which it held, or -1.
    Satisfaction is upward closed along the chain, so it is found by
    bisection over the conditions after each step.
    """
    if alpha0 < 0:
        raise StructureError("alpha0 must be nonnegative")
    schedule = default_aut_schedule(n, alpha0)
    chain = generic_build(empty_aut_condition(), schedule, steps, seed, aut_stronger)
    after = chain.steps[1:]
    report = []
    for req in schedule:
        met_at = bisect_left(after, True, key=req.satisfied)
        report.append(f"req={req.name} met_at={met_at if met_at < len(after) else -1}")
    return chain.final, report


# --- trimming and serialization -------------------------------------------------


def equivariant_delta_trim(family: list[AutCondition]) -> tuple[frozenset[int], list[AutCondition]]:
    """Sunflower extraction keeping only members whose maps fix the root
    setwise in both directions and agree on it."""
    if not family:
        raise StructureError("family must be nonempty")
    ds = delta_system([c.universe for c in family])
    root = ds.root
    picked = [family[i] for i in ds.members]
    closed = []
    for c in picked:
        phi, inv = c.phi_map, c.inv_map
        if all(phi[r] in root for r in root if r in phi) and all(
            inv[r] in root for r in root if r in inv
        ):
            closed.append(c)
    if not closed:
        return root, []

    def key(c: AutCondition):
        induced = tuple(x for x in c.chain if x in root)
        restricted = tuple(sorted((x, y) for x, y in c.phi if x in root and y in root))
        return (induced, restricted)

    tally = Counter(key(c) for c in closed)
    order = {key(c): i for i, c in reversed(list(enumerate(closed)))}
    best = max(tally, key=lambda k: (tally[k], -order[k]))
    return root, [c for c in closed if key(c) == best]


def aut_to_json_dict(c: AutCondition) -> dict:
    data = to_json_dict(chain_structure(list(c.chain)))
    data["phi"] = [[x, y] for x, y in c.phi]
    return data


def aut_from_json_dict(data: dict) -> AutCondition:
    order = from_json_dict({k: data[k] for k in ("sig", "universe", "interp")})
    return make_aut_condition(chain_of(order), {x: y for x, y in data.get("phi", [])})
