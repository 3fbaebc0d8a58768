"""Finite linear orders carrying a strictly increasing, above-diagonal
partial automorphism, with the amalgamation and orbit machinery needed
to build a prefix whose map has a cofinal and coinitial orbit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from random import Random
from types import MappingProxyType

from genstruct.forcing import DenseRequirement, delta_group, generic_steps
from genstruct.structures import (
    StructureError,
    _cached_view,
    _natural_universe,
    field_state,
    fresh_ids,
    from_json_dict,
)
from genstruct.classes import chain_of, membership


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

    @_cached_view
    def universe(self) -> frozenset[int]:
        return frozenset(self.chain)

    @_cached_view
    def positions(self) -> MappingProxyType:
        """Read-only map from each element to its index in the chain."""
        return MappingProxyType({x: i for i, x in enumerate(self.chain)})

    @_cached_view
    def phi_map(self) -> MappingProxyType:
        """Read-only view of phi as a map."""
        return MappingProxyType(dict(self.phi))

    @_cached_view
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


def _walk(step: MappingProxyType, x: int) -> list[int]:
    """x and its images under the map `step`, in order, up to one end of x's orbit."""
    out = [x]
    while out[-1] in step:
        out.append(step[out[-1]])
    return out


def orbit_of(c: AutCondition, x: int) -> frozenset[int]:
    """The connected orbit of x: its walks along phi and along phi's inverse."""
    return frozenset(_walk(c.phi_map, x)).union(_walk(c.inv_map, x))


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
    points of the first side in different orbits.  The construction puts
    the first chain at the multiples of 3 and each twin point one step
    away, to the right for a's orbit and to the left elsewhere, which
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
    orbit_a = orbit_of(p1, a)
    if orbit_a == orbit_of(p1, b):
        raise SameOrbit(f"{a} and {b} lie in one orbit")
    key: dict[int, int] = {}
    for i, x in enumerate(p1.chain):
        key[x] = 3 * (i + 1)
        if x not in root:  # f restricts to the identity on the root
            key[h[x]] = key[x] + (1 if x in orbit_a else -1)
    merged = sorted(key, key=key.get)
    phi = dict(phi1)
    phi.update(phi2)
    return make_aut_condition(merged, phi)


# --- orbit extension machinery -------------------------------------------------


def _slot(n: int, lo: int, hi: int) -> int:
    """Insertion index of a fresh point strictly between chain indices
    lo < hi (either may lie just outside the chain of n elements).

    Tries k/(k+1) of the gap for k = 1, 2, ... (the midpoint first),
    skipping spots that land on an element; at most n+3 candidates are
    ever needed."""
    for k in range(1, n + 4):
        steps, rest = divmod((hi - lo) * k, k + 1)
        if rest or not 0 <= lo + steps < n:
            return min(n, max(0, lo + steps + (rest > 0)))
    raise StructureError("no admissible position found")


def _grow_forward(c: AutCondition, src: int) -> tuple[AutCondition, int]:
    """Define the map at src, placing a fresh image point consistently."""
    phi = c.phi_dict()
    if src in phi:
        return c, phi[src]
    pos = c.positions
    q = pos[src]
    lo = max([q] + [pos[y] for x, y in phi.items() if pos[x] < q])
    hi = min([pos[y] for x, y in phi.items() if pos[x] > q], default=lo + 2)
    new_id = fresh_ids(c.universe, 1)[0]
    phi[src] = new_id
    chain = list(c.chain)
    chain.insert(_slot(len(chain), lo, hi), new_id)
    return AutCondition(tuple(chain), tuple(sorted(phi.items()))), new_id


def _mirror(c: AutCondition) -> AutCondition:
    """c with its chain reversed and phi inverted, again a condition: images
    and preimages trade places."""
    return AutCondition(c.chain[::-1], tuple(sorted((y, x) for x, y in c.phi)))


def _grow_backward(c: AutCondition, tgt: int) -> tuple[AutCondition, int]:
    """Define the inverse at tgt, placing a fresh preimage point:
    `_grow_forward` in the mirror."""
    if tgt in c.inv_map:
        return c, c.inv_map[tgt]
    grown, new_id = _grow_forward(_mirror(c), tgt)
    return _mirror(grown), new_id


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

    Walks the existing orbit once to its two ends, then grows a fresh point
    past each end per step and carries the new ends.  Every forward step
    passes at least one existing element, so the steps are bounded by the
    starting size n: past 4n + 9 of them the extension has stalled.
    """
    for m in (alpha0, beta):
        p = _with_point(p, m, rng)
    top, bottom = _walk(p.phi_map, alpha0)[-1], _walk(p.inv_map, alpha0)[-1]
    for _ in range(4 * len(p.chain) + 9):
        if orbit_straddles(p, alpha0, beta):
            return p
        p, top = _grow_forward(p, top)
        p, bottom = _grow_backward(p, bottom)
    raise StructureError("orbit extension failed to make progress")


# --- dense requirements and the builder ----------------------------------------


def _with_point(p: AutCondition, m: int, rng: Random | None) -> AutCondition:
    """p with m in its chain: at a random slot given an rng, else last."""
    if m in p.universe:
        return p
    slot = rng.randrange(len(p.chain) + 1) if rng else len(p.chain)
    return AutCondition(p.chain[:slot] + (m,) + p.chain[slot:], p.phi)


def aut_point_requirement(m: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return m in p.universe

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        return _with_point(p, m, rng)

    return DenseRequirement(f"D_{m}", satisfied, extend)


def aut_between_requirement(a: int, b: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        pos = p.positions
        return a in pos and b in pos and abs(pos[a] - pos[b]) > 1

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        for m in (a, b):
            p = _with_point(p, m, rng)
        lo, hi = sorted((p.index(a), p.index(b)))
        if hi - lo > 1:
            return p
        mid = fresh_ids(p.universe, 1)[0]
        return AutCondition(p.chain[:lo + 1] + (mid,) + p.chain[lo + 1:], p.phi)

    return DenseRequirement(f"D_{a},{b}", satisfied, extend)


def aut_dom_requirement(m: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return m in p.universe and m in p.phi_map

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        return _grow_forward(_with_point(p, m, rng), m)[0]

    return DenseRequirement(f"dom_{m}", satisfied, extend)


def aut_range_requirement(m: int) -> DenseRequirement[AutCondition]:
    def satisfied(p: AutCondition) -> bool:
        return m in p.universe and m in p.inv_map

    def extend(p: AutCondition, rng: Random | None) -> AutCondition:
        return _grow_backward(_with_point(p, m, rng), m)[0]

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
    the first n ground elements with `forcing.generic_steps` (no step
    limit when steps is None); returns the final condition and a report
    line per requirement.

    A requirement's `met_at` is the first step after which it held, or -1.
    Satisfaction is upward closed along the build, so it is found by
    bisection over the distinct conditions of the build's steps, each
    kept with the first step that held it.  The seed matters only when
    alpha0 >= n: otherwise growth names each ground element before its
    point requirement, and the one random draw is on the empty chain.
    """
    if alpha0 < 0:
        raise StructureError("alpha0 must be nonnegative")
    schedule = default_aut_schedule(n, alpha0)
    start = empty_aut_condition()
    made, conds = [], []
    for idx, _, _, c in generic_steps(start, schedule, steps, seed, aut_stronger):
        if not conds or c is not conds[-1]:
            made.append(idx)
            conds.append(c)
    made.append(-1)  # met by no condition
    report = [f"req={req.name} met_at={made[bisect_left(conds, True, key=req.satisfied)]}" for req in schedule]
    return conds[-1] if conds else start, report


# --- trimming and serialization -------------------------------------------------


def equivariant_delta_trim(family: list[AutCondition]) -> tuple[frozenset[int], list[AutCondition]]:
    """`forcing.delta_group` over the members whose maps fix the root setwise
    in both directions, grouped by their chain and phi pairs on the root."""

    def closed(c: AutCondition, root: frozenset[int]) -> bool:
        phi, inv = c.phi_map, c.inv_map
        return all(phi[r] in root for r in root if r in phi) and all(inv[r] in root for r in root if r in inv)

    def key(c: AutCondition, root: frozenset[int]):
        return tuple(x for x in c.chain if x in root), tuple(sorted((x, y) for x, y in c.phi if x in root and y in root))

    return delta_group(family, key, closed)


def aut_to_json_dict(c: AutCondition) -> dict:
    """`to_json_dict` of the order on c's chain, its rows read off the chain, plus phi."""
    elems, pos = sorted(_natural_universe(set(c.chain))), c.positions
    rows = [[x, y] for x in elems for y in sorted(c.chain[pos[x] + 1:])]
    return {"sig": [["<", 2]], "universe": elems, "interp": {"<": rows}, "phi": [[x, y] for x, y in c.phi]}


def aut_from_json_dict(data: dict) -> AutCondition:
    """`from_json_dict` of a linear order plus phi, a list of [x, y] pairs
    of ints (none if the key is missing); an order that is not linear or
    phi of another JSON type raises StructureError."""
    order = from_json_dict(data)
    if not membership("LinearOrder", order):
        raise StructureError("< must be a linear order")
    phi = data.get("phi", [])
    if not (isinstance(phi, list) and all(type(t) is list and len(t) == 2 for t in phi)
            and all(type(x) is int for t in phi for x in t)):
        raise StructureError("phi must be a list of [x, y] pairs of ints")
    return make_aut_condition(chain_of(order), dict(phi))
