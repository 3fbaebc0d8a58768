"""Finite relational structures, embeddings and canonical forms.

Universe elements are natural numbers.  A structure interprets every
relation symbol of its signature as a set of tuples over the universe.
All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import product
from types import MappingProxyType


class StructureError(Exception):
    """Base class for structure-level errors."""


class TupleOutOfUniverse(StructureError):
    pass


class UnknownSymbol(StructureError):
    pass


class SubsetNotContained(StructureError):
    pass


class SignatureMismatch(StructureError):
    pass


def field_state(self) -> dict:
    """Pickle state of a dataclass with cached views: its fields only, so
    the views are rebuilt on demand.  Use as `__getstate__ = field_state`."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities.  No constants or function symbols."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate symbol names in {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise StructureError(f"arity of {name} must be >= 1, got {arity}")

    # A cached lookup table, not a field: equality, hashing and pickling
    # ignore it.
    __getstate__ = field_state

    @cached_property
    def _arities(self) -> dict[str, int]:
        return dict(self.symbols)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)


GRAPH_SIG = Signature((("E", 2),))
ORDER_SIG = Signature((("<", 2),))


@dataclass(frozen=True)
class FinStructure:
    """A finite relational structure; doubles as a forcing condition body."""

    sig: Signature
    universe: frozenset[int]
    interp: tuple[tuple[str, frozenset[tuple[int, ...]]], ...]

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        for sym, tuples in self.interp:
            if sym == name:
                return tuples
        raise UnknownSymbol(name)

    def sorted_universe(self) -> list[int]:
        return sorted(self.universe)

    def __len__(self) -> int:
        return len(self.universe)

    # Derived views, computed on first use and kept on the instance. They
    # are not fields, so equality, hashing, repr, JSON and pickling ignore
    # them.
    __getstate__ = field_state

    @cached_property
    def verdicts(self) -> dict[str, bool]:
        """Class membership verdicts by class tag, filled in by
        `classes.membership` the first time it decides a tag."""
        return {}

    @cached_property
    def profiles(self) -> MappingProxyType:
        """Read-only map from each element to its profile: per symbol (in
        `interp` order) and per position, how many tuples have the element
        there.  Built in one pass over the tuples."""
        rows: dict[int, list] = {x: [] for x in self.universe}
        for name, tuples in self.interp:
            arity = self.sig.arity(name)
            counts = {x: [0] * arity for x in self.universe}
            for t in tuples:
                for i, y in enumerate(t):
                    counts[y][i] += 1
            for x, row in rows.items():
                row.append(tuple(counts[x]))
        return MappingProxyType({x: tuple(row) for x, row in rows.items()})

    @cached_property
    def chain(self) -> tuple[int, ...]:
        """The universe sorted by in-degree under `<`, ties in `universe`
        iteration order: a linear order's elements from least to greatest.
        Raises UnknownSymbol if the signature has no `<`."""
        indegree = Counter(t[1] for t in self.rel("<"))
        return tuple(sorted(self.universe, key=indegree.__getitem__))

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components of a graph (a symmetric `E`), ordered by
        least point.  Raises UnknownSymbol if the signature has no `E`."""
        adj: dict[int, list[int]] = {x: [] for x in self.universe}
        for x, y in self.rel("E"):
            adj[x].append(y)
        out: list[frozenset[int]] = []
        seen: set[int] = set()
        for start in sorted(self.universe):
            if start not in seen:
                comp, stack = {start}, [start]
                while stack:
                    for y in adj[stack.pop()]:
                        if y not in comp:
                            comp.add(y)
                            stack.append(y)
                out.append(frozenset(comp))
                seen |= comp
        return tuple(out)


def validate_structure(
    sig: Signature,
    universe: set[int] | frozenset[int],
    interp: dict[str, set[tuple[int, ...]]],
) -> FinStructure:
    """Build a FinStructure, checking every tuple against the universe.

    Symbols missing from `interp` get an empty interpretation; unknown
    keys raise UnknownSymbol.
    """
    universe = frozenset(universe)
    for x in universe:
        if not isinstance(x, int) or x < 0:
            raise StructureError(f"universe element {x!r} is not a natural number")
    known = set(sig.names())
    for key in interp:
        if key not in known:
            raise UnknownSymbol(key)
    rows = []
    for name, arity in sig.symbols:
        tuples = set()
        for t in interp.get(name, ()):
            t = tuple(t)
            if len(t) != arity:
                raise StructureError(f"tuple {t} has wrong arity for {name}")
            for x in t:
                if x not in universe:
                    raise TupleOutOfUniverse(f"{name}{t}: {x} not in universe")
            tuples.add(t)
        rows.append((name, frozenset(tuples)))
    return FinStructure(sig, universe, tuple(rows))


def empty_structure(sig: Signature) -> FinStructure:
    return validate_structure(sig, set(), {})


def induced_substructure(a: FinStructure, subset: set[int] | frozenset[int]) -> FinStructure:
    """Restrict `a` to `subset`, keeping exactly the tuples inside it."""
    subset = frozenset(subset)
    if not subset <= a.universe:
        raise SubsetNotContained(f"{sorted(subset - a.universe)} not in universe")
    rows = tuple(
        (name, frozenset(t for t in tuples if subset.issuperset(t)))
        for name, tuples in a.interp
    )
    return FinStructure(a.sig, subset, rows)


@dataclass(frozen=True)
class Embedding:
    """An injective map preserving and reflecting every relation."""

    source: FinStructure
    target: FinStructure
    mapping: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


def make_embedding(source: FinStructure, target: FinStructure, mapping: dict[int, int]) -> Embedding:
    """Validated embedding constructor."""
    if source.sig != target.sig:
        raise SignatureMismatch("source and target signatures differ")
    if set(mapping) != set(source.universe):
        raise StructureError("mapping domain must be the source universe")
    if len(set(mapping.values())) != len(mapping):
        raise StructureError("mapping is not injective")
    for y in mapping.values():
        if y not in target.universe:
            raise StructureError(f"image point {y} not in target universe")
    if not is_partial_embedding(source, target, mapping):
        raise StructureError("map does not preserve and reflect relations")
    return Embedding(source, target, tuple(sorted(mapping.items())))


def is_partial_embedding(a: FinStructure, b: FinStructure, partial: dict[int, int]) -> bool:
    """Does `partial` preserve and reflect every tuple of `a` that lies
    inside its domain?"""
    images: dict[int, list] = {}  # symbols of one arity share their tuples
    for name, tuples in a.interp:
        target_tuples = b.rel(name)
        arity = a.sig.arity(name)
        if arity not in images:
            images[arity] = _image_pairs(partial, arity)
        for t, mapped in images[arity]:
            if (t in tuples) != (mapped in target_tuples):
                return False
    return True


# The former private name, kept because perfbench/tracer.py wraps it.
_is_partial_embedding = is_partial_embedding


def _image_pairs(partial: dict[int, int], arity: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every tuple over the domain of `partial`, paired with its image."""
    items = partial.items()
    if arity == 2:
        return [((x, y), (u, v)) for x, u in items for y, v in items]
    out = [((), ())]
    for _ in range(arity):
        out = [(t + (x,), m + (u,)) for t, m in out for x, u in items]
    return out


def _search_maps(a: FinStructure, b: FinStructure, bijective: bool, partial: dict[int, int], limit: int | None):
    """Backtracking enumeration of embeddings a -> b, lexicographic in image order.

    `partial` pins prefixed images; pins that are not an injective map
    from a's universe into b's give no embedding.  `limit` stops after
    that many results.  A candidate image must match the element's
    profile (equal for an isomorphism, pointwise at least for an
    embedding), and each new pair is checked only against the tuples
    through it.
    Intended scale is at most a dozen elements per structure.
    """
    if a.sig != b.sig:
        raise SignatureMismatch("signatures differ")
    src = a.sorted_universe()
    tgt = b.sorted_universe()
    if bijective and len(src) != len(tgt):
        return []
    prof_a, prof_b = a.profiles, b.profiles
    results: list[Embedding] = []
    assignment = dict(partial)
    used = set(assignment.values())
    if len(used) != len(assignment) or not (
        a.universe.issuperset(assignment) and b.universe.issuperset(used)
    ):
        return []

    def candidates(x: int):
        pa = prof_a[x]
        for y in tgt:
            if y in used:
                continue
            pb = prof_b[y]
            if bijective and pa != pb:
                continue
            if not bijective and any(
                ca > cb for ta, tb in zip(pa, pb) for ca, cb in zip(ta, tb)
            ):
                continue
            yield y

    order = [x for x in src if x not in assignment]

    def extend(i: int) -> bool:
        if limit is not None and len(results) >= limit:
            return True
        if i == len(order):
            results.append(Embedding(a, b, tuple(sorted(assignment.items()))))
            return limit is not None and len(results) >= limit
        x = order[i]
        for y in candidates(x):
            assignment[x] = y
            if _consistent_with(a, b, assignment, x):
                used.add(y)
                stop = extend(i + 1)
                used.discard(y)
                if stop:
                    return True
            del assignment[x]
        return False

    # The pinned part must itself be consistent.
    for x in partial:
        if not _consistent_with(a, b, assignment, x):
            return []
    extend(0)
    return results


def _consistent_with(a: FinStructure, b: FinStructure, assignment: dict[int, int], x: int) -> bool:
    """Does `assignment` preserve and reflect every tuple of `a` that lies
    in its domain and passes through `x`?  Tuples missing `x` are taken
    as already checked."""
    y = assignment[x]
    for name, tuples in a.interp:
        target = b.rel(name)
        arity = a.sig.arity(name)
        if arity == 2:
            for z, w in assignment.items():
                if ((x, z) in tuples) != ((y, w) in target):
                    return False
                if ((z, x) in tuples) != ((w, y) in target):
                    return False
        else:
            for t in product(assignment, repeat=arity):
                if x in t and (t in tuples) != (tuple(assignment[z] for z in t) in target):
                    return False
    return True


def extends_isomorphism(m: FinStructure, phi: dict[int, int], x: int, y: int) -> bool:
    """Is `phi` plus x -> y a partial isomorphism of `m`?

    `phi` must already be one and `x` must lie outside its domain; then
    the extension fails only if `y` is already an image or a tuple
    through `x` is not preserved and reflected.
    """
    if y in phi.values():
        return False
    return _consistent_with(m, m, {**phi, x: y}, x)


def enumerate_embeddings(a: FinStructure, b: FinStructure) -> list[Embedding]:
    """All embeddings of `a` into `b`, lexicographically ordered by image."""
    return _search_maps(a, b, bijective=False, partial={}, limit=None)


def enumerate_embeddings_extending(
    a: FinStructure, b: FinStructure, partial: dict[int, int], limit: int | None = None
) -> list[Embedding]:
    """Embeddings of `a` into `b` whose restriction equals `partial`."""
    return _search_maps(a, b, bijective=False, partial=dict(partial), limit=limit)


def find_isomorphism(a: FinStructure, b: FinStructure) -> Embedding | None:
    """Lexicographically least isomorphism a -> b, or None."""
    found = _search_maps(a, b, bijective=True, partial={}, limit=1)
    return found[0] if found else None


def relabel(a: FinStructure, renaming: dict[int, int]) -> FinStructure:
    """Apply an injective renaming of the universe."""
    if set(renaming) != set(a.universe) or len(set(renaming.values())) != len(renaming):
        raise StructureError("renaming must be a bijection on the universe")
    rows = tuple(
        (name, frozenset(tuple(renaming[x] for x in t) for t in tuples))
        for name, tuples in a.interp
    )
    return FinStructure(a.sig, frozenset(renaming.values()), rows)


def relabel_disjoint(a: FinStructure, forbidden: set[int] | frozenset[int]) -> tuple[FinStructure, dict[int, int]]:
    """Isomorphic copy avoiding `forbidden`; keeps ids already clear.

    Fresh ids are the smallest naturals outside forbidden and the
    original universe.
    """
    forbidden = set(forbidden)
    renaming: dict[int, int] = {}
    used = set(a.universe) | forbidden
    next_fresh = 0
    for x in a.sorted_universe():
        if x not in forbidden:
            renaming[x] = x
        else:
            while next_fresh in used:
                next_fresh += 1
            renaming[x] = next_fresh
            used.add(next_fresh)
    return relabel(a, renaming), renaming


def canonical_key(a: FinStructure) -> tuple:
    """Isomorphism-invariant key: the least relabeling onto 0..n-1.

    The key is `(n, symbol names, rows)`, where `rows` holds, per symbol
    in `interp` order, the sorted tuple list of the relabeled structure,
    and the relabeling is the one whose rows are lexicographically least.
    `_least_order` finds that relabeling by branch and bound.
    """
    src = a.sorted_universe()
    index = {x: i for i, x in enumerate(src)}
    order = _least_order(len(src), [
        (a.sig.arity(name), [tuple(index[x] for x in t) for t in tuples])
        for name, tuples in a.interp
    ])
    label = {src[u]: i for i, u in enumerate(order)}
    rows = tuple(
        tuple(sorted(tuple(label[x] for x in t) for t in tuples))
        for _, tuples in a.interp
    )
    return (len(src), a.sig.names(), rows)


def _least_order(n: int, relations: list[tuple[int, list[tuple[int, ...]]]]) -> list[int]:
    """The points 0..n-1 in label order (label i goes to order[i]) for the
    least relabeling of `relations`, given as (arity, tuples) pairs.

    A relabeling keeps the tuple count of every relation, so comparing
    sorted tuple lists is the same as comparing presence bits over all
    label tuples in lex order, with "present" (0) below "absent" (1).
    Labels are given out in order, depth first.  A prefix gets a bound:
    a bit string no greater than that of any labeling extending it.  A
    child whose bound is not below the best complete string is cut.
    Children that an automorphism fixing the prefix maps onto each other
    have equal subtrees, so only the first is searched; automorphisms come
    from complete labelings that tie with the best.
    """
    rels = []
    for arity, tuples in relations:
        # A row is the run of label tuples that agree on all but the last place.
        succ: dict[tuple[int, ...], set[int]] = {}
        for t in tuples:
            succ.setdefault(t[:-1], set()).add(t[-1])
        rels.append((len(tuples), succ, list(product(range(n), repeat=arity - 1))))

    def bound(order: list[int]) -> list[int]:
        # A row whose prefix labels are all given: its bits at given labels
        # are known, and its other tuples at best take the next slots.  The
        # tuples of the remaining rows at best take their first slots.
        k = len(order)
        bits: list[int] = []
        for count, succ, prefixes in rels:
            rows: list[list[int] | None] = []
            spare = count
            for q in prefixes:
                if all(i < k for i in q):
                    s = succ.get(tuple(order[i] for i in q), ())
                    row = [0 if order[j] in s else 1 for j in range(k)]
                    rest = len(s) - row.count(0)
                    rows.append(row + [0] * rest + [1] * (n - k - rest))
                    spare -= len(s)
                else:
                    rows.append(None)
            for row in rows:
                if row is None:
                    zeros = min(spare, n)
                    spare -= zeros
                    row = [0] * zeros + [1] * (n - zeros)
                bits += row
        return bits

    best: list[int] | None = None
    best_order: list[int] = []
    autos: list[dict[int, int]] = []

    def search(order: list[int], free: set[int]) -> None:
        nonlocal best, best_order
        children = []
        for u in free:
            child = order + [u]
            if len(free) == 2:
                child += free - {u}  # the last label is forced
            children.append((bound(child), child))
        children.sort()
        tried: list[int] = []
        for bits, child in children:
            complete = len(child) == n
            if best is not None and (bits > best or (bits == best and not complete)):
                break
            u = child[len(order)]
            if tried and _in_orbit(u, tried, order, autos):
                continue
            tried.append(u)
            if not complete:
                search(child, free - {u})
            elif best is None or bits < best:
                best, best_order = bits, child
            else:
                autos.append(dict(zip(best_order, child)))

    search([], set(range(n)))
    return best_order


def _in_orbit(u: int, tried: list[int], fixed: list[int], autos: list[dict[int, int]]) -> bool:
    """Do the automorphisms in `autos` that fix every point of `fixed`
    generate a map taking u into `tried`?"""
    gens = [g for g in autos if all(g[x] == x for x in fixed)]
    orbit, frontier = {u}, [u]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return not orbit.isdisjoint(tried)


def compose(inner: Embedding, outer: Embedding) -> Embedding:
    """outer after inner, as an embedding."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise StructureError("embeddings do not compose")
    m_in, m_out = inner.as_dict(), outer.as_dict()
    return make_embedding(inner.source, outer.target, {x: m_out[y] for x, y in m_in.items()})


def inclusion_embedding(a: FinStructure, b: FinStructure) -> Embedding:
    """Identity-map embedding of `a` into `b`; fails if not induced."""
    if induced_substructure(b, a.universe) != a:
        raise StructureError("source is not an induced substructure of target")
    return make_embedding(a, b, {x: x for x in a.universe})


def fresh_ids(used: set[int] | frozenset[int], count: int) -> list[int]:
    """Smallest `count` naturals outside `used`."""
    out = []
    x = 0
    used = set(used)
    while len(out) < count:
        if x not in used:
            out.append(x)
            used.add(x)
        x += 1
    return out


# --- JSON wire format ------------------------------------------------------
#
# {"sig":[["E",2]],"universe":[0,1],"interp":{"E":[[0,1],[1,0]]}}
# Field order is fixed so equal structures serialize byte-identically.


def to_json_dict(a: FinStructure) -> dict:
    return {
        "sig": [[name, arity] for name, arity in a.sig.symbols],
        "universe": a.sorted_universe(),
        "interp": {name: sorted([list(t) for t in tuples]) for name, tuples in a.interp},
    }


def dumps(a: FinStructure) -> str:
    return json.dumps(to_json_dict(a), separators=(",", ":"))


def from_json_dict(data: dict) -> FinStructure:
    sig = Signature(tuple((name, arity) for name, arity in data["sig"]))
    interp = {name: {tuple(t) for t in tuples} for name, tuples in data.get("interp", {}).items()}
    return validate_structure(sig, set(data["universe"]), interp)
