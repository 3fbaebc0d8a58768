"""Finite relational structures, embeddings and canonical forms.

Universe elements are natural numbers.  A structure interprets every
relation symbol of its signature as a set of tuples over the universe.
All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import count as naturals, filterfalse, islice, product
from math import lcm


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


class _cached_view:
    """`functools.cached_property` without its lock: the first read stores
    the value in the instance `__dict__`, where later reads find it before
    this descriptor.  Two threads racing on a first read may both compute
    the view; the later store wins."""

    def __init__(self, fn) -> None:
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value

    def seed(self, obj, value) -> None:
        """Store `value` as the view of `obj`, for a caller that built it
        along with `obj`."""
        obj.__dict__[self.name] = value


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
            if type(arity) is not int or arity < 1:
                raise StructureError(f"arity of {name} must be an int >= 1, got {arity!r}")

    # A cached lookup table, not a field: equality, hashing and pickling
    # ignore it.
    __getstate__ = field_state

    @_cached_view
    def _arities(self) -> dict[str, int]:
        return dict(self.symbols)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)


@lru_cache(maxsize=1024)
def parse_metric_symbol(name: str):
    """The distance, a `Fraction`, that a metric space's symbol `d_<q>`
    names."""
    # Imported on first use: loading fractions while the package itself
    # is still being imported raised a fresh process's peak memory by
    # about 0.2 MB.
    from fractions import Fraction

    if not name.startswith("d_"):
        raise SignatureMismatch(f"not a distance symbol: {name}")
    return Fraction(name[2:])


GRAPH_SIG = Signature((("E", 2),))
ORDER_SIG = Signature((("<", 2),))


@dataclass(frozen=True)
class FinStructure:
    """A finite relational structure; doubles as a forcing condition body.

    Its derived views are computed on first use and kept on the instance.
    They are not fields, so equality, hashing, repr, JSON and pickling
    ignore them."""

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

    __getstate__ = field_state

    @_cached_view
    def verdicts(self) -> dict[str, bool]:
        """Class membership verdicts by class tag, filled in by `classes.membership`
        the first time it decides a tag, or seeded by `classes.chain_structure`."""
        return {}

    @_cached_view
    def bitsets(self) -> Bitsets:
        """Bitset view for embedding search into and from this structure."""
        return Bitsets(self)

    @_cached_view
    def chain(self) -> tuple[int, ...]:
        """The universe sorted by in-degree under `<`, ties in `universe`
        iteration order: a linear order's elements from least to greatest;
        `classes.chain_structure` seeds it.  Raises UnknownSymbol if the
        signature has no `<`."""
        indegree = Counter(t[1] for t in self.rel("<"))
        return tuple(sorted(self.universe, key=indegree.__getitem__))

    @_cached_view
    def distances(self) -> tuple[int, dict[tuple[int, int], int] | None]:
        """A metric space's distances as ints: (scale, dist), where scale is
        a common denominator of the distances its symbols name (the least,
        unless the view was seeded) and dist maps each pair to scale times
        its symbol's distance.  dist is None if a pair is a loop, lies in
        two symbols, or its reverse is not in its own symbol.  Raises
        SignatureMismatch on a symbol not named `d_<q>`."""
        qs = [parse_metric_symbol(name) for name, _ in self.interp]
        scale = lcm(*(q.denominator for q in qs))
        dist: dict[tuple[int, int], int] = {}
        for q, (_, tuples) in zip(qs, self.interp):
            d = q.numerator * (scale // q.denominator)
            for x, y in tuples:
                if x == y or (x, y) in dist or (y, x) not in tuples:
                    return scale, None
                dist[x, y] = d
        return scale, dist

    @_cached_view
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
    keys raise UnknownSymbol.  It runs at the boundaries: JSON input, the
    public constructors, the CLI and `classes.amalgamate`'s raw sides.
    A glue checks only the tuples it adds (`_glued`).
    """
    universe = _natural_universe(universe)
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


def _natural_universe(universe: set[int] | frozenset[int]) -> frozenset[int]:
    """`universe` as a frozenset, checked before hashing as `validate_structure` checks it."""
    for x in universe:
        if type(x) is not int or x < 0:
            raise StructureError(f"universe element {x!r} is not a natural number")
    return frozenset(universe)


def used_rows(a: FinStructure) -> frozenset:
    """`a`'s nonempty rows by symbol: equal on one universe up to empty symbols."""
    return frozenset((name, rows) for name, rows in a.interp if rows)


def _glued(sig: Signature, a: FinStructure, b: FinStructure, new: dict, rows: dict | None = None) -> FinStructure:
    """A glue of the validated a and b over `sig`: their points and rows (or `rows`,
    drawn from theirs) plus the `new` tuples by symbol, of which only the new are
    checked; on a fault `validate_structure` raises its own error for the whole."""
    universe, arity = a.universe | b.universe, sig._arities
    interp = {name: a.rel(name).union(b.rel(name), new.get(name, ())) if rows is None
              else frozenset(rows.get(name, ())).union(new.get(name, ())) for name in arity}
    for name, tuples in new.items():
        if name not in arity or {*map(len, tuples)} - {arity[name]} or not all(map(universe.issuperset, tuples)):
            validate_structure(sig, universe, {**new, **interp})
    return FinStructure(sig, universe, tuple(interp.items()))


def empty_structure(sig: Signature) -> FinStructure:
    return validate_structure(sig, set(), {})


def induced_substructure(a: FinStructure, subset: set[int] | frozenset[int]) -> FinStructure:
    """Restrict `a` to `subset`, keeping exactly the tuples inside it."""
    subset = frozenset(subset)
    if not subset <= a.universe:
        raise SubsetNotContained(f"{sorted(subset - a.universe)} not in universe")
    rows = tuple((name, frozenset(filter(subset.issuperset, tuples))) for name, tuples in a.interp)
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
    if source.sig is not target.sig and source.sig != target.sig:
        raise SignatureMismatch("source and target signatures differ")
    _check_points(source, target, mapping)
    if not is_partial_embedding(source, target, mapping):
        raise StructureError("map does not preserve and reflect relations")
    return Embedding(source, target, tuple(sorted(mapping.items())))


def _check_points(source: FinStructure, target: FinStructure, mapping: dict[int, int]) -> None:
    """An embedding's checks of its map after the signature test, in order."""
    if mapping.keys() != source.universe:
        raise StructureError("mapping domain must be the source universe")
    if len(set(mapping.values())) != len(mapping):
        raise StructureError("mapping is not injective")
    if not target.universe.issuperset(mapping.values()):
        y = next(y for y in mapping.values() if y not in target.universe)
        raise StructureError(f"image point {y} not in target universe")


def _paired(a: Signature, b: Signature) -> tuple[tuple[int, int], ...] | None:
    """How structures over `a` and `b` pair their rows: None for one signature,
    by position; for two metric ones (every symbol a binary `d_...`), by name
    over their union, each symbol with its index in `a` and `b` or, where a
    side lacks it (empty there), that side's symbol count; SignatureMismatch
    for any other pair."""
    return None if a is b or a == b else _union_indices(a, b)


@lru_cache(maxsize=1024)
def _union_indices(a: Signature, b: Signature) -> tuple[tuple[int, int], ...]:
    """`_paired` of two signatures that differ, kept per pair (a cache lookup
    hashes both signatures, which costs more than `_paired`'s own test)."""
    if not all(arity == 2 and name.startswith("d_") for sig in (a, b) for name, arity in sig.symbols):
        raise SignatureMismatch("source and target signatures differ")
    at, bt = ({name: k for k, name in enumerate(sig.names())} for sig in (a, b))
    return tuple((at.get(name, len(at)), bt.get(name, len(bt))) for name in {**at, **bt})


def _check_rows(target: FinStructure, left: FinStructure, source: FinStructure, mapping: dict[int, int],
                image: FinStructure) -> None:
    """`make_embedding`'s checks into `target`, raising its errors: of the
    validated `left` by the identity (whose map check is the signature and
    a subset test), then of `source` by `mapping`, given image =
    relabel(source, mapping), possibly over fewer symbols; signatures pair
    as in the search (`_paired`).  A side's rows lie inside its points, so
    they are target's tuples there when they are part of target's rows and
    no other tuple of target lies inside those points."""
    points, inside = left.universe, image.universe
    _paired(left.sig, target.sig)
    if not points <= target.universe:
        _check_points(left, target, {x: x for x in points})
    left_rows, image_rows = dict(left.interp), dict(image.interp)
    left_ok = image_ok = True
    for name, tuples in target.interp:
        row, image_row = left_rows.pop(name, frozenset()), image_rows.pop(name, frozenset())
        left_ok = left_ok and row <= tuples and not any(map(points.issuperset, tuples - row))
        image_ok = image_ok and image_row <= tuples and not any(map(inside.issuperset, tuples - image_row))
    if not left_ok or any(left_rows.values()):
        raise StructureError("map does not preserve and reflect relations")
    _paired(source.sig, target.sig)
    _check_points(source, target, mapping)
    if not image_ok or any(image_rows.values()):
        raise StructureError("map does not preserve and reflect relations")


def is_partial_embedding(a: FinStructure, b: FinStructure, partial: dict[int, int]) -> bool:
    """Does `partial` preserve and reflect every tuple of `a` inside its domain: is each
    tuple over the domain in `a` exactly when its image is in `b`?  This scan is also
    the search's check of symbols of arity 3 or more (`extension_witnesses`)."""
    for name, tuples in a.interp:
        target = b.rel(name)
        for t in product(partial, repeat=a.sig.arity(name)):
            if (t in tuples) != (tuple(map(partial.__getitem__, t)) in target):
                return False
    return True


# The former private name, kept because perfbench/tracer.py wraps it.
_is_partial_embedding = is_partial_embedding


class Bitsets:
    """A structure as bitsets for embedding search; bit j is `order[j]` (`index` inverts it).

    A relation is an n-by-n bit matrix in one int, bit i*n + k standing for
    (order[i], order[k]).  `rels` holds each binary symbol's matrix and its
    reverse's; `fixed` masks each unary symbol's points and each binary
    symbol's loops.  `links` pairs each distinct matrix of `rels` with
    itself, as the maps of the structure into itself compare them.
    Symbols of arity 3 or more (`high`) have no rows; `is_partial_embedding`
    checks them.  `placements` walks over the rows through `extension_witnesses`.
    """

    __slots__ = ("order", "index", "full", "rels", "links", "fixed", "high", "_colours")

    def __init__(self, m: FinStructure) -> None:
        self.order = tuple(sorted(m.universe))
        n = len(self.order)
        self.index = index = {x: j for j, x in enumerate(self.order)}
        self.full = (1 << n) - 1
        rels, fixed = [], []
        for name, tuples in m.interp:
            arity = m.sig.arity(name)
            if arity == 2:
                out = into = loops = 0
                for x, y in tuples:
                    i, k = index[x], index[y]
                    out |= 1 << i * n + k
                    into |= 1 << k * n + i
                    loops |= (i == k) << i
                rels += (out, out if into == out else into)  # a symmetric relation shares one int
                fixed.append(loops)
            elif arity == 1:
                fixed.append(sum(1 << index[x] for x, in tuples))
        self.rels, self.fixed, self._colours = tuple(rels), tuple(fixed), None
        self.links = tuple((r, r) for r in dict.fromkeys(rels))
        self.high = tuple(name for name, arity in m.sig.symbols if arity > 2)

    @property
    def colours(self) -> tuple[tuple[int, ...], ...]:
        """Per point in `order`, its bit in each `fixed` mask, then its row's count in
        each matrix of `rels`, built on first read: an isomorphism keeps every colour.
        On binary, loop-free symbols these are the per-position tuple counts."""
        if self._colours is None:
            n = len(self.order)
            columns = [[f >> j & 1 for j in range(n)] for f in self.fixed]
            columns += [[(r >> i * n & self.full).bit_count() for i in range(n)] for r in self.rels]
            self._colours = tuple(zip(*columns)) if columns else ((),) * n
        return self._colours


def extension_witnesses(a: FinStructure, b: FinStructure, phi: dict[int, int], x: int, paired=None) -> int:
    """The images y for which `phi` plus x -> y is a partial embedding of `a`
    into `b`, as a mask over `b.bitsets.order`; `phi` must be one, with `x`
    outside its domain, and `paired` is `_paired(a.sig, b.sig)`.  `is_partial_embedding`
    checks symbols of arity 3 or more, which have no rows, on each image the rows leave."""
    source, view = a.bitsets, b.bitsets
    index, n, m, mask = view.index, len(view.order), len(source.order), view.full
    i = source.index[x]
    if paired is None:
        fixed = zip(source.fixed, view.fixed)
        # Equal pairs, as for a symmetric relation and its reverse, constrain alike.
        rels = view.links if a is b else set(zip(source.rels, view.rels))
    else:  # by name; metric symbols are binary, and a missing one's rows are 0
        rows_a, rows_b = (*source.fixed, 0), (*view.fixed, 0)
        fixed = [(rows_a[s], rows_b[t]) for s, t in paired]
        rows_a, rows_b = (*source.rels, 0, 0), (*view.rels, 0, 0)
        rels = {(rows_a[2 * s + r], rows_b[2 * t + r]) for s, t in paired for r in (0, 1)}
    for mine, theirs in fixed:
        mask &= theirs if mine >> i & 1 else ~theirs
    for z, w in phi.items():
        # Row j: the images related to w as x is to z, per relation.
        pair, j = source.index[z] * m + i, index[w]
        for mine, theirs in rels:
            row = theirs >> j * n
            mask &= row if mine >> pair & 1 else ~row
        mask &= ~(1 << j)
    if view.high:
        return sum(1 << j for j, y in enumerate(view.order)
                   if mask >> j & 1 and is_partial_embedding(a, b, {**phi, x: y}))
    return mask


def _pinned(a: FinStructure, b: FinStructure, partial: dict[int, int]) -> dict[int, int] | None:
    """The pins of `partial` in point order, or None unless they are an
    injective partial embedding of `a` into `b`: each pin must lie in its
    `extension_witnesses` mask over the pins before it."""
    placed: dict[int, int] = {}
    paired, index = _paired(a.sig, b.sig), b.bitsets.index
    for x, y in sorted(partial.items()):
        if x not in a.universe or y not in index or not extension_witnesses(a, b, placed, x, paired) >> index[y] & 1:
            return None
        placed[x] = y
    return placed


def extension_by_rows(a: FinStructure, b: FinStructure, partial: dict[int, int]) -> bool | None:
    """Does `partial`, a map from points of `a` into `b`'s universe, extend to
    an embedding of `a` into `b`?  None if `partial` is not itself an
    injective partial embedding (`_pinned`); otherwise the first of the
    `placements` of the free points answers."""
    placed = _pinned(a, b, partial)
    if placed is None:
        return None
    return next(placements(a, b, placed, [x for x in a.bitsets.order if x not in placed]), None) is not None


def placements(a: FinStructure, b: FinStructure, placed: dict[int, int],
               free: list[int] | tuple[int, ...], within: list[int] | None = None):
    """Every completion of the partial embedding `placed` of `a` into `b` over
    the points `free`, each a new dict: `free[p]` tries the images in its
    `extension_witnesses` mask over the points before it, ANDed with
    `within[p]` if `within` is given (one mask over `b.bitsets.order` per
    free point), lowest first and depth first, so the completions come in
    lexicographic image order.  This walk is the only embedding search."""
    paired, limits = _paired(a.sig, b.sig), [-1] * len(free) if within is None else within

    def walk():
        done, order, masks = dict(placed), b.bitsets.order, []  # masks[p]: images free[p] has left
        while True:
            if len(masks) < len(free):
                masks.append(extension_witnesses(a, b, done, free[len(masks)], paired) & limits[len(masks)])
            else:
                yield dict(done)
            while masks and not masks[-1]:
                masks.pop()
                done.pop(free[len(masks)], None)
            if not masks:
                return
            low = masks[-1] & -masks[-1]
            masks[-1] ^= low
            done[free[len(masks) - 1]] = order[low.bit_length() - 1]

    return walk()


def _completions(a: FinStructure, b: FinStructure, placed: dict[int, int], limit: int | None,
                 within: list[int] | None = None) -> list[Embedding]:
    """The first `limit` (all if None) `placements` of `a`'s points outside
    `placed`, in order, as embeddings."""
    free = [x for x in a.bitsets.order if x not in placed]
    return [Embedding(a, b, tuple(sorted(done.items())))
            for done in islice(placements(a, b, placed, free, within), limit)]


def enumerate_embeddings(a: FinStructure, b: FinStructure) -> list[Embedding]:
    """All embeddings of `a` into `b`, lexicographically ordered by image."""
    return _completions(a, b, {}, None)


def enumerate_embeddings_extending(
    a: FinStructure, b: FinStructure, partial: dict[int, int], limit: int | None = None
) -> list[Embedding]:
    """Embeddings of `a` into `b` whose restriction equals `partial`, at
    most `limit` of them; none if `partial` is no partial embedding."""
    placed = _pinned(a, b, partial)
    if placed is None or limit is not None and limit < 1:
        return []
    return _completions(a, b, placed, limit)


def find_isomorphism(a: FinStructure, b: FinStructure) -> Embedding | None:
    """Lexicographically least isomorphism a -> b, or None.  Each point's
    images are limited to the points of `b` with the same `Bitsets` colour;
    colours are positional, so a and b must have one signature."""
    if a.sig is not b.sig and a.sig != b.sig:
        raise SignatureMismatch("signatures differ")
    if len(a) != len(b):
        return None
    classes: dict[tuple, int] = {}
    for j, colour in enumerate(b.bitsets.colours):
        classes[colour] = classes.get(colour, 0) | 1 << j
    found = _completions(a, b, {}, 1, [classes.get(colour, 0) for colour in a.bitsets.colours])
    return found[0] if found else None


def relabel(a: FinStructure, renaming: dict[int, int]) -> FinStructure:
    """Apply an injective renaming of the universe."""
    if set(renaming) != set(a.universe) or len(set(renaming.values())) != len(renaming):
        raise StructureError("renaming must be a bijection on the universe")
    rows = tuple(
        (name, frozenset(tuple(map(renaming.__getitem__, t)) for t in tuples))
        for name, tuples in a.interp
    )
    return FinStructure(a.sig, frozenset(renaming.values()), rows)


def relabel_disjoint(a: FinStructure, forbidden: set[int] | frozenset[int]) -> tuple[FinStructure, dict[int, int]]:
    """Isomorphic copy avoiding `forbidden`; keeps ids already clear.

    Fresh ids are the smallest naturals outside forbidden and the
    original universe.
    """
    clashes = [x for x in a.sorted_universe() if x in forbidden]
    moved = dict(zip(clashes, fresh_ids(a.universe | set(forbidden), len(clashes))))
    renaming = {x: moved.get(x, x) for x in a.sorted_universe()}
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
    Labels are given out in order, depth first (McKay, "Practical graph
    isomorphism", 1981).  A prefix gets a bound
    (`_bound`): a bit string no greater than that of any labeling extending
    it.  A child whose bound is not below the best complete string is cut.
    Children that an automorphism fixing the prefix maps onto each other
    have equal subtrees, so only the first is searched; automorphisms come
    from complete labelings that tie with the best.
    """
    rels = _label_rows(n, relations)
    best: int | None = None
    best_order: list[int] = []
    autos: list[dict[int, int]] = []

    def search(order: list[int], free: set[int]) -> None:
        nonlocal best, best_order
        children = []
        for u in free:
            child = order + [u]
            if len(free) == 2:
                child += free - {u}  # the last label is forced
            children.append((_bound(n, rels, child), child))
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


def _label_rows(n: int, relations: list[tuple[int, list[tuple[int, ...]]]]) -> list[tuple]:
    """Per relation: its tuple count, its rows' successor sets by prefix (a row
    is the run of label tuples that agree on all but the last place), and
    the row prefixes in lex order, each with its highest label (or 0)."""
    rels = []
    for arity, tuples in relations:
        succ: dict[tuple[int, ...], set[int]] = {}
        for t in tuples:
            succ.setdefault(t[:-1], set()).add(t[-1])
        rels.append((len(tuples), succ, [(max(q, default=0), q) for q in product(range(n), repeat=arity - 1)]))
    return rels


def _bound(n: int, rels: list[tuple], order: list[int]) -> int:
    """`_least_order`'s bound of a label prefix, one int of fixed width, first
    bit highest.  A row whose prefix labels are all given has known bits
    there, and its other tuples at best take the next slots; those of the
    other rows at best take their first slots (as a unary row does at k = 0)."""
    k = len(order)
    bits = 0
    for count, succ, prefixes in rels:
        rows, spare = [], count
        for top, q in prefixes:
            if top < k:
                s, known = succ.get(tuple(map(order.__getitem__, q)), ()), 0
                for x in order:
                    known = known << 1 | (x not in s)
                rows.append(known << n - k | (1 << n - len(s) - known.bit_count()) - 1)
                spare -= len(s)
            else:
                rows.append(None)
        for row in rows:
            if row is None:
                zeros = min(spare, n)
                spare -= zeros
                row = (1 << n - zeros) - 1
            bits = bits << n | row
    return bits


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


def inclusion_embedding(a: FinStructure, b: FinStructure) -> Embedding:
    """Identity-map embedding of `a` into `b`; fails if not induced, which is
    the whole embedding check for an identity map.  Signatures pair as in the
    search (`_paired`), and then the nonempty rows by symbol must agree."""
    _paired(a.sig, b.sig)
    if used_rows(induced_substructure(b, a.universe)) != used_rows(a):
        raise StructureError("source is not an induced substructure of target")
    return Embedding(a, b, tuple((x, x) for x in sorted(a.universe)))


def fresh_ids(used: set[int] | frozenset[int], count: int) -> list[int]:
    """Smallest `count` naturals outside `used`."""
    return list(islice(filterfalse(used.__contains__, naturals()), max(count, 0)))


# --- JSON wire format ------------------------------------------------------
#
# {"sig":[["E",2]],"universe":[0,1],"interp":{"E":[[0,1],[1,0]]}}
# Field order is fixed so equal structures serialize byte-identically.


def to_json_dict(a: FinStructure) -> dict:
    return {
        "sig": [[name, arity] for name, arity in a.sig.symbols],
        "universe": a.sorted_universe(),
        "interp": {name: list(map(list, sorted(tuples))) for name, tuples in a.interp},
    }


def dumps(a: FinStructure) -> str:
    return json.dumps(to_json_dict(a), separators=(",", ":"))


def from_json_dict(data: dict) -> FinStructure:
    """The structure a JSON object gives by its keys sig, universe and interp;
    other keys are ignored.  A missing key raises KeyError, and a value of
    the wrong JSON type (a symbol name not a string, an element not an int) StructureError."""
    if not isinstance(data, dict):
        raise StructureError(f"a structure is a JSON object, got {type(data).__name__}")
    sig, universe, interp = data["sig"], data["universe"], data["interp"]
    if not (isinstance(sig, list) and all(isinstance(s, list) and len(s) == 2 and type(s[0]) is str for s in sig)
            and isinstance(universe, list) and isinstance(interp, dict)):
        raise StructureError("sig must be a list of [name, arity] pairs, universe a list and interp an object")
    for name, tuples in interp.items():
        if not (isinstance(tuples, list) and all(type(t) is list for t in tuples)
                and all(type(x) is int for t in tuples for x in t)):
            raise StructureError(f"{name} must be a list of tuples, each a list of ints")
    interp = {name: {tuple(t) for t in tuples} for name, tuples in interp.items()}
    return validate_structure(Signature(tuple(map(tuple, sig))), universe, interp)
