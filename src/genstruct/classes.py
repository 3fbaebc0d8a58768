"""Concrete amalgamation classes over finite structures.

Seven built-in classes, each one `ClassSpec` in `SPECS`: a membership
test, a gluing rule for strong amalgams, one-point extensions, seeded
point adjunction, a strong-amalgamation flag and, for graphs and linear
orders, the crossing construction.  Exhaustive desk-scale
verifiers check the hereditary, joint-embedding and (strong)
amalgamation properties.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product, starmap
from math import lcm
from operator import add, eq, itemgetter
from random import Random
from typing import Callable, Iterator, Sequence

from genstruct.structures import (
    Embedding,
    FinStructure,
    GRAPH_SIG,
    ORDER_SIG,
    Signature,
    SignatureMismatch,
    StructureError,
    _check_rows,
    _glued,
    _natural_universe,
    canonical_key,
    empty_structure,
    find_isomorphism,
    fresh_ids,
    induced_substructure,
    parse_metric_symbol,
    placements,
    relabel,
    validate_structure,
)

# Distances used when enumerating rational metric spaces; the class has
# countably many isomorphism types per size, so enumeration needs a finite
# palette.  1+1 < 3 makes the triangle inequality actually prune.
METRIC_PALETTE = (Fraction(1), Fraction(2), Fraction(3))


class NotInClass(StructureError):
    pass


class AmalgamationImpossible(StructureError):
    pass


class ScaleExceeded(StructureError):
    pass


def metric_symbol(q: Fraction) -> str:
    q = Fraction(q)
    return f"d_{q.numerator}" if q.denominator == 1 else f"d_{q.numerator}/{q.denominator}"


@lru_cache(maxsize=1024)
def _check_distance_symbol(name: str, arity: int) -> None:
    """Raise unless `name` is a binary symbol of a positive distance."""
    q = parse_metric_symbol(name)
    if arity != 2 or q <= 0:
        raise SignatureMismatch(f"bad distance symbol {name}")


def metric_structure(universe: set[int], dist: dict[frozenset[int], Fraction]) -> FinStructure:
    """Build a rational metric space from an unordered-pair distance map."""
    pairs: dict[Fraction, set[tuple[int, int]]] = {}
    for pair, q in dist.items():
        a, b = sorted(pair)
        pairs.setdefault(q, set()).update({(a, b), (b, a)})
    interp = {metric_symbol(q): pairs[q] for q in sorted(pairs)}
    sig = Signature(tuple((name, 2) for name in interp))
    return validate_structure(sig, universe, interp)


def metric_distances(a: FinStructure) -> dict[frozenset[int], Fraction]:
    dist: dict[frozenset[int], Fraction] = {}
    for name, tuples in a.interp:
        q = parse_metric_symbol(name)
        for t in tuples:
            dist[frozenset(t)] = q
    return dist


@dataclass(frozen=True)
class ClassSpec:
    """Everything that depends on the class tag.

    `glue(a, b, rng=None)` is the strong amalgam of two members that
    agree on their shared ids: it keeps every id and decides the relations
    between the a-only and the b-only points, drawn with rng where they are
    free (`_pair_glue`), or raises AmalgamationImpossible, naming why no
    strong amalgam exists.  `extensions(a, new)` yields the one-point
    extensions enumeration tries, in a fixed order; it may yield
    non-members, which `membership` drops, and the first member of each
    isomorphism type is kept.  `add_point(a, m, rng)` adjoins m with
    canonical relations, or seeded ones when rng is given; four classes
    glue a with the point m (`_adjoin_by_glue`).

    Without `sap` (only LinearGraph) amalgams may identify points,
    property checks use the connected members and builds meet
    connectivity requirements.  `linear` marks linear orders: betweenness
    requirements, chain drawing, barred-point crossing checks.
    `crossing(left, right, root, s, s_bar, t, t_bar)`, when set, builds
    the body of a crossing amalgamation of two checked sides.  Every
    decision about a class reads these fields.
    """

    sig: Signature | None  # None: a metric space's symbols are its distances
    member: Callable[[FinStructure], bool]
    glue: Callable[[FinStructure, FinStructure, Random | None], FinStructure]
    extensions: Callable[[FinStructure, int], Iterator[FinStructure]]
    add_point: Callable[[FinStructure, int, Random | None], FinStructure]
    sap: bool
    symmetric: bool  # one undirected edge per related pair
    linear: bool = False
    crossing: Callable[..., FinStructure] | None = None


# --- graphs, digraphs, tournaments and linear graphs ------------------------


def _degrees(a: FinStructure) -> dict[int, int]:
    """Each point's degree in a symmetric, irreflexive `E`: the arcs it starts."""
    deg = Counter(x for x, _ in a.rel("E"))
    return {x: deg[x] for x in a.universe}


def _is_connected_graph(a: FinStructure) -> bool:
    return len(a.components) <= 1


def _is_forest(a: FinStructure) -> bool:
    # Acyclic exactly when each component has one edge (two arcs of `E`) fewer than points.
    return len(a.rel("E")) // 2 == len(a) - len(a.components)


def _is_symmetric_irreflexive(a: FinStructure) -> bool:
    rel = a.rel("E")
    return all(t[0] != t[1] and (t[1], t[0]) in rel for t in rel)


def _is_digraph(a: FinStructure) -> bool:
    return not any(starmap(eq, a.rel("E")))


def _is_tournament(a: FinStructure) -> bool:
    # n(n-1)/2 arcs, none whose reverse is an arc (a loop is its own): one per pair.
    rel, n = a.rel("E"), len(a.universe)
    return len(rel) == n * (n - 1) // 2 and rel.isdisjoint([(y, x) for x, y in rel])


def _is_linear_graph(a: FinStructure) -> bool:
    """Hereditary closure of the path graphs: disjoint unions of simple
    paths (acyclic, every degree at most 2)."""
    return _is_symmetric_irreflexive(a) and max(_degrees(a).values(), default=0) <= 2 and _is_forest(a)


def _glue_paths(a: FinStructure, b: FinStructure, rng: Random | None = None) -> FinStructure:
    """The free union, which no strong amalgam of linear graphs can avoid:
    AmalgamationImpossible names its lowest vertex of degree over 2, else
    a cycle in it."""
    union = _glued(GRAPH_SIG, a, b, {})
    deg = _degrees(union)
    overloaded = [x for x in sorted(deg) if deg[x] > 2]
    if overloaded:
        raise AmalgamationImpossible(f"vertex {overloaded[0]} gets degree {deg[overloaded[0]]} in any strong amalgam")
    if not _is_forest(union):
        raise AmalgamationImpossible("the union over the base contains a cycle")
    return union


def _subsets(xs: list[int]):
    for k in range(len(xs) + 1):
        yield from combinations(xs, k)


def _graph_extensions(a: FinStructure, new: int):
    old = a.sorted_universe()
    for nbrs in _subsets(old):
        rel = set(a.rel("E"))
        rel.update({(x, new) for x in nbrs} | {(new, x) for x in nbrs})
        yield validate_structure(GRAPH_SIG, set(old) | {new}, {"E": rel})


def _digraph_arcs(x: int, n: int, c: int) -> set[tuple[int, int]]:
    """Arcs between x and n for choice c: 0 none, 1 x->n, 2 n->x, 3 both."""
    return {t for t, bit in (((x, n), 1), ((n, x), 2)) if c & bit}


def _arc_extensions(choices):
    """`extensions` giving the new point one `_digraph_arcs` choice per
    old point, over every combination of `choices` in product order."""

    def extensions(a: FinStructure, new: int):
        old = a.sorted_universe()
        for pattern in product(choices, repeat=len(old)):
            rel = set(a.rel("E"))
            for x, c in zip(old, pattern):
                rel |= _digraph_arcs(x, new, c)
            yield validate_structure(GRAPH_SIG, set(old) | {new}, {"E": rel})

    return extensions


def _cross_graphs(left: FinStructure, right: FinStructure, root: frozenset[int],
                  s: int, s_bar: int, t: int, t_bar: int) -> FinStructure:
    """The free union of the two sides plus the edge {s,t}; {s_bar,t_bar} stays absent."""
    return _glued(GRAPH_SIG, left, right, {"E": {(s, t), (t, s)}})


def _pair_glue(cross):
    """The glue of a class whose pairs between a-only and b-only points are
    free: both sides' arcs plus those that the class's pair rule
    `cross(olds, news, rng)` gives between every a-only (old) and every
    b-only (new) point.  With rng a rule draws them one pair at a time, new
    points outer and old points inner, both ascending; without, it gives
    the canonical set."""

    def glue(a: FinStructure, b: FinStructure, rng: Random | None = None) -> FinStructure:
        new = cross(a.universe - b.universe, b.universe - a.universe, rng)
        return _glued(GRAPH_SIG, a, b, {"E": new} if new else {})  # {}: `_glued` checks nothing

    return glue


def _graph_cross(olds: frozenset[int], news: frozenset[int], rng: Random | None) -> set[tuple[int, int]]:
    """An edge with chance 1/2; canonically none."""
    if rng is None:
        return set()
    return {t for n, x in product(sorted(news), sorted(olds)) if rng.random() < 0.5 for t in ((x, n), (n, x))}


def _digraph_cross(olds: frozenset[int], news: frozenset[int], rng: Random | None) -> set[tuple[int, int]]:
    """One of the four `_digraph_arcs` choices, uniformly; canonically none."""
    if rng is None:
        return set()
    return {t for n, x in product(sorted(news), sorted(olds)) for t in _digraph_arcs(x, n, rng.randrange(4))}


def _tournament_cross(olds: frozenset[int], news: frozenset[int], rng: Random | None) -> set[tuple[int, int]]:
    """Either arc with chance 1/2; canonically every old -> new arc."""
    if rng is None:
        return set(product(olds, news))
    return {(n, x) if rng.random() < 0.5 else (x, n) for n, x in product(sorted(news), sorted(olds))}


def _adjoin_to_path_end(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    """Seeded: attach m to one path endpoint, or to nothing."""
    rel = set(a.rel("E"))
    if rng:
        deg = _degrees(a)
        ends = [x for x in a.sorted_universe() if deg[x] <= 1]
        pick = rng.randrange(len(ends) + 1)
        if pick < len(ends):
            rel.update({(ends[pick], m), (m, ends[pick])})
    return validate_structure(GRAPH_SIG, a.universe | {m}, {"E": rel})


# --- orders -----------------------------------------------------------------


def _is_transitive(rel: frozenset[tuple[int, ...]]) -> bool:
    index: dict[int, set[int]] = {}
    for x, y in rel:
        index.setdefault(x, set()).add(y)
    return all((x, z) in rel for x, y in rel for z in index.get(y, ()))


def _is_partial_order(a: FinStructure) -> bool:
    rel = a.rel("<")
    if any(t[0] == t[1] or (t[1], t[0]) in rel for t in rel):
        return False
    return _is_transitive(rel)


def _is_linear_order(a: FinStructure) -> bool:
    # A linear order is the strict order of its in-degree chain.
    return a.rel("<") == frozenset(combinations(a.chain, 2))


def chain_of(a: FinStructure) -> list[int]:
    """A linear order's universe from least to greatest: a copy of `a.chain`."""
    return list(a.chain)


def chain_structure(seq: Sequence[int]) -> FinStructure:
    """`seq` read as x < y when x comes first.  Its pairs are drawn from its points, so only
    the points are checked; a repeat-free seq seeds its `chain` and its LinearOrder verdict."""
    a = FinStructure(ORDER_SIG, _natural_universe(set(seq)), (("<", frozenset(combinations(seq, 2))),))
    if len(a.universe) == len(seq):
        FinStructure.chain.seed(a, tuple(seq))
        a.verdicts["LinearOrder"] = True
    return a


def merge_linear_orders(seq1: list[int], seq2: list[int], shared: set[int]) -> list[int]:
    """Merge two chains agreeing on `shared` into one chain.

    Cross pairs separated by a shared element follow the separator rule:
    x from side 1 precedes y from side 2 exactly when some shared r has
    x < r in side 1 and r < y in side 2.  Unseparated cross pairs put the
    side-2 element first.  So each point sorts by the shared points below
    it, then side 2 before side 1 before the shared point, then (the sort
    is stable) its place in its own chain.
    """
    r1 = [x for x in seq1 if x in shared]
    r2 = [x for x in seq2 if x in shared]
    if r1 != r2:
        raise StructureError("orders disagree on the shared part")
    if (set(seq1) & set(seq2)) - set(shared):
        raise StructureError("sides overlap outside the shared part")
    keyed = [((below, 2), r) for below, r in enumerate(r1)]
    for side, seq in ((1, seq1), (0, seq2)):
        below = 0
        for x in seq:
            if x in shared:
                below += 1
            else:
                keyed.append(((below, side), x))
    keyed.sort(key=itemgetter(0))
    return [x for _, x in keyed]


def _glue_chains(a: FinStructure, b: FinStructure, rng: Random | None = None) -> FinStructure:
    """Separator-rule merge of the two chains."""
    return chain_structure(merge_linear_orders(chain_of(a), chain_of(b), a.universe & b.universe))


def _cross_chains(left: FinStructure, right: FinStructure, root: frozenset[int],
                  s: int, s_bar: int, t: int, t_bar: int) -> FinStructure:
    """s < t and t_bar < s_bar: the root plus s < t < t_bar < s_bar, merged
    with each side by the separator rule."""
    seq_s, seq_t = chain_of(left), chain_of(right)
    mid = []
    for x in seq_s:
        if x in root or x in (s, s_bar):
            if x == s_bar:
                mid.append(t_bar)
            mid.append(x)
            if x == s:
                mid.append(t)
    step1 = merge_linear_orders(seq_s, mid, set(root) | {s, s_bar})
    return chain_structure(merge_linear_orders(step1, seq_t, set(root) | {t, t_bar}))


def _glue_posets(a: FinStructure, b: FinStructure, rng: Random | None = None) -> FinStructure:
    """The strong amalgam of two posets (Schmerl, Algebra Universalis 9,
    1979): a point of one side lies below a point of the other only through
    a shared point, x < r < y.  Over a base both sides induce alike this is
    the transitive closure of the union, which adds no pair inside a side;
    sides that disagree there fail in `glue_and_check`."""
    shared = a.universe & b.universe
    cross: set[tuple[int, int]] = set()
    for lower, upper in ((a, b), (b, a)):
        below: dict[int, list[int]] = {}
        for x, r in lower.rel("<"):
            if r in shared and x not in shared:
                below.setdefault(r, []).append(x)
        for r, y in upper.rel("<"):
            if r in below and y not in shared:
                cross.update((x, y) for x in below[r])
    return _glued(ORDER_SIG, a, b, {"<": cross})


def _chain_extensions(a: FinStructure, new: int):
    seq = chain_of(a)
    for k in range(len(seq) + 1):
        yield chain_structure(seq[:k] + [new] + seq[k:])


def _poset_extensions(a: FinStructure, new: int):
    """Every choice of points below and, from the rest, above the new one;
    the choices that break transitivity are not members."""
    old = a.sorted_universe()
    for down in _subsets(old):
        for up in _subsets([x for x in old if x not in down]):
            new_rel = set(a.rel("<"))
            new_rel.update((d, new) for d in down)
            new_rel.update((new, u) for u in up)
            yield validate_structure(ORDER_SIG, set(old) | {new}, {"<": new_rel})


def _adjoin_to_chain(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    """Insert m at the top, or at a seeded slot."""
    seq = chain_of(a)
    slot = rng.randrange(len(seq) + 1) if rng else len(seq)
    return chain_structure(seq[:slot] + [m] + seq[slot:])


# --- rational metric spaces -------------------------------------------------


def _is_metric(a: FinStructure) -> bool:
    """Each pair of distinct points has one distance, the same both ways
    (`a.distances` is not None and leaves no pair out), and the triangle
    inequality holds on those integer distances.  The triangles on a pair
    (x, z) are one `min` over two rows; its y = x and y = z terms equal
    d(x, z)."""
    dist = a.distances[1]
    n = len(a.universe)
    if dist is None or len(dist) != n * (n - 1):
        return False
    index = {x: i for i, x in enumerate(a.universe)}
    rows = [[0] * n for _ in range(n)]
    for (x, y), d in dist.items():
        rows[index[x]][index[y]] = d
    return all(
        min(map(add, row_x, rows[j])) >= row_x[j]
        for i, row_x in enumerate(rows) for j in range(i + 1, n)
    )


def _glue_metrics(a: FinStructure, b: FinStructure, rng: Random | None = None) -> FinStructure:
    """Shortest-path gluing over the shared points, on both sides'
    `distances` scaled to ints by their common denominator.

    Cross distances are the minimum over shared points of the two-leg
    sums; with nothing shared both sides sit at a constant cross distance
    no smaller than either diameter.  A pair in both sides takes b's
    distance.  Each distance present gets its canonical name; the sides'
    symbols stay too, as `align` pads the result.  Its `distances` are the
    glued ones; of its tuples only the cross pairs are new.
    """
    scale = lcm(a.distances[0], b.distances[0])
    dist: dict[tuple[int, ...], int] = {}
    for side_scale, side in (a.distances, b.distances):
        k = scale // side_scale
        dist.update(side if k == 1 else {t: d * k for t, d in side.items()})
    base = a.universe & b.universe
    diam = max([scale, *dist.values()])
    old, new = {}, {}  # the sides' pairs and the cross pairs, by distance
    for t, d in dist.items():
        old.setdefault(d, set()).add(t)
    for x in a.universe - b.universe:
        for y in b.universe - a.universe:
            d = min(dist[x, r] + dist[r, y] for r in base) if base else diam
            dist[x, y] = dist[y, x] = d
            new.setdefault(d, set()).update(((x, y), (y, x)))
    names, sig = _glue_signature(a.sig, b.sig, scale, tuple(sorted(old.keys() | new.keys())))
    out = _glued(sig, a, b, {names[d]: ts for d, ts in new.items()}, {names[d]: ts for d, ts in old.items()})
    FinStructure.distances.seed(out, (scale, dist))
    return out


@lru_cache(maxsize=1024)
def _glue_signature(a: Signature, b: Signature, scale: int, ds: tuple[int, ...]) -> tuple[dict, Signature]:
    """The canonical names of the distances d / scale, d in ds, joined with a's and b's symbols."""
    names = {d: metric_symbol(Fraction(d, scale)) for d in ds}
    return names, _sorted_union((a, b, Signature(tuple((name, 2) for name in names.values()))))


def _metric_extensions(a: FinStructure, new: int):
    old = a.sorted_universe()
    dist = metric_distances(a)
    for pattern in product(METRIC_PALETTE, repeat=len(old)):
        yield metric_structure(set(old) | {new}, {**dist, **{frozenset((x, new)): q for x, q in zip(old, pattern)}})


def _adjoin_far(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    """m sits at the largest distance present (at least 1) from every point."""
    dist = metric_distances(a)
    c = max([*dist.values(), 1])
    dist.update({frozenset((x, m)): c for x in a.universe})
    return metric_structure(a.universe | {m}, dist)


# --- the registry -----------------------------------------------------------


def _adjoin_by_glue(glue):
    """add_point as the glue of a with the one point m."""

    def add_point(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
        return glue(a, validate_structure(a.sig, {m}, {}), rng)

    return add_point


def _pair_spec(member, extensions, cross, symmetric: bool, **flags) -> ClassSpec:
    """The spec of a graph-like class whose free pairs follow the pair rule `cross`."""
    glue = _pair_glue(cross)
    return ClassSpec(GRAPH_SIG, member, glue, extensions, _adjoin_by_glue(glue), sap=True, symmetric=symmetric, **flags)


# Strong amalgamation holds for every built-in class except LinearGraph,
# where gluing two length-2 arms at a shared vertex forces degree 4.
SPECS: dict[str, ClassSpec] = {
    "Graph": _pair_spec(_is_symmetric_irreflexive, _graph_extensions, _graph_cross, True, crossing=_cross_graphs),
    "Digraph": _pair_spec(_is_digraph, _arc_extensions(range(4)), _digraph_cross, False),
    "Tournament": _pair_spec(_is_tournament, _arc_extensions((2, 1)), _tournament_cross, False),
    "LinearOrder": ClassSpec(ORDER_SIG, _is_linear_order, _glue_chains, _chain_extensions, _adjoin_to_chain,
                             sap=True, symmetric=False, linear=True, crossing=_cross_chains),
    "PartialOrder": ClassSpec(ORDER_SIG, _is_partial_order, _glue_posets, _poset_extensions,
                              _adjoin_by_glue(_glue_posets), sap=True, symmetric=False),
    "RationalMetric": ClassSpec(None, _is_metric, _glue_metrics, _metric_extensions, _adjoin_far,
                                sap=True, symmetric=True),
    "LinearGraph": ClassSpec(GRAPH_SIG, _is_linear_graph, _glue_paths, _graph_extensions, _adjoin_to_path_end,
                             sap=False, symmetric=True),
}

TAGS = tuple(SPECS)


def class_spec(tag: str) -> ClassSpec:
    """The spec of a class tag; an unknown tag raises StructureError."""
    try:
        return SPECS[tag]
    except KeyError:
        raise StructureError(f"unknown class tag {tag!r}") from None


def align(tag: str, *structures: FinStructure) -> tuple[FinStructure, ...]:
    """The structures over one common signature: a metric space's lists only
    the distances it uses, so metric inputs are padded with empty symbols up
    to the union of their signatures; other classes' come back unchanged.
    Only outputs that carry the padded signature use it: an `Amalgam`'s
    sides, the property sweep's members and `forcing._realize_over`'s bodies.
    Searches and row checks read two metric signatures over their union
    (`structures._paired`) instead."""
    if class_spec(tag).sig is not None:
        return structures
    sig = _sorted_union(tuple(s.sig for s in structures))
    return tuple(s if s.sig == sig else _align_signature(s, sig) for s in structures)


def membership(tag: str, a: FinStructure) -> bool:
    """Does `a` satisfy the axioms of the tagged class?

    The signature is checked on every call; that every tuple lies in the
    universe, then the axioms, only the first time (kept in `a.verdicts`)."""
    spec = class_spec(tag)
    if spec.sig is None:
        for name, arity in a.sig.symbols:
            _check_distance_symbol(name, arity)
    elif a.sig is not spec.sig and a.sig != spec.sig:
        raise SignatureMismatch(f"{tag} expects signature {spec.sig.symbols}, got {a.sig.symbols}")
    verdicts = a.verdicts
    if tag not in verdicts:
        for _, rows in a.interp:  # a tuple outside the universe fails every class
            if not a.universe.issuperset(chain.from_iterable(rows)):
                verdicts[tag] = False
                return False
        verdicts[tag] = spec.member(a)
    return verdicts[tag]


# --- amalgamation -----------------------------------------------------------


@dataclass(frozen=True)
class Amalgam:
    result: FinStructure
    emb_left: Embedding
    emb_right: Embedding


def _setup_amalgam(f: Embedding, g: Embedding) -> tuple[FinStructure, FinStructure, dict[int, int], FinStructure]:
    """Common bookkeeping: left keeps its ids, right is renamed.  Returns
    (b, c, map_c, image_c): map_c is `_right_map` onto the smallest naturals
    outside b, and image_c = relabel(c, map_c)."""
    if f.source != g.source:
        raise StructureError("amalgamation requires a common base")
    b, c = f.target, g.target
    map_c = _right_map(f.as_dict(), g.as_dict(), c.sorted_universe(), fresh_ids(b.universe, len(c)))
    return b, c, map_c, relabel(c, map_c)


def _right_map(fm: dict[int, int], gm: dict[int, int], c_order: list[int], fresh: list[int]) -> dict[int, int]:
    """map_c: g(a) -> f(a) for each base point a, and the right side's
    other points, in `c_order`, onto `fresh` in order."""
    map_c = {gm[a]: fm[a] for a in fm}
    map_c.update(zip([x for x in c_order if x not in map_c], fresh))
    return map_c


def _amalgam(b: FinStructure, c: FinStructure, result: FinStructure, map_c: dict[int, int]) -> Amalgam:
    """The amalgam of two checked sides: b by its own ids, c by map_c."""
    return Amalgam(result, Embedding(b, result, tuple((x, x) for x in sorted(b.universe))),
                   Embedding(c, result, tuple(sorted(map_c.items()))))


def amalgamate(tag: str, f: Embedding, g: Embedding) -> Amalgam:
    """Amalgamate f: A -> B and g: A -> C over the common base A.

    The result keeps B's ids; C's non-base points get the smallest fresh
    naturals.  Classes with strong amalgamation glue the two sides with no
    identification beyond the base (a metric result carries the padded
    common signature); a class without (LinearGraph) searches amalgams
    that may identify points (`_identify_and_glue`), or fails with
    AmalgamationImpossible.  The glues trust the sides' tuples, so
    `validate_structure` checks them first.
    """
    for side in (f.target, g.target):
        validate_structure(side.sig, side.universe, dict(side.interp))
    _check_inputs(tag, f.target, g.target, f.source)
    b, c, map_c, image_c = _setup_amalgam(f, g)
    result, map_c = _solve(tag, b, c, map_c, image_c, strong=False)
    return _amalgam(*align(tag, b, c, result), map_c)


def _check_inputs(tag: str, *sides: FinStructure) -> None:
    """Raise NotInClass at the first side outside the class."""
    for side in sides:
        if not membership(tag, side):
            raise NotInClass(f"input not in class {tag}")


def glue_and_check(tag: str, b: FinStructure, c: FinStructure, map_c: dict[int, int],
                   image_c: FinStructure, rng: Random | None = None) -> FinStructure:
    """The strong amalgam of b and image_c = relabel(c, map_c), validated
    class members as every caller ensures: the class glue (passed rng only
    when one is given, to draw the free pairs), the result's membership,
    then the side check of b by the identity and c by map_c
    (`structures._check_rows`).  Sides that disagree where they meet fail
    here, as no result carries both; every amalgam, in forcing and in
    LinearGraph's identification search too, is glued by this step."""
    glue = class_spec(tag).glue
    result = glue(b, image_c) if rng is None else glue(b, image_c, rng)
    if not membership(tag, result):
        raise AmalgamationImpossible(f"strategy output left the class {tag}")
    _check_rows(result, b, c, map_c, image_c)
    return result


def _solve(tag: str, b: FinStructure, c: FinStructure, map_c: dict[int, int], image_c: FinStructure,
           strong: bool) -> tuple[FinStructure, dict[int, int]]:
    """One amalgamation problem over the checked b and c, with c's map
    map_c and image_c = relabel(c, map_c): the result and c's map into it.
    The strong glue (`glue_and_check`) when `strong` or in a class with
    SAP, the identification search (`_identify_and_glue`) otherwise; both
    raise StructureError when no amalgam is found."""
    if strong or class_spec(tag).sap:
        return glue_and_check(tag, b, c, map_c, image_c), map_c
    return _identify_and_glue(tag, b, c, map_c)


# --- linear graphs ----------------------------------------------------------


def _partial_injections(xs: list[int], ys: list[int]):
    """All partial injective maps xs -> ys, smallest first, lexicographic."""
    for k in range(min(len(xs), len(ys)) + 1):
        for dom in combinations(xs, k):
            for img in permutations(ys, k):
                yield dict(zip(dom, img))


def _identify_and_glue(tag: str, b: FinStructure, c: FinStructure,
                       map_c: dict[int, int]) -> tuple[FinStructure, dict[int, int]]:
    """An amalgam that may identify points, for a class without SAP: the
    fresh images of map_c, in order, with some of them identified with
    b's points outside the base image, fewest first (`_partial_injections`),
    and the others on the first fresh ids.  Returns the first result that
    `glue_and_check` accepts, with its map."""
    images = set(map_c.values())
    fresh = sorted(images - b.universe)
    for ident in _partial_injections(fresh, sorted(b.universe - images)):
        ident.update(zip([y for y in fresh if y not in ident], fresh))
        map_i = {x: ident.get(y, y) for x, y in map_c.items()}
        try:
            return glue_and_check(tag, b, c, map_i, relabel(c, map_i)), map_i
        except StructureError:
            continue
    raise AmalgamationImpossible("no linear graph amalgam exists")


# --- exhaustive enumeration and property verdicts ---------------------------

_MEMBER_CACHE: dict[tuple[str, int, bool], tuple[FinStructure, ...]] = {}

MAX_ENUM = 6


def enumerate_members(tag: str, size: int, connected: bool = False) -> tuple[FinStructure, ...]:
    """All class members with exactly `size` elements, one per isomorphism
    type, universe 0..size-1, ordered by canonical key.

    Isomorphic candidates share their signature and colour multiset, so
    each is compared only with the kept members of its bucket.  The first
    candidate of each type is kept, and only those are keyed."""
    if not 0 <= size <= MAX_ENUM:
        raise ScaleExceeded(f"enumeration takes sizes 0..{MAX_ENUM}, got {size}")
    key = (tag, size, connected)
    if key in _MEMBER_CACHE:
        return _MEMBER_CACHE[key]
    if size == 0:
        sig = class_spec(tag).sig or Signature(())
        out = (empty_structure(sig),)
    else:
        buckets: dict[tuple, list[FinStructure]] = {}
        for smaller in enumerate_members(tag, size - 1, connected=False):
            for candidate in class_spec(tag).extensions(smaller, size - 1):
                if not membership(tag, candidate):
                    continue
                if connected and not _is_connected_graph(candidate):
                    continue
                bucket = buckets.setdefault((candidate.sig, tuple(sorted(candidate.bitsets.colours))), [])
                if all(find_isomorphism(candidate, m) is None for m in bucket):
                    bucket.append(candidate)
        keyed = {canonical_key(m): m for bucket in buckets.values() for m in bucket}
        out = tuple(keyed[k] for k in sorted(keyed))
    _MEMBER_CACHE[key] = out
    return out


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    counterexample: dict | None = None


def _property_members(tag: str, size_bound: int, connected: bool) -> tuple[FinStructure, ...]:
    return align(tag, *(
        m for n in range(size_bound + 1) for m in enumerate_members(tag, n, connected=connected)
    ))


def _amalgam_instances(tag: str, size_bound: int, connected: bool):
    """The amalgamation problems over the members of at most `size_bound`
    elements: yields (base, left, right, pairs) for each group with a pair,
    in base, left, right order; `pairs` yields (fm, gm, map_c, image_c) in
    f, g order: f's and g's maps as dicts with sorted keys, the right
    side's map c into the amalgam (`_right_map`) and image_c, the right
    side relabelled by map_c.

    A strong glue and its checks read f and g only through image_c, and
    the identification search (`_identify_and_glue`) renames only map_c's
    fresh images, so its results and their checks read them through
    image_c too.  So only the first pair with each image_c is kept, and
    the first failing pair in the full order is always kept.  The square
    and image tests of an amalgam hold by how map_c is built: it sends
    g(a) to f(a), and the right side's other points to ids outside left.
    The embeddings of the base into each member are its `placements`,
    listed once; the fresh ids are listed once per group, and each map_c
    and relabelled right side once per base and left universe.
    """
    members = _property_members(tag, size_bound, connected)
    for base in members:
        embeddings = [
            [dict(sorted(p.items())) for p in placements(base, m, {}, base.bitsets.order)]
            if len(m) >= len(base) else [] for m in members
        ]
        universe = None
        for left, fs in zip(members, embeddings):
            if not fs:
                continue
            if left.universe != universe:  # right's fresh ids follow left's universe
                universe, renamed = left.universe, [{} for _ in members]
            for right, gs, cache in zip(members, embeddings, renamed):
                if gs:
                    yield base, left, right, _distinct_pairs(fs, gs, right, fresh_ids(left.universe, len(right)), cache)


def _distinct_pairs(fs, gs, right: FinStructure, fresh: list[int], renamed: dict):
    """The pairs of one group that `_amalgam_instances` keeps; `fresh`
    holds the ids of right's new points, and `renamed` (map_c, image_c) by
    the partial map g(a) -> f(a), which decides both, shared with the
    groups of the same base and right whose left has the same universe."""
    glued: set[FinStructure] = set()
    order = right.sorted_universe()
    for fm in fs:
        for gm in gs:
            h = frozenset(zip(gm.values(), fm.values()))
            if h not in renamed:
                map_c = _right_map(fm, gm, order, fresh)
                renamed[h] = map_c, relabel(right, map_c)
            map_c, image_c = renamed[h]
            if image_c not in glued:
                glued.add(image_c)
                yield fm, gm, map_c, image_c


def check_property(tag: str, prop: str, size_bound: int) -> PropertyVerdict:
    """Exhaustively verify HP / JEP / AP / SAP on members of at most
    `size_bound` elements (0 to MAX_ENUM); returns the first
    counterexample in canonical order, if any.

    AP and SAP solve (`_solve`) each pair that `_amalgam_instances` keeps,
    and a problem fails when `_solve` raises; the counterexample is still
    the first in the full base, left, right, f, g order.  The three members
    of a group are checked for membership once, before its first pair.
    JEP is AP over the empty base: the empty member comes first, its
    groups are the (left, right) pairs in order, each with its one pair
    of empty maps, and the counterexample names only left and right.

    Without SAP (LinearGraph), every instance ranges over the connected
    members (the paths), and AP and JEP search amalgams that may identify
    points; membership keeps the hereditary closure.
    """
    if not 0 <= size_bound <= MAX_ENUM:
        raise ScaleExceeded(f"property check takes bounds 0..{MAX_ENUM}, got {size_bound}")
    if prop not in ("HP", "JEP", "AP", "SAP"):
        raise StructureError(f"unknown property {prop!r}")
    connected = not class_spec(tag).sap

    if prop == "HP":
        for n in range(size_bound + 1):
            for member in enumerate_members(tag, n, connected=connected):
                for subset in _subsets(member.sorted_universe()):
                    sub = induced_substructure(member, set(subset))
                    try:
                        ok = membership(tag, sub)
                    except SignatureMismatch:
                        ok = False
                    if not ok:
                        return PropertyVerdict(False, {
                            "member": member, "subset": sorted(subset),
                            "detail": "induced substructure leaves the class",
                        })
        return PropertyVerdict(True)

    strong = prop == "SAP"
    for base, left, right, pairs in _amalgam_instances(tag, size_bound, connected):
        if prop == "JEP" and len(base):
            break
        try:
            _check_inputs(tag, left, right, base)
            reason = None
        except StructureError as exc:
            reason = str(exc)
        for fm, gm, map_c, image_c in pairs:
            if reason is None:
                try:
                    _solve(tag, left, right, map_c, image_c, strong)
                    continue
                except StructureError as exc:
                    reason = str(exc)
            if prop == "JEP":
                return PropertyVerdict(False, {"left": left, "right": right, "detail": reason})
            return PropertyVerdict(False, {
                "base": base, "left": left, "right": right,
                "f": dict(fm), "g": dict(gm), "detail": reason,
            })
    return PropertyVerdict(True)


def _align_signature(a: FinStructure, sig: Signature) -> FinStructure:
    """Re-base a structure onto a containing signature; missing symbols
    get empty interpretations, and the validated rows of `a` are reused."""
    if not set(a.sig.symbols) <= set(sig.symbols):
        raise SignatureMismatch("target signature does not contain the source one")
    rows = dict(a.interp)
    return FinStructure(sig, a.universe, tuple((name, rows.get(name, frozenset())) for name, _ in sig.symbols))


@lru_cache(maxsize=1024)
def _sorted_union(sigs: tuple[Signature, ...]) -> Signature:
    """The symbols of `sigs` by increasing distance, as one signature.  Two
    names of one distance (d_1/2, d_2/4) come in name order, not set order."""
    symbols = {sym for sig in sigs for sym in sig.symbols}
    return Signature(tuple(sorted(symbols, key=lambda s: (parse_metric_symbol(s[0]), s))))
