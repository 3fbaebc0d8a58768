"""Concrete amalgamation classes over finite structures.

Seven built-in classes, each one `ClassSpec` in `SPECS`: a membership
test, a gluing rule for strong amalgams, one-point extensions, seeded
point adjunction and a strong-amalgamation flag.  Exhaustive desk-scale
verifiers check the hereditary, joint-embedding and (strong)
amalgamation properties.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from random import Random
from typing import Callable, Iterator

from genstruct.structures import (
    Embedding,
    FinStructure,
    GRAPH_SIG,
    ORDER_SIG,
    Signature,
    SignatureMismatch,
    StructureError,
    canonical_key,
    empty_structure,
    enumerate_embeddings,
    fresh_ids,
    induced_substructure,
    make_embedding,
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


def parse_metric_symbol(name: str) -> Fraction:
    if not name.startswith("d_"):
        raise SignatureMismatch(f"not a distance symbol: {name}")
    return Fraction(name[2:])


def metric_structure(universe: set[int], dist: dict[frozenset[int], Fraction]) -> FinStructure:
    """Build a rational metric space from an unordered-pair distance map."""
    values = sorted(set(dist.values()))
    sig = Signature(tuple((metric_symbol(q), 2) for q in values))
    interp: dict[str, set[tuple[int, ...]]] = {metric_symbol(q): set() for q in values}
    for pair, q in dist.items():
        a, b = sorted(pair)
        interp[metric_symbol(q)].update({(a, b), (b, a)})
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

    `glue(a, b)` is the strong amalgam of two members that agree on their
    shared ids: it keeps every id and decides the relations between the
    a-only and the b-only points.  `extensions(a, new)` yields the
    one-point extensions enumeration tries, in a fixed order (the first
    of each isomorphism type is kept).  `add_point(a, m, rng)` adjoins m
    with canonical relations, or seeded ones when rng is given.  `cross`,
    when set, is the seeded choice of relations between one old point and
    one new point; the forcing builder resamples free pairs with it.
    """

    sig: Signature | None  # None: a metric space's symbols are its distances
    member: Callable[[FinStructure], bool]
    glue: Callable[[FinStructure, FinStructure], FinStructure]
    extensions: Callable[[FinStructure, int], Iterator[FinStructure]]
    add_point: Callable[[FinStructure, int, Random | None], FinStructure]
    cross: Callable[[int, int, Random | None], set[tuple[int, int]]] | None
    sap: bool
    symmetric: bool  # one undirected edge per related pair


# --- graphs, digraphs, tournaments and linear graphs ------------------------


def _edges(a: FinStructure) -> set[frozenset[int]]:
    return {frozenset(t) for t in a.rel("E")}


def _degrees(a: FinStructure) -> dict[int, int]:
    deg = {x: 0 for x in a.universe}
    for e in _edges(a):
        for x in e:
            deg[x] += 1
    return deg


def _components(a: FinStructure) -> list[set[int]]:
    adj = {x: set() for x in a.universe}
    for e in _edges(a):
        x, y = tuple(e)
        adj[x].add(y)
        adj[y].add(x)
    out = []
    left = set(a.universe)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        out.append(comp)
        left -= comp
    return sorted(out, key=min)


def _is_connected_graph(a: FinStructure) -> bool:
    return len(_components(a)) <= 1


def _is_forest(a: FinStructure) -> bool:
    # Acyclic exactly when each component has one edge fewer than points.
    return len(_edges(a)) == len(a) - len(_components(a))


def _is_symmetric_irreflexive(a: FinStructure) -> bool:
    rel = a.rel("E")
    return all(t[0] != t[1] and (t[1], t[0]) in rel for t in rel)


def _is_digraph(a: FinStructure) -> bool:
    return all(t[0] != t[1] for t in a.rel("E"))


def _is_tournament(a: FinStructure) -> bool:
    rel = a.rel("E")
    return _is_digraph(a) and all(
        ((x, y) in rel) != ((y, x) in rel) for x, y in combinations(sorted(a.universe), 2)
    )


def _is_linear_graph(a: FinStructure) -> bool:
    """Hereditary closure of the path graphs: disjoint unions of simple
    paths (acyclic, every degree at most 2)."""
    if not _is_symmetric_irreflexive(a):
        return False
    return max(_degrees(a).values(), default=0) <= 2 and _is_forest(a)


def _free_union(a: FinStructure, b: FinStructure) -> FinStructure:
    """Union of the arcs; no arc between a-only and b-only points."""
    rel = set(a.rel("E")) | set(b.rel("E"))
    return validate_structure(GRAPH_SIG, a.universe | b.universe, {"E": rel})


def _glue_tournaments(a: FinStructure, b: FinStructure) -> FinStructure:
    """Union of the arcs plus an arc from every a-only to every b-only point."""
    rel = set(a.rel("E")) | set(b.rel("E"))
    rel.update((x, y) for x in a.universe - b.universe for y in b.universe - a.universe)
    return validate_structure(GRAPH_SIG, a.universe | b.universe, {"E": rel})


def _graph_extensions(a: FinStructure, new: int, max_new_edges: int | None = None):
    old = a.sorted_universe()
    most = len(old) if max_new_edges is None else min(len(old), max_new_edges)
    for k in range(most + 1):
        for nbrs in combinations(old, k):
            rel = set(a.rel("E"))
            rel.update({(x, new) for x in nbrs} | {(new, x) for x in nbrs})
            yield validate_structure(GRAPH_SIG, set(old) | {new}, {"E": rel})


def _digraph_arcs(x: int, n: int, c: int) -> set[tuple[int, int]]:
    """Arcs between x and n for choice c: 0 none, 1 x->n, 2 n->x, 3 both."""
    return {t for t, bit in (((x, n), 1), ((n, x), 2)) if c & bit}


def _digraph_extensions(a: FinStructure, new: int):
    old = a.sorted_universe()
    for pattern in product(range(4), repeat=len(old)):
        rel = set(a.rel("E"))
        for x, c in zip(old, pattern):
            rel |= _digraph_arcs(x, new, c)
        yield validate_structure(GRAPH_SIG, set(old) | {new}, {"E": rel})


def _tournament_extensions(a: FinStructure, new: int):
    old = a.sorted_universe()
    for pattern in product((0, 1), repeat=len(old)):
        rel = set(a.rel("E"))
        for x, p in zip(old, pattern):
            rel.add((x, new) if p else (new, x))
        yield validate_structure(GRAPH_SIG, set(old) | {new}, {"E": rel})


def _graph_cross(x: int, n: int, rng: Random | None) -> set[tuple[int, int]]:
    return {(x, n), (n, x)} if rng and rng.random() < 0.5 else set()


def _digraph_cross(x: int, n: int, rng: Random | None) -> set[tuple[int, int]]:
    return _digraph_arcs(x, n, rng.randrange(4) if rng else 0)


def _tournament_cross(x: int, n: int, rng: Random | None) -> set[tuple[int, int]]:
    return {(n, x)} if rng and rng.random() < 0.5 else {(x, n)}


def _adjoin_by_pairs(cross):
    """add_point for classes whose new point relates to each old point
    independently, by the class's `cross` choice."""

    def add_point(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
        rel = set(a.rel("E"))
        for x in a.sorted_universe():
            rel |= cross(x, m, rng)
        return validate_structure(GRAPH_SIG, a.universe | {m}, {"E": rel})

    return add_point


def _adjoin_to_path_end(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    """Seeded: attach m to one path endpoint, or to nothing."""
    rel = set(a.rel("E"))
    if rng:
        deg = Counter(x for t in rel for x in t[:1])
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
    # A relation with n(n-1)/2 pairs, all going forward in one ordering of
    # the universe, is that ordering's strict order; a linear order's
    # in-degree chain is such an ordering.
    rel = a.rel("<")
    n = len(a.universe)
    if len(rel) != n * (n - 1) // 2:
        return False
    pos = {x: i for i, x in enumerate(a.chain)}
    return all(pos[x] < pos[y] for x, y in rel)


def chain_of(a: FinStructure) -> list[int]:
    """Universe of a linear order, sorted by its `<` relation (a copy of
    the cached `FinStructure.chain`)."""
    return list(a.chain)


def chain_structure(seq: list[int]) -> FinStructure:
    rel = {(seq[i], seq[j]) for i in range(len(seq)) for j in range(i + 1, len(seq))}
    return validate_structure(ORDER_SIG, set(seq), {"<": rel})


def merge_linear_orders(seq1: list[int], seq2: list[int], shared: set[int]) -> list[int]:
    """Merge two chains agreeing on `shared` into one chain.

    Cross pairs separated by a shared element follow the separator rule:
    x from side 1 precedes y from side 2 exactly when some shared r has
    x < r in side 1 and r < y in side 2.  Unseparated cross pairs put the
    side-2 element first.
    """
    r1 = [x for x in seq1 if x in shared]
    r2 = [x for x in seq2 if x in shared]
    if r1 != r2:
        raise StructureError("orders disagree on the shared part")
    if (set(seq1) & set(seq2)) - set(shared):
        raise StructureError("sides overlap outside the shared part")
    gaps1: dict[int, list[int]] = {}
    gaps2: dict[int, list[int]] = {}
    for seq, gaps in ((seq1, gaps1), (seq2, gaps2)):
        g = 0
        for x in seq:
            if x in shared:
                g += 1
            else:
                gaps.setdefault(g, []).append(x)
    merged: list[int] = []
    for g in range(len(r1) + 1):
        merged.extend(gaps2.get(g, []))
        merged.extend(gaps1.get(g, []))
        if g < len(r1):
            merged.append(r1[g])
    return merged


def _glue_chains(a: FinStructure, b: FinStructure) -> FinStructure:
    """Separator-rule merge of the two chains."""
    return chain_structure(merge_linear_orders(chain_of(a), chain_of(b), a.universe & b.universe))


def _transitive_closure(rel: set[tuple[int, ...]]) -> set[tuple[int, int]]:
    closed = set(rel)
    changed = True
    while changed:
        changed = False
        extra = {(x, w) for x, y in closed for z, w in closed if y == z and (x, w) not in closed}
        if extra:
            closed |= extra
            changed = True
    return closed


def _glue_posets(a: FinStructure, b: FinStructure) -> FinStructure:
    """Transitive closure of the union."""
    closed = _transitive_closure(set(a.rel("<")) | set(b.rel("<")))
    if any((y, x) in closed for x, y in closed) or any(x == y for x, y in closed):
        raise AmalgamationImpossible("transitive closure breaks antisymmetry")
    return validate_structure(ORDER_SIG, a.universe | b.universe, {"<": closed})


def _chain_extensions(a: FinStructure, new: int):
    seq = chain_of(a)
    for k in range(len(seq) + 1):
        yield chain_structure(seq[:k] + [new] + seq[k:])


def _subsets(xs: list[int]):
    for k in range(len(xs) + 1):
        yield from combinations(xs, k)


def _down_closed(down: set[int], rel) -> bool:
    return all(x in down for d in down for x, y in rel if y == d)


def _up_closed(up: set[int], rel) -> bool:
    return all(y in up for u in up for x, y in rel if x == u)


def _poset_extensions(a: FinStructure, new: int):
    old = a.sorted_universe()
    rel = a.rel("<")
    for downs in _subsets(old):
        down = set(downs)
        if not _down_closed(down, rel):
            continue
        above = [x for x in old if x not in down]
        for ups in _subsets(above):
            up = set(ups)
            if not _up_closed(up, rel):
                continue
            if any((d, u) not in rel for d in down for u in up):
                continue
            new_rel = set(rel)
            new_rel.update((d, new) for d in down)
            new_rel.update((new, u) for u in up)
            yield validate_structure(ORDER_SIG, set(old) | {new}, {"<": new_rel})


def _adjoin_to_chain(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    """Insert m at the top, or at a seeded slot."""
    seq = chain_of(a)
    slot = rng.randrange(len(seq) + 1) if rng else len(seq)
    return chain_structure(seq[:slot] + [m] + seq[slot:])


def _adjoin_unrelated(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    return validate_structure(ORDER_SIG, a.universe | {m}, {"<": set(a.rel("<"))})


# --- rational metric spaces -------------------------------------------------


def _is_metric(a: FinStructure) -> bool:
    for _, tuples in a.interp:
        if any(t[0] == t[1] or (t[1], t[0]) not in tuples for t in tuples):
            return False
    dist = metric_distances(a)
    points = sorted(a.universe)
    if any(frozenset(pair) not in dist for pair in combinations(points, 2)):
        return False
    for x, y, z in permutations(points, 3):
        if dist[frozenset((x, z))] > dist[frozenset((x, y))] + dist[frozenset((y, z))]:
            return False
    return True


def _glue_metrics(a: FinStructure, b: FinStructure) -> FinStructure:
    """Shortest-path gluing over the shared points; exact rational arithmetic.

    Cross distances are the minimum over shared points of the two-leg
    sums; with nothing shared both sides sit at a constant cross distance
    no smaller than either diameter.
    """
    dist_a, dist_b = metric_distances(a), metric_distances(b)
    dist = {**dist_a, **dist_b}
    base = sorted(a.universe & b.universe)
    cross = list(product(sorted(a.universe - b.universe), sorted(b.universe - a.universe)))
    if base:
        for x, y in cross:
            dist[frozenset((x, y))] = min(
                dist_a[frozenset((x, r))] + dist_b[frozenset((r, y))] for r in base
            )
    else:
        diam = max([*dist_a.values(), *dist_b.values(), Fraction(1)])
        for x, y in cross:
            dist[frozenset((x, y))] = diam
    return metric_structure(a.universe | b.universe, dist)


def _metric_extensions(a: FinStructure, new: int):
    old = a.sorted_universe()
    dist = metric_distances(a)
    for pattern in product(METRIC_PALETTE, repeat=len(old)):
        new_dist = dict(dist)
        for x, q in zip(old, pattern):
            new_dist[frozenset((x, new))] = q
        yield metric_structure(set(old) | {new}, new_dist)


def _adjoin_far(a: FinStructure, m: int, rng: Random | None) -> FinStructure:
    """m sits at the largest distance present (at least 1) from every point."""
    dist = metric_distances(a)
    if a.universe:
        c = max(list(dist.values()) + [1])
        for x in a.universe:
            dist[frozenset((x, m))] = c
    return metric_structure(a.universe | {m}, dist)


# --- the registry -----------------------------------------------------------

# Strong amalgamation holds for every built-in class except LinearGraph,
# where gluing two length-2 arms at a shared vertex forces degree 4.
SPECS: dict[str, ClassSpec] = {
    "Graph": ClassSpec(
        GRAPH_SIG, _is_symmetric_irreflexive, _free_union, _graph_extensions,
        _adjoin_by_pairs(_graph_cross), _graph_cross, sap=True, symmetric=True,
    ),
    "Digraph": ClassSpec(
        GRAPH_SIG, _is_digraph, _free_union, _digraph_extensions,
        _adjoin_by_pairs(_digraph_cross), _digraph_cross, sap=True, symmetric=False,
    ),
    "Tournament": ClassSpec(
        GRAPH_SIG, _is_tournament, _glue_tournaments, _tournament_extensions,
        _adjoin_by_pairs(_tournament_cross), _tournament_cross, sap=True, symmetric=False,
    ),
    "LinearOrder": ClassSpec(
        ORDER_SIG, _is_linear_order, _glue_chains, _chain_extensions,
        _adjoin_to_chain, None, sap=True, symmetric=False,
    ),
    "PartialOrder": ClassSpec(
        ORDER_SIG, _is_partial_order, _glue_posets, _poset_extensions,
        _adjoin_unrelated, None, sap=True, symmetric=False,
    ),
    "RationalMetric": ClassSpec(
        None, _is_metric, _glue_metrics, _metric_extensions,
        _adjoin_far, None, sap=True, symmetric=True,
    ),
    "LinearGraph": ClassSpec(
        GRAPH_SIG, _is_linear_graph, _free_union, partial(_graph_extensions, max_new_edges=2),
        _adjoin_to_path_end, None, sap=False, symmetric=True,
    ),
}

TAGS = tuple(SPECS)

SAP_FLAGS = {tag: spec.sap for tag, spec in SPECS.items()}


def class_spec(tag: str) -> ClassSpec:
    """The spec of a class tag; an unknown tag raises StructureError."""
    try:
        return SPECS[tag]
    except KeyError:
        raise StructureError(f"unknown class tag {tag!r}") from None


def class_signature(tag: str) -> Signature | None:
    """Fixed signature of the tag, or None for the per-structure metric one."""
    return class_spec(tag).sig


def align(tag: str, *structures: FinStructure) -> tuple[FinStructure, ...]:
    """The structures over one common signature, so they can be compared
    and embedded into each other.

    Fixed-signature classes return their inputs unchanged.  A metric
    space's signature lists only the distances it uses, so metric inputs
    are padded with empty symbols up to the union of their signatures.
    """
    if class_spec(tag).sig is not None:
        return structures
    sig = _metric_common_signature(*structures)
    return tuple(s if s.sig == sig else _align_signature(s, sig) for s in structures)


def membership(tag: str, a: FinStructure) -> bool:
    """Does `a` satisfy the axioms of the tagged class?"""
    spec = class_spec(tag)
    if spec.sig is None:
        for name, arity in a.sig.symbols:
            q = parse_metric_symbol(name)
            if arity != 2 or q <= 0:
                raise SignatureMismatch(f"bad distance symbol {name}")
    elif a.sig != spec.sig:
        raise SignatureMismatch(f"{tag} expects signature {spec.sig.symbols}, got {a.sig.symbols}")
    return spec.member(a)


# --- amalgamation -----------------------------------------------------------


@dataclass(frozen=True)
class Amalgam:
    result: FinStructure
    emb_left: Embedding
    emb_right: Embedding


def _setup_amalgam(f: Embedding, g: Embedding) -> tuple[FinStructure, FinStructure, dict[int, int]]:
    """Common bookkeeping: left keeps its ids, right is renamed.

    Returns (b, c, map_c) where map_c sends the right-hand universe into
    the result id space: base points land on f's image, the others on
    the smallest naturals outside b.
    """
    if f.source != g.source:
        raise StructureError("amalgamation requires a common base")
    b, c = f.target, g.target
    fm, gm = f.as_dict(), g.as_dict()
    map_c: dict[int, int] = {gm[a]: fm[a] for a in fm}
    new_points = [x for x in c.sorted_universe() if x not in map_c]
    names = fresh_ids(b.universe, len(new_points))
    for x, y in zip(new_points, names):
        map_c[x] = y
    return b, c, map_c


def _amalgam(b: FinStructure, c: FinStructure, result: FinStructure, map_c: dict[int, int]) -> Amalgam:
    return Amalgam(
        result,
        make_embedding(b, result, {x: x for x in b.universe}),
        make_embedding(c, result, map_c),
    )


def amalgamate(tag: str, f: Embedding, g: Embedding) -> Amalgam:
    """Amalgamate f: A -> B and g: A -> C over the common base A.

    The result keeps B's ids; C's non-base points get the smallest fresh
    naturals.  Classes with strong amalgamation glue the two sides with no
    identification beyond the base (a metric result carries the padded
    common signature); LinearGraph searches amalgams that may identify
    points, or fails with AmalgamationImpossible.
    """
    spec = class_spec(tag)
    for side in (f.target, g.target, f.source):
        if not membership(tag, side):
            raise NotInClass(f"input not in class {tag}")
    if not spec.sap:
        return _amalgamate_linear_graph(f, g, connected=False)
    b, c, map_c = _setup_amalgam(f, g)
    b, c, result = align(tag, b, c, spec.glue(b, relabel(c, map_c)))
    if not membership(tag, result):
        raise AmalgamationImpossible(f"strategy output left the class {tag}")
    return _amalgam(b, c, result, map_c)


# --- linear graphs ----------------------------------------------------------


def _linear_graph_obstruction(union: FinStructure) -> str | None:
    deg = _degrees(union)
    overloaded = sorted(x for x, d in deg.items() if d > 2)
    if overloaded:
        return f"vertex {overloaded[0]} gets degree {deg[overloaded[0]]} in any strong amalgam"
    if not _is_forest(union):
        return "the union over the base contains a cycle"
    return None


def strong_linear_graph_obstruction(f: Embedding, g: Embedding) -> str | None:
    """Why no strong amalgam of linear graphs exists, or None if one does.

    Bridging through fresh points can always connect a valid union, so
    the only obstructions are an overloaded vertex or a forced cycle in
    the union over the base.
    """
    b, c, map_c = _setup_amalgam(f, g)
    return _linear_graph_obstruction(_free_union(b, relabel(c, map_c)))


def _bridge_components(structure: FinStructure) -> FinStructure:
    """Chain the path components into one path with fresh bridge points."""
    comps = _components(structure)
    if len(comps) <= 1:
        return structure
    rel = set(structure.rel("E"))
    universe = set(structure.universe)
    deg = _degrees(structure)
    bridges = fresh_ids(universe, len(comps) - 1)
    ends = []
    for comp in comps:
        ends.append(sorted(x for x in comp if deg.get(x, 0) <= 1))
    for i, z in enumerate(bridges):
        left_end = [x for x in ends[i] if deg[x] <= 1][-1]
        right_end = [x for x in ends[i + 1] if deg[x] <= 1][0]
        rel.update({(left_end, z), (z, left_end), (z, right_end), (right_end, z)})
        deg[left_end] += 1
        deg[right_end] += 1
        deg[z] = 2
        universe.add(z)
    return validate_structure(GRAPH_SIG, universe, {"E": rel})


def _partial_injections(xs: list[int], ys: list[int]):
    """All partial injective maps xs -> ys, smallest first, lexicographic."""
    for k in range(min(len(xs), len(ys)) + 1):
        for dom in combinations(xs, k):
            for img in _injective_images(list(ys), k):
                yield dict(zip(dom, img))


def _injective_images(ys: list[int], k: int):
    if k == 0:
        yield ()
        return
    for i, y in enumerate(ys):
        for rest in _injective_images(ys[:i] + ys[i + 1 :], k - 1):
            yield (y,) + rest


def _amalgamate_linear_graph(f: Embedding, g: Embedding, connected: bool) -> Amalgam:
    """Search amalgams of linear graphs, identifications allowed.

    Tries the strong union first, then partial identifications of the two
    new sides, smallest first.  With `connected` the result is bridged
    into a single path (inputs must then be connected themselves).
    """
    b, c = f.target, g.target
    fm, gm = f.as_dict(), g.as_dict()
    base_map = {gm[a]: fm[a] for a in fm}
    left_new = [x for x in b.sorted_universe() if x not in set(fm.values())]
    right_new = [x for x in c.sorted_universe() if x not in base_map]

    for ident in _partial_injections(right_new, left_new):
        map_c = dict(base_map)
        map_c.update(ident)
        unmatched = [x for x in right_new if x not in ident]
        names = fresh_ids(set(b.universe), len(unmatched))
        for x, y in zip(unmatched, names):
            map_c[x] = y
        if len(set(map_c.values())) != len(map_c):
            continue
        image_c = relabel(c, map_c)
        candidate = _free_union(b, image_c)
        if not membership("LinearGraph", candidate):
            continue
        # Identification must not create adjacencies inside either image.
        if induced_substructure(candidate, b.universe) != b:
            continue
        if induced_substructure(candidate, image_c.universe).rel("E") != image_c.rel("E"):
            continue
        if connected:
            candidate = _bridge_components(candidate)
        return _amalgam(b, c, candidate, map_c)
    raise AmalgamationImpossible("no linear graph amalgam exists")


# --- exhaustive enumeration and property verdicts ---------------------------

_MEMBER_CACHE: dict[tuple[str, int, bool], tuple[FinStructure, ...]] = {}

MAX_ENUM = 6


def enumerate_members(tag: str, size: int, connected: bool = False) -> tuple[FinStructure, ...]:
    """All class members with exactly `size` elements, one per isomorphism
    type, universe 0..size-1, ordered by canonical key."""
    if size > MAX_ENUM:
        raise ScaleExceeded(f"enumeration capped at {MAX_ENUM} elements")
    key = (tag, size, connected)
    if key in _MEMBER_CACHE:
        return _MEMBER_CACHE[key]
    if size == 0:
        sig = class_signature(tag) or Signature(())
        out = (empty_structure(sig),)
    else:
        seen: dict[tuple, FinStructure] = {}
        for smaller in enumerate_members(tag, size - 1, connected=False):
            for candidate in class_spec(tag).extensions(smaller, size - 1):
                if not membership(tag, candidate):
                    continue
                if connected and not _is_connected_graph(candidate):
                    continue
                ck = canonical_key(candidate)
                if ck not in seen:
                    seen[ck] = candidate
        out = tuple(seen[k] for k in sorted(seen))
    _MEMBER_CACHE[key] = out
    return out


def count_iso_types(tag: str, n: int) -> int:
    """Number of isomorphism types of class members with exactly n elements."""
    return len(enumerate_members(tag, n))


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    counterexample: dict | None = None


def _property_members(tag: str, size_bound: int, connected: bool) -> tuple[FinStructure, ...]:
    return align(tag, *(
        m for n in range(size_bound + 1) for m in enumerate_members(tag, n, connected=connected)
    ))


def _amalgam_instances(tag: str, size_bound: int, connected: bool):
    members = _property_members(tag, size_bound, connected)
    for base in members:
        for left in members:
            if len(left) < len(base):
                continue
            fs = enumerate_embeddings(base, left)
            if not fs:
                continue
            for right in members:
                if len(right) < len(base):
                    continue
                gs = enumerate_embeddings(base, right)
                for f in fs:
                    for g in gs:
                        yield base, left, right, f, g


def _amalgam_failure(tag: str, f: Embedding, g: Embedding, strong: bool, connected: bool) -> str | None:
    """Build an amalgam and validate it; returns a failure reason or None.

    Without SAP (LinearGraph) a strong amalgam is the plain union over
    the base, when no obstruction rules it out; otherwise the search may
    identify points.
    """
    spec = class_spec(tag)
    try:
        if spec.sap:
            amalgam = amalgamate(tag, f, g)
        elif strong:
            b, c, map_c = _setup_amalgam(f, g)
            union = spec.glue(b, relabel(c, map_c))
            reason = _linear_graph_obstruction(union)
            if reason is not None:
                return reason
            amalgam = _amalgam(b, c, _bridge_components(union) if connected else union, map_c)
        else:
            amalgam = _amalgamate_linear_graph(f, g, connected=connected)
    except StructureError as exc:
        return str(exc)
    return validate_amalgam(tag, f, g, amalgam, strong=strong, connected=connected)


def validate_amalgam(
    tag: str, f: Embedding, g: Embedding, amalgam: Amalgam, strong: bool, connected: bool = False
) -> str | None:
    if not membership(tag, amalgam.result):
        return "result not in class"
    if connected and not _is_connected_graph(amalgam.result):
        return "result not connected"
    fm, gm = f.as_dict(), g.as_dict()
    lm, rm = amalgam.emb_left.as_dict(), amalgam.emb_right.as_dict()
    for a in fm:
        if lm[fm[a]] != rm[gm[a]]:
            return "square does not commute"
    if strong:
        base_image = {lm[fm[a]] for a in fm}
        if set(lm.values()) & set(rm.values()) != base_image:
            return "images overlap beyond the base"
    return None


def check_property(tag: str, prop: str, size_bound: int) -> PropertyVerdict:
    """Exhaustively verify HP / JEP / AP / SAP on members of at most
    `size_bound` elements; returns the first counterexample in canonical
    order, if any.

    For LinearGraph, JEP / AP / SAP instances range over the connected
    members (the paths); membership and the hereditary check keep the
    hereditary closure.
    """
    if size_bound > MAX_ENUM:
        raise ScaleExceeded(f"property check capped at {MAX_ENUM} elements")
    if prop not in ("HP", "JEP", "AP", "SAP"):
        raise StructureError(f"unknown property {prop!r}")
    connected = tag == "LinearGraph"

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

    if prop == "JEP":
        members = _property_members(tag, size_bound, connected)
        for left in members:
            for right in members:
                base = empty_structure(left.sig)
                f = make_embedding(base, left, {})
                g = make_embedding(base, right, {})
                reason = _amalgam_failure(tag, f, g, strong=False, connected=connected)
                if reason is not None:
                    return PropertyVerdict(False, {"left": left, "right": right, "detail": reason})
        return PropertyVerdict(True)

    strong = prop == "SAP"
    for base, left, right, f, g in _amalgam_instances(tag, size_bound, connected):
        reason = _amalgam_failure(tag, f, g, strong=strong, connected=connected)
        if reason is not None:
            return PropertyVerdict(False, {
                "base": base, "left": left, "right": right,
                "f": f.as_dict(), "g": g.as_dict(), "detail": reason,
            })
    return PropertyVerdict(True)


def _align_signature(a: FinStructure, sig: Signature) -> FinStructure:
    """Re-base a structure onto a containing signature; missing symbols
    get empty interpretations."""
    if not set(a.sig.symbols) <= set(sig.symbols):
        raise SignatureMismatch("target signature does not contain the source one")
    return validate_structure(sig, set(a.universe), {n: set(ts) for n, ts in a.interp})


def _metric_common_signature(*structures: FinStructure) -> Signature:
    symbols = sorted({sym for s in structures for sym in s.sig.symbols},
                     key=lambda s: parse_metric_symbol(s[0]))
    return Signature(tuple(symbols))
