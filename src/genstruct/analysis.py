"""Verifiers that interrogate built structures: extension properties,
one-point homogeneity, universality, entangledness and subset density.

Each verifier is one generator of report items (`*_items`). Its `Report`
function hands the generator to a sink: by default `tuple`, which
collects the items so tests can assert exact failure sets; the CLI's
sink writes them out as they arrive (`write_json`) and keeps a `Written`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from math import comb, factorial
from typing import NamedTuple

from genstruct.classes import (
    NotInClass,
    ScaleExceeded,
    chain_of,
    enumerate_members,
    membership,
)
from genstruct.structures import (
    FinStructure,
    StructureError,
    placements,
)

MAX_REPORT_SIZE = 40
MAX_REPORT_K = 4
# Largest item count an extension, universality or homogeneity report may
# be estimated at. The 20-point Graph homogeneity report at k=2 (estimate
# 1,307,220; 660,012 items, 5-6 s through the CLI on a 2-core x86-64
# machine) fits; the same check on 22 points does not.
MAX_REPORT_ITEMS = 2_000_000
# Rows per json.dumps call when a report is written out; it divides
# PROGRESS_EVERY, the item interval of write_json's progress calls.
JSON_BATCH = 250
PROGRESS_EVERY = 1000


class ReportItem(NamedTuple):
    item: str
    verdict: bool
    witness: object = None


@dataclass(frozen=True)
class Written:
    """What a sink keeps of the items it wrote out: their count and how
    many failed."""

    count: int
    failures: int

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class Report:
    """A verifier's items; `Written` when a sink wrote them out, and then
    only `len(items)` and `items.failures` are left of them."""

    name: str
    items: tuple[ReportItem, ...] | Written

    @property
    def passed(self) -> bool:
        if isinstance(self.items, Written):
            return not self.items.failures
        return all(it.verdict for it in self.items)

    def failures(self) -> list[ReportItem]:
        return [it for it in self.items if not it.verdict]

    def to_json(self) -> str:
        parts: list[str] = []
        write_json(self.items, parts.append)
        return "".join(parts)


def write_json(
    items: Iterable[ReportItem],
    write: Callable[[str], object],
    progress: Callable[[int, int], object] | None = None,
) -> Written:
    """Write the compact JSON array of `items` through `write` while they
    arrive, JSON_BATCH rows per chunk; call `progress(count, failures)`
    after every PROGRESS_EVERY items."""
    count = failures = 0
    items = iter(items)
    write("[")
    while batch := list(islice(items, JSON_BATCH)):
        failures += sum(not verdict for _, verdict, _ in batch)
        rows = [{"item": item, "verdict": verdict, "witness": witness} for item, verdict, witness in batch]
        write(_chunk(rows, count))
        count += len(batch)
        if progress is not None and count % PROGRESS_EVERY == 0:
            progress(count, failures)
    write("]")
    return Written(count, failures)


def _chunk(rows: list[dict], written: int) -> str:
    """`rows` as JSON array elements, after `written` earlier ones."""
    text = json.dumps(rows, separators=(",", ":"))[1:-1]
    return "," + text if written else text


def _guard(m: FinStructure, k: int) -> None:
    if k < 0:
        raise StructureError("k must be nonnegative")
    if k > MAX_REPORT_K or len(m) > MAX_REPORT_SIZE:
        raise ScaleExceeded(f"report capped at k={MAX_REPORT_K}, |M|={MAX_REPORT_SIZE}")


def _admit(m: FinStructure, tag: str, k: int) -> None:
    if not membership(tag, m):
        raise NotInClass("input must belong to the class")
    _guard(m, k)


def _cap(estimate: int) -> None:
    if estimate > MAX_REPORT_ITEMS:
        raise ScaleExceeded(
            f"report estimated at up to {estimate:,} items, over the cap of {MAX_REPORT_ITEMS:,}"
        )


# Each *_items function checks its input (and, but for density, the item
# estimate) at once, then returns the generator of the report's items: a
# rejected input raises before the first item exists.


def extension_items(m: FinStructure, tag: str, k: int) -> Iterator[ReportItem]:
    """Every embedding of a substructure of a class member with at most k
    points must extend to an embedding of the whole member.

    One item per (member type, marked substructure, embedding into m); a
    passing report over graphs with k = 2 is the finite shadow of the
    random-graph extension axioms.  A type of s points has C(s, r)
    substructures of r points, each with at most |M|^r embeddings, so it
    gives at most (|M| + 1)^s items.
    """
    _admit(m, tag, k)
    types = [enumerate_members(tag, size) for size in range(k + 1)]
    _cap(sum(len(members) * (len(m) + 1) ** size for size, members in enumerate(types)))

    def items() -> Iterator[ReportItem]:
        for size, members in enumerate(types):
            for idx, member in enumerate(members):
                universe = member.sorted_universe()
                for r in range(len(universe) + 1):
                    for subset in combinations(universe, r):
                        free = [x for x in universe if x not in subset]
                        # Placing subset alone gives the embeddings of the part it induces.
                        for pins in placements(member, m, {}, subset):
                            found = next(placements(member, m, pins, free), None)
                            yield ReportItem(
                                f"type:{size}.{idx};dom={list(subset)};emb={sorted(pins.items())}",
                                found is not None,
                                None if found is None else sorted(found.items()),
                            )

    return items()


def universality_items(m: FinStructure, tag: str, k: int) -> Iterator[ReportItem]:
    """Does every isomorphism type of the class with at most k elements
    embed into m?  One item per type."""
    _admit(m, tag, k)
    types = [enumerate_members(tag, n) for n in range(k + 1)]
    _cap(sum(map(len, types)))

    def items() -> Iterator[ReportItem]:
        for n, members in enumerate(types):
            for idx, member in enumerate(members):
                found = next(placements(member, m, {}, member.sorted_universe()), None)
                yield ReportItem(f"type:{n}.{idx}", found is not None, None if found is None else sorted(found.items()))

    return items()


def homogeneity_items(m: FinStructure, tag: str, k: int) -> Iterator[ReportItem]:
    """For every isomorphism between substructures on at most k points and
    every one-point enlargement of its domain inside m, can the map follow?

    This is the finitely checkable core of homogeneity; finite prefixes
    are typically rigid, so the full automorphism-extension form is out of
    reach by design.  Per size s there are C(|M|, s)^2 pairs of domains,
    at most s! isomorphisms each and |M| - s enlargements.

    Answered on m's `Bitsets` rows.  A tuple's type is its points' `fixed`
    types and the links' bits on its ordered pairs; phi: xs -> ys is an
    isomorphism exactly when xs and phi's images have one type, so the
    permutations of each s-set are typed once and xs looks up its own type,
    in the lexicographic image order of `placements`.  Per phi each image's
    rows are taken once; per extra point, one bit test per (pin, link) picks
    a row or its complement.  `_admit` requires class membership and every
    class signature is binary, so `Bitsets.high` is empty here.
    """
    _admit(m, tag, k)
    n = len(m)
    _cap(sum(comb(n, s) ** 2 * factorial(s) * (n - s) for s in range(k + 1)))

    def items() -> Iterator[ReportItem]:
        elems, view = m.sorted_universe(), m.bitsets
        links = [r for r, _ in view.links]
        # code[i*n + j]: point i's fixed type if i == j, else the links' bits on (i, j).
        code = [sum((r >> i * n + j & 1) << b for b, r in enumerate(links)) if i != j
                else sum((f >> i & 1) << b for b, f in enumerate(view.fixed))
                for i in range(n) for j in range(n)]
        base = [sum(1 << j for j in range(n) if code[j * n + j] == code[i * n + i]) for i in range(n)]
        for size in range(k + 1):
            images: dict[tuple, list] = {}  # type -> the permutations of that type, in order
            for ys in combinations(range(n), size):
                for p in permutations(ys):
                    images.setdefault(tuple(code[i * n + j] for i in p for j in p), []).append(p)
            for xs in combinations(range(n), size):
                extras = [i for i in range(n) if i not in xs]
                for p in images[tuple(code[i * n + j] for i in xs for j in xs)]:
                    label = f"iso={[(elems[x], elems[y]) for x, y in zip(xs, p)]};add="
                    outside = view.full ^ sum(1 << y for y in p)
                    rows = [(x * n, r, r >> y * n & view.full) for x, y in zip(xs, p) for r in links]
                    for i in extras:
                        mask = base[i] & outside
                        for at, r, row in rows:
                            mask &= row if r >> at + i & 1 else ~row
                        witness = elems[(mask & -mask).bit_length() - 1] if mask else None
                        yield ReportItem(f"{label}{elems[i]}", witness is not None, witness)

    return items()


# The verifiers as reports. `sink` receives the item generator once the
# input is admitted and returns the report's items.

Sink = Callable[[Iterator[ReportItem]], tuple[ReportItem, ...] | Written]


def extension_property_report(m: FinStructure, tag: str, k: int, sink: Sink = tuple) -> Report:
    return Report("extension-property", sink(extension_items(m, tag, k)))


def universality_check(m: FinStructure, tag: str, k: int, sink: Sink = tuple) -> Report:
    return Report("universality", sink(universality_items(m, tag, k)))


def one_point_homogeneity(m: FinStructure, tag: str, k: int, sink: Sink = tuple) -> Report:
    return Report("one-point-homogeneity", sink(homogeneity_items(m, tag, k)))


# --- entangledness -------------------------------------------------------------


@dataclass(frozen=True)
class EntangledInstance:
    """Pairwise disjoint k-tuples over a suborder of the integers plus a
    true/false pattern, one flag per coordinate."""

    k: int
    tuples: tuple[tuple[int, ...], ...]
    pattern: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.pattern) != self.k:
            raise ValueError("pattern length must equal k")
        seen: set[int] = set()
        for t in self.tuples:
            if len(t) != self.k:
                raise ValueError("every tuple must have k entries")
            entries = set(t)
            if len(entries) != self.k or entries & seen:
                raise ValueError("tuples must be pairwise disjoint")
            seen |= entries


def entangled_check(instance: EntangledInstance) -> tuple[int, int] | None:
    """First ordered index pair realizing the pattern coordinatewise, or
    None; exhaustive over ordered pairs."""
    tuples, pattern = instance.tuples, instance.pattern
    return next(((xi, eta) for xi, eta in permutations(range(len(tuples)), 2)
                 if all((x <= y) == want for x, y, want in zip(tuples[xi], tuples[eta], pattern))), None)


def density_items(order: FinStructure, ids: set[int] | frozenset[int]) -> Iterator[ReportItem]:
    """Does the given id set hit every open interval of the finite order
    prefix?  A finite prefix can only ever approximate density of an
    infinite set, so this is a per-pair report, not a verdict about the
    limit.  `order` must be a linear order (NotInClass); no size cap applies."""
    if not membership("LinearOrder", order):
        raise NotInClass("input must belong to the class")
    seq = chain_of(order)
    marks = [i for i, x in enumerate(seq) if x in ids] + [len(seq)]  # the last lies above every interval

    def items() -> Iterator[ReportItem]:
        for i, x in enumerate(seq):
            first = marks[bisect_right(marks, i)]  # the first mark above x
            for j in range(i + 1, len(seq)):
                hit = seq[first] if first < j else None
                yield ReportItem(f"interval=({x},{seq[j]})", hit is not None, hit)

    return items()


def interval_density_check(
    order: FinStructure, ids: set[int] | frozenset[int], sink: Sink = tuple
) -> Report:
    return Report("interval-density", sink(density_items(order, ids)))
