"""Verifiers that interrogate built structures: extension properties,
one-point homogeneity, universality, entangledness and subset density.

Reports are structured item lists so tests can assert exact failure sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from genstruct.classes import (
    NotInClass,
    ScaleExceeded,
    align,
    chain_of,
    enumerate_members,
    membership,
)
from genstruct.structures import (
    FinStructure,
    StructureError,
    enumerate_embeddings_extending,
    extends_isomorphism,
    induced_substructure,
)

MAX_REPORT_SIZE = 40
MAX_REPORT_K = 4


@dataclass(frozen=True)
class ReportItem:
    item: str
    verdict: bool
    witness: object = None


@dataclass(frozen=True)
class Report:
    name: str
    items: tuple[ReportItem, ...]

    @property
    def passed(self) -> bool:
        return all(it.verdict for it in self.items)

    def failures(self) -> list[ReportItem]:
        return [it for it in self.items if not it.verdict]

    def to_json(self) -> str:
        rows = [
            {"item": it.item, "verdict": it.verdict, "witness": it.witness}
            for it in self.items
        ]
        return json.dumps(rows, separators=(",", ":"))


def _guard(m: FinStructure, k: int) -> None:
    if k < 0:
        raise StructureError("k must be nonnegative")
    if k > MAX_REPORT_K or len(m) > MAX_REPORT_SIZE:
        raise ScaleExceeded(f"report capped at k={MAX_REPORT_K}, |M|={MAX_REPORT_SIZE}")


def extension_property_report(m: FinStructure, tag: str, k: int) -> Report:
    """Every embedding of a substructure of a class member with at most k
    points must extend to an embedding of the whole member.

    One item per (member type, marked substructure, embedding into m); a
    passing report over graphs with k = 2 is the finite shadow of the
    random-graph extension axioms.
    """
    if not membership(tag, m):
        raise NotInClass("input must belong to the class")
    _guard(m, k)
    items: list[ReportItem] = []
    for size in range(k + 1):
        for idx, member in enumerate(enumerate_members(tag, size)):
            member, target = align(tag, member, m)
            universe = member.sorted_universe()
            for r in range(len(universe) + 1):
                for subset in combinations(universe, r):
                    part = induced_substructure(member, set(subset))
                    for emb in enumerate_embeddings_extending(part, target, {}):
                        pins = emb.as_dict()
                        found = enumerate_embeddings_extending(member, target, pins, limit=1)
                        witness = sorted(found[0].as_dict().items()) if found else None
                        items.append(
                            ReportItem(
                                f"type:{size}.{idx};dom={list(subset)};emb={sorted(pins.items())}",
                                bool(found),
                                witness,
                            )
                        )
    return Report("extension-property", tuple(items))


def universality_check(m: FinStructure, tag: str, k: int) -> Report:
    """Does every isomorphism type of the class with at most k elements
    embed into m?"""
    if not membership(tag, m):
        raise NotInClass("input must belong to the class")
    _guard(m, k)
    items: list[ReportItem] = []
    for n in range(k + 1):
        for idx, member in enumerate(enumerate_members(tag, n)):
            member, target = align(tag, member, m)
            found = enumerate_embeddings_extending(member, target, {}, limit=1)
            witness = sorted(found[0].as_dict().items()) if found else None
            items.append(ReportItem(f"type:{n}.{idx}", bool(found), witness))
    return Report("universality", tuple(items))


def one_point_homogeneity(m: FinStructure, tag: str, k: int) -> Report:
    """For every isomorphism between substructures on at most k points and
    every one-point enlargement of its domain inside m, can the map follow?

    This is the finitely checkable core of homogeneity; finite prefixes
    are typically rigid, so the full automorphism-extension form is out of
    reach by design.
    """
    if not membership(tag, m):
        raise NotInClass("input must belong to the class")
    _guard(m, k)
    items: list[ReportItem] = []
    elems = m.sorted_universe()
    for size in range(k + 1):
        subs = {s: induced_substructure(m, set(s)) for s in combinations(elems, size)}
        for xs, sub_x in subs.items():
            for ys, sub_y in subs.items():
                for iso in enumerate_embeddings_extending(sub_x, sub_y, {}):
                    phi = iso.as_dict()
                    for extra in elems:
                        if extra in xs:
                            continue
                        witness = next(
                            (
                                cand
                                for cand in elems
                                if extends_isomorphism(m, phi, extra, cand)
                            ),
                            None,
                        )
                        items.append(
                            ReportItem(
                                f"iso={sorted(phi.items())};add={extra}",
                                witness is not None,
                                witness,
                            )
                        )
    return Report("one-point-homogeneity", tuple(items))


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
    n = len(instance.tuples)
    for xi in range(n):
        for eta in range(n):
            if xi == eta:
                continue
            left, right = instance.tuples[xi], instance.tuples[eta]
            if all(
                (left[i] <= right[i]) == instance.pattern[i]
                for i in range(instance.k)
            ):
                return (xi, eta)
    return None


def interval_density_check(order: FinStructure, ids: set[int] | frozenset[int]) -> Report:
    """Does the given id set hit every open interval of the finite order
    prefix?  A finite prefix can only ever approximate density of an
    infinite set, so this is a per-pair report, not a verdict about the
    limit."""
    seq = chain_of(order)
    pos = {x: i for i, x in enumerate(seq)}
    marks = sorted(pos[x] for x in ids if x in pos)
    items = []
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            hit = next((seq[p] for p in marks if pos[x] < p < pos[y]), None)
            items.append(ReportItem(f"interval=({x},{y})", hit is not None, hit))
    return Report("interval-density", tuple(items))
