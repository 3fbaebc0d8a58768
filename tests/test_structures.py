from itertools import permutations
from random import Random

import pytest

from genstruct.structures import (
    GRAPH_SIG,
    ORDER_SIG,
    Signature,
    StructureError,
    SubsetNotContained,
    TupleOutOfUniverse,
    UnknownSymbol,
    canonical_key,
    compose,
    dumps,
    empty_structure,
    enumerate_embeddings,
    find_isomorphism,
    fresh_ids,
    identity_embedding,
    induced_substructure,
    loads,
    make_embedding,
    relabel_disjoint,
    validate_structure,
)


def graph(universe, edges):
    rel = set()
    for a, b in edges:
        rel.update({(a, b), (b, a)})
    return validate_structure(GRAPH_SIG, set(universe), {"E": rel})


def test_validate_empty():
    s = validate_structure(GRAPH_SIG, set(), {})
    assert len(s) == 0
    assert s.rel("E") == frozenset()


def test_validate_one_edge():
    s = graph({0, 1}, [(0, 1)])
    assert s.rel("E") == frozenset({(0, 1), (1, 0)})


def test_validate_tuple_out_of_universe():
    with pytest.raises(TupleOutOfUniverse):
        validate_structure(GRAPH_SIG, {0, 1}, {"E": {(0, 2)}})


def test_validate_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        validate_structure(GRAPH_SIG, {0}, {"R": {(0,)}})


def test_signature_rejects_duplicates_and_bad_arity():
    with pytest.raises(StructureError):
        Signature((("E", 2), ("E", 1)))
    with pytest.raises(StructureError):
        Signature((("E", 0),))


def test_induced_identity_and_empty():
    p = graph({0, 1, 2}, [(0, 1), (1, 2)])
    assert induced_substructure(p, p.universe) == p
    assert len(induced_substructure(p, set())) == 0


def test_induced_path_endpoints():
    # Restricting the path 0-1-2 to its endpoints drops both edges.
    p = graph({0, 1, 2}, [(0, 1), (1, 2)])
    expected_tuples = {t for t in p.rel("E") if set(t) <= {0, 2}}
    sub = induced_substructure(p, {0, 2})
    assert sub.universe == frozenset({0, 2})
    assert sub.rel("E") == frozenset(expected_tuples) == frozenset()


def test_induced_subset_not_contained():
    with pytest.raises(SubsetNotContained):
        induced_substructure(graph({0}, []), {1})


def brute_force_isos(a, b):
    """Independent oracle: try every bijection directly."""
    if len(a) != len(b):
        return []
    src, out = sorted(a.universe), []
    for perm in permutations(sorted(b.universe)):
        mapping = dict(zip(src, perm))
        ok = True
        for name, tuples in a.interp:
            arity = a.sig.arity(name)
            for t in _all_tuples(src, arity):
                if (t in tuples) != (tuple(mapping[x] for x in t) in b.rel(name)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def _all_tuples(xs, arity):
    out = [()]
    for _ in range(arity):
        out = [t + (x,) for t in out for x in xs]
    return out


def test_find_isomorphism_identity():
    p = graph({0, 1, 2}, [(0, 1)])
    iso = find_isomorphism(p, p)
    assert iso.as_dict() == {0: 0, 1: 1, 2: 2}


def test_triangle_vs_path_no_iso():
    triangle = graph({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    path = graph({0, 1, 2}, [(0, 1), (1, 2)])
    assert brute_force_isos(triangle, path) == []
    assert find_isomorphism(triangle, path) is None


def test_chain_iso_is_unique_monotone():
    from genstruct.classes import chain_structure

    a = chain_structure([3, 1, 2])
    b = chain_structure([7, 8, 9])
    iso = find_isomorphism(a, b)
    assert iso.as_dict() == {3: 7, 1: 8, 2: 9}


def test_enumerate_embeddings_counts():
    k3 = graph({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    vertex = graph({5}, [])
    edge = graph({5, 6}, [(5, 6)])
    assert len(enumerate_embeddings(vertex, k3)) == 3
    assert len(enumerate_embeddings(edge, k3)) == 6
    assert enumerate_embeddings(edge, graph({0, 1}, [])) == []


def test_embeddings_lexicographic_order():
    k3 = graph({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    images = [e.as_dict()[5] for e in enumerate_embeddings(graph({5}, []), k3)]
    assert images == [0, 1, 2]


def test_relabel_disjoint_examples():
    p = graph({0, 1}, [(0, 1)])
    same, renaming = relabel_disjoint(p, set())
    assert same == p and renaming == {0: 0, 1: 1}
    moved, renaming = relabel_disjoint(p, {0, 1, 2})
    assert moved.universe == frozenset({3, 4})
    assert renaming == {0: 3, 1: 4}
    e, _ = relabel_disjoint(empty_structure(GRAPH_SIG), {0})
    assert len(e) == 0


def random_graph(rng, max_n=6):
    n = rng.randrange(max_n + 1)
    ids = rng.sample(range(20), n)
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.4]
    return graph(ids, edges)


def test_embedding_composition_and_identity():
    rng = Random(7)
    for _ in range(60):
        a = random_graph(rng, 4)
        ident = identity_embedding(a)
        assert compose(ident, ident).as_dict() == ident.as_dict()
        b, ren = relabel_disjoint(a, set(range(20)))
        f = make_embedding(a, b, ren)
        assert compose(ident, f).as_dict() == ren


def test_iso_is_an_equivalence():
    rng = Random(11)
    for _ in range(40):
        a = random_graph(rng, 5)
        b, _ = relabel_disjoint(a, set(range(20)))
        c, _ = relabel_disjoint(b, set(range(40)))
        ab = find_isomorphism(a, b)
        bc = find_isomorphism(b, c)
        assert ab is not None and bc is not None
        inv = {y: x for x, y in ab.as_dict().items()}
        make_embedding(b, a, inv)  # symmetry: the inverse is a witness
        compose(ab, bc)  # transitivity: composition is a witness
        assert find_isomorphism(a, a).as_dict() == {x: x for x in a.universe}


def test_induced_idempotent_and_monotone():
    rng = Random(3)
    for _ in range(40):
        a = random_graph(rng)
        sub = [x for x in a.universe if rng.random() < 0.6]
        smaller = [x for x in sub if rng.random() < 0.6]
        once = induced_substructure(a, set(sub))
        assert induced_substructure(once, set(sub)) == once
        assert induced_substructure(once, set(smaller)) == induced_substructure(a, set(smaller))


def test_embedding_count_invariant_under_relabel():
    rng = Random(19)
    for _ in range(25):
        a = random_graph(rng, 3)
        b = random_graph(rng, 5)
        count = len(enumerate_embeddings(a, b))
        a2, _ = relabel_disjoint(a, set(range(25)))
        b2, _ = relabel_disjoint(b, set(range(25)))
        assert len(enumerate_embeddings(a2, b)) == count
        assert len(enumerate_embeddings(a, b2)) == count


def test_canonical_key_iso_invariant():
    rng = Random(23)
    for _ in range(30):
        a = random_graph(rng, 5)
        b, _ = relabel_disjoint(a, set(range(20)))
        assert canonical_key(a) == canonical_key(b)


def test_fresh_ids():
    assert fresh_ids({0, 1, 3}, 3) == [2, 4, 5]
    assert fresh_ids(set(), 2) == [0, 1]


def test_json_golden_format():
    s = graph({0, 1}, [(0, 1)])
    assert dumps(s) == '{"sig":[["E",2]],"universe":[0,1],"interp":{"E":[[0,1],[1,0]]}}'


def test_json_round_trip():
    rng = Random(31)
    for _ in range(20):
        a = random_graph(rng)
        assert loads(dumps(a)) == a


def test_make_embedding_rejects_relation_breaker():
    edge = graph({0, 1}, [(0, 1)])
    non_edge = graph({2, 3}, [])
    with pytest.raises(StructureError):
        make_embedding(edge, non_edge, {0: 2, 1: 3})


def test_embedding_apply_and_apply_tuple():
    path = graph({0, 1, 2}, [(0, 1), (1, 2)])
    big = graph({5, 6, 7, 8}, [(5, 6), (6, 7), (7, 8)])
    f = make_embedding(path, big, {0: 6, 1: 7, 2: 8})
    assert [f.apply(x) for x in (0, 1, 2)] == [6, 7, 8]
    assert f.apply_tuple((2, 0, 1, 0)) == (8, 6, 7, 6)
    assert f.apply_tuple(()) == ()
    with pytest.raises(KeyError):
        f.apply(5)
    pins = f.as_dict()
    pins[0] = 5  # as_dict hands out a copy; the embedding keeps its map
    assert f.apply(0) == 6 and f.as_dict() == {0: 6, 1: 7, 2: 8}


def test_cached_views_stay_out_of_equality_hash_json_and_pickle():
    import pickle

    a = graph({0, 1, 2}, [(0, 1), (1, 2)])
    fresh = graph({0, 1, 2}, [(0, 1), (1, 2)])
    assert a.profiles[1] == ((2, 2),) and a.sig.arity("E") == 2
    assert a == fresh and hash(a) == hash(fresh) and dumps(a) == dumps(fresh)
    copy = pickle.loads(pickle.dumps(a))
    assert set(copy.__dict__) == {"sig", "universe", "interp"}
    assert set(copy.sig.__dict__) == {"symbols"}
    with pytest.raises(UnknownSymbol):
        a.sig.arity("R")
    with pytest.raises(TypeError):
        a.profiles[0] = ()

    order = validate_structure(ORDER_SIG, {3, 5, 9}, {"<": {(9, 3), (9, 5), (3, 5)}})
    same = validate_structure(ORDER_SIG, {3, 5, 9}, {"<": {(9, 3), (9, 5), (3, 5)}})
    assert order.chain == (9, 3, 5) and isinstance(order.chain, tuple)
    assert order == same and hash(order) == hash(same) and repr(order) == repr(same)
    assert dumps(order) == dumps(same) and pickle.dumps(order) == pickle.dumps(same)
    assert set(pickle.loads(pickle.dumps(order)).__dict__) == {"sig", "universe", "interp"}
    with pytest.raises(UnknownSymbol):
        a.chain
