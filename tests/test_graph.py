import random

import pytest

from dimatch import (DimCertificate, GraphInputError, build_graph,
                     connected_components, verify_dim, verify_dim_report)
from dimatch.patterns import make_named, path, cycle, BUTTERFLY


def test_build_p2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)


def test_build_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.m == 2 and g.adj[1] == (0, 2)


def test_build_rejects_self_loop():
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 0)])


def test_build_rejects_duplicates_and_range():
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("n, pairs, message", [
    (-1, [], "vertex count must be nonnegative, got -1"),
    (3.0, [(0, 1)], "vertex count must be an integer, got 3.0"),
    (True, [], "vertex count must be an integer, got True"),
    (3, [(0, 1, 2)], "malformed edge pair: (0, 1, 2)"),
    (3, [(0, 1), 5], "malformed edge pair: 5"),
    (3, [(0, 1), (x for x in (1, 2))], "malformed edge pair: <generator"),
    (3, [(0, 1.0)], "edge endpoints must be integers: (0, 1.0)"),
    # True == 1, so a bool id used to pass and leave `True` in the edges,
    # which emit_graph then wrote out
    (3, [(True, 2)], "edge endpoints must be integers: (True, 2)"),
    (3, [(0, 1), (False, 2)], "edge endpoints must be integers: (False, 2)"),
    (3, [(0, 1), (2, 2), (0, 3)], "self-loop rejected: (2, 2)"),
    (3, [(0, 1), (0, 3), (2, 2)], "vertex id out of range 0..2: (0, 3)"),
    (3, [(-1, 0)], "vertex id out of range 0..2: (-1, 0)"),
    (3, [(2, 1), (0, 1), (1, 2)], "duplicate edge rejected: (1, 2)"),
])
def test_build_names_the_first_offending_pair(n, pairs, message):
    # the bulk checks reject the input, and the pair-by-pair rescan names
    # the first pair a check fails on
    with pytest.raises(GraphInputError) as err:
        build_graph(n, pairs)
    assert str(err.value).startswith(message)


def test_build_is_canonical_in_any_pair_order():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 9)
        keys = sorted({(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < 0.4})
        adj = [[] for _ in range(n)]
        for u, v in keys:
            adj[u].append(v)
            adj[v].append(u)
        pairs = [(u, v) if rng.random() < 0.5 else [v, u] for u, v in keys]
        rng.shuffle(pairs)
        g = build_graph(n, iter(pairs))
        assert g.n == n and g.edges == tuple(keys) and g.m == len(keys)
        assert g.adj == tuple(tuple(sorted(a)) for a in adj)
        assert g.adjset == tuple(frozenset(a) for a in adj)


def test_verify_dim_p3():
    g = make_named(path(3))
    assert verify_dim(g, [(0, 1)])
    assert verify_dim(g, [(1, 2)])
    assert not verify_dim(g, [])


def test_verify_dim_c4_single_edge():
    g = make_named(cycle(4))
    ok, why = verify_dim_report(g, [(0, 1)])
    assert not ok and "(2, 3)" in why


def test_verify_dim_butterfly_peripherals():
    g = make_named(BUTTERFLY)
    assert verify_dim(g, [(0, 1), (2, 3)])


def test_verify_dim_non_edge_reports():
    g = make_named(path(3))
    ok, why = verify_dim_report(g, [(0, 2)])
    assert not ok and "not an edge" in why


def test_verify_dim_overlap_rejected_by_certificate():
    with pytest.raises(ValueError):
        DimCertificate(frozenset({(0, 1), (1, 2)}))


def test_verify_dim_matches_definition_small():
    # independent definitional count over all edge subsets
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = build_graph(n, pairs)
        for mask in range(1 << g.m):
            subset = [g.edges[i] for i in range(g.m) if mask >> i & 1]
            try:
                cert = DimCertificate(frozenset(subset))
            except ValueError:
                continue
            byhand = all(
                sum(1 for f in subset if set(f) & set(e)) == 1
                for e in g.edges)
            assert verify_dim(g, cert) == byhand


def test_empty_certificate_on_edgeless_graph():
    g = build_graph(3, [])
    assert verify_dim(g, DimCertificate())


def test_connected_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [(0, 1), (2, 3)]
    g = make_named(path(6))
    assert connected_components(g) == [(0, 1, 2, 3, 4, 5)]
    g = build_graph(3, [])
    assert connected_components(g) == [(0,), (1,), (2,)]
